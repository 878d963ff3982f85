"""End-to-end CLI tests: output formats, schemas, exit codes, determinism."""

import importlib
import json
import re
from fractions import Fraction

import numpy as np
import pytest

import chernoff
import chernoff.algebra
from chernoff import RationalPoly, SimConfig, length_scale, simulate
from chernoff.cli import main

jsonschema = pytest.importorskip("jsonschema")

CONTOUR_SCHEMA = {
    "type": "object",
    "required": ["sigma", "rel_tol"],
    "properties": {
        "sigma": {"type": "number"},
        "rel_tol": {"type": "number"},
    },
    "additionalProperties": False,
}

SCALAR_SCHEMA = {
    "type": "object",
    "required": ["quantity", "value", "err_estimate", "contour"],
    "properties": {
        "quantity": {"type": "string"},
        "value": {"type": "number"},
        "err_estimate": {"type": "number"},
        "contour": CONTOUR_SCHEMA,
    },
}

POLYS_SCHEMA = {
    "type": "array",
    "items": {
        "type": "object",
        "required": ["n", "coeffs"],
        "properties": {
            "n": {"type": "integer"},
            "coeffs": {
                "type": "object",
                "patternProperties": {
                    r"^\d+$": {"type": "string", "pattern": r"^-?\d+/\d+$"}
                },
                "additionalProperties": False,
            },
        },
        "additionalProperties": False,
    },
}

TABLE_PLAIN = """\
p_0(z) = 1
p_1(z) = 0
p_2(z) = -1/3*z
p_3(z) = 0
p_4(z) = 7/15*z^2
p_5(z) = 0
p_6(z) = -31/21*z^3 + 26/21
p_7(z) = 0
p_8(z) = 127/15*z^4 - 196/9*z
p_9(z) = 0
p_10(z) = -2555/33*z^5 + 13160/33*z^2
p_11(z) = 0
p_12(z) = 1414477/1365*z^6 - 2419532/273*z^3 + 1989472/1365"""


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


# ---------------------------------------------------------------- polys


def test_polys_plain_table(capsys):
    code, out, _ = run(capsys, "polys", "--max-n", "12")
    assert code == 0
    assert out.rstrip("\n") == TABLE_PLAIN


def test_polys_zero_and_odd(capsys):
    code, out, _ = run(capsys, "polys", "--max-n", "0")
    assert code == 0
    assert out.rstrip("\n") == "p_0(z) = 1"
    code, out, _ = run(capsys, "polys", "--max-n", "3")
    assert out.rstrip("\n").splitlines()[-1] == "p_3(z) = 0"


def test_polys_json_schema(capsys):
    code, out, _ = run(capsys, "polys", "--max-n", "8", "--format", "json")
    assert code == 0
    docs = json.loads(out)
    jsonschema.validate(docs, POLYS_SCHEMA)
    assert [d["n"] for d in docs] == list(range(9))
    assert docs[4]["coeffs"] == {"2": "7/15"}
    # exact rationals only; a float would sneak a '.' in somewhere
    assert "." not in out


def test_polys_csv(capsys):
    code, out, _ = run(capsys, "polys", "--max-n", "4", "--format", "csv")
    assert code == 0
    lines = out.rstrip("\n").splitlines()
    assert lines[0] == "n,power,coefficient"
    assert "4,2,7/15" in lines
    assert "2,1,-1/3" in lines


def test_polys_out_file(capsys, tmp_path):
    target = tmp_path / "table.txt"
    code, out, _ = run(capsys, "polys", "--max-n", "2", "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text() == "p_0(z) = 1\np_1(z) = 0\np_2(z) = -1/3*z\n"


def test_polys_negative_max_n(capsys):
    code, _, err = run(capsys, "polys", "--max-n", "-1")
    assert code == 2
    assert "usage error" in err


def test_polys_past_the_order_bound_is_refused_before_the_table(capsys, monkeypatch):
    # p_0..p_500 would take about 20 s before p_501 raised
    monkeypatch.setattr(chernoff.algebra, "moment_polynomial", None)
    code, out, err = run(capsys, "polys", "--max-n", "501")
    assert (code, out) == (2, "")
    assert err == ("invalid arguments: --max-n must be a nonnegative integer at most 500, "
                   "got 501\n")


# ---------------------------------------------------------------- verify


def test_verify_passes(capsys):
    code, out, _ = run(capsys, "verify", "--max-n", "12")
    assert code == 0
    assert "all checks passed" in out
    assert "VERIFICATION FAILED" not in out


def test_verify_to_200(capsys):
    code, out, _ = run(capsys, "verify", "--max-n", "200")
    assert code == 0
    assert "(201 rows)" in out
    assert "all checks passed" in out


def test_verify_detects_corruption(capsys, monkeypatch):
    real = chernoff.algebra.moment_polynomial.__wrapped__

    def corrupted(n):
        p = real(n)
        if n == 4:
            return RationalPoly({2: Fraction(8, 15)})  # wrong leading coeff
        return p

    monkeypatch.setattr(chernoff.algebra, "moment_polynomial", corrupted)
    code, out, _ = run(capsys, "verify", "--max-n", "8")
    assert code == 1
    assert "VERIFICATION FAILED" in out
    assert "FAIL n=4" in out


# ---------------------------------------------------------------- scalar commands


def test_moment_json(capsys):
    code, out, _ = run(capsys, "moment", "--n", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, SCALAR_SCHEMA)
    assert doc["quantity"] == "moment"
    assert doc["n"] == 2
    assert abs(doc["gamma"] - chernoff.CANONICAL_GAMMA) < 1e-12
    assert abs(doc["value"] - 0.4183748518553625) < 1e-9
    assert doc["err_estimate"] < 1e-9
    assert doc["contour"]["sigma"] == 0.0


def test_moment_plain_and_csv(capsys):
    code, out, _ = run(capsys, "moment", "--n", "0")
    assert code == 0
    assert out.startswith("E V^0")
    code, out, _ = run(capsys, "moment", "--n", "2", "--format", "csv")
    lines = out.rstrip("\n").splitlines()
    assert lines[0] == "quantity,n,gamma,value,err_estimate"
    assert lines[1].startswith("moment,2,")


def test_cf_json_and_gamma_scaling(capsys):
    code, out, _ = run(capsys, "cf", "--t", "1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, SCALAR_SCHEMA)
    assert doc["quantity"] == "char_fn"
    assert abs(doc["value"] - 0.8102667681352227) < 1e-9

    code, out2, _ = run(capsys, "cf", "--t", "1", "--gamma", "2", "--format", "json")
    doc2 = json.loads(out2)
    want = chernoff.char_fn(length_scale(2.0) * 1.0).real
    assert abs(doc2["value"] - want) < 1e-12


def test_mgf_json(capsys):
    code, out, _ = run(capsys, "mgf", "--t-re", "0.5", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, SCALAR_SCHEMA)
    assert doc["quantity"] == "mgf"
    assert abs(doc["value"] - 1.0536112114071924) < 1e-9
    assert abs(doc["value_im"]) < 1e-10
    assert doc["contour"]["sigma"] == 0.0


def test_mgf_auto_sigma_shift(capsys):
    code, out, _ = run(capsys, "mgf", "--t-re", "-3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    # the echoed contour must be the shifted one actually integrated on
    assert doc["contour"]["sigma"] > 1.0
    want = chernoff.mgf(3.0).real
    assert abs(doc["value"] - want) < 1e-8 * abs(want)


def test_mgf_explicit_sigma_too_left(capsys):
    code, _, err = run(capsys, "mgf", "--t-re", "-3", "--sigma", "0")
    assert code == 2
    assert "invalid arguments" in err


def test_mean_max_json(capsys):
    code, out, _ = run(capsys, "mean-max", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, SCALAR_SCHEMA)
    assert doc["quantity"] == "mean_max"
    assert abs(doc["value"] - 0.8875070844745322) < 1e-9


# each command's plain pattern (value, err) and CSV header and row prefix,
# the prefix formatted with the command's JSON document
SCALAR_TEXT = [
    (("cf", "--t", "1", "--gamma", "2"), r"cf\(1\) \(gamma=2\) = (\S+)  err<=(\S+)",
     "quantity,t,gamma,value,err_estimate", "char_fn,1.0,2.0"),
    (("mgf", "--t-re", "-3", "--t-im", "0.5"),
     r"mgf\(-3\+0\.5i\) \(gamma=0\.7071067812\) = (\S+?)[+-]\S+i  err<=(\S+)",
     "quantity,t_re,t_im,gamma,value_im,value,err_estimate",
     "mgf,-3.0,0.5,0.7071067811865475,{value_im}"),
    (("mean-max", "--gamma", "2"), r"E M \(gamma=2\) = (\S+)  err<=(\S+)",
     "quantity,gamma,value,err_estimate", "mean_max,2.0"),
]


@pytest.mark.parametrize("argv, plain, head, row", SCALAR_TEXT)
def test_scalar_plain_and_csv(capsys, argv, plain, head, row):
    # the plain text and the CSV row carry the JSON document's value and error
    _, out, _ = run(capsys, *argv, "--format", "json")
    doc = json.loads(out)
    value, err = doc["value"], doc["err_estimate"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    m = re.fullmatch(plain, out.rstrip("\n"))
    assert m and m.groups() == (f"{value:.15g}", f"{err:.3g}"), out
    code, out, _ = run(capsys, *argv, "--format", "csv")
    assert code == 0
    assert out.splitlines() == [head, f"{row.format(**doc)},{value:.17g},{err:.3g}"]


# ---------------------------------------------------------------- density


def test_density_csv(capsys):
    code, out, _ = run(capsys, "density", "--from", "-2", "--to", "2",
                       "--step", "0.5")
    assert code == 0
    lines = out.rstrip("\n").splitlines()
    assert lines[0] == "x,f"
    rows = [tuple(map(float, ln.split(","))) for ln in lines[1:]]
    assert len(rows) == 9
    table = dict(rows)
    assert abs(table[0.0] - 0.6018984746044278) < 1e-8
    for x in (0.5, 1.0, 1.5, 2.0):
        assert abs(table[x] - table[-x]) < 1e-8


def test_density_json(capsys):
    code, out, _ = run(capsys, "density", "--from", "0", "--to", "1",
                       "--step", "0.5", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["quantity"] == "density"
    assert doc["x"] == [0.0, 0.5, 1.0]
    assert len(doc["f"]) == 3


def test_density_formats_are_csv_and_json(capsys):
    # plain would only repeat the CSV, so argparse refuses it
    code, out, err = run(capsys, "density", "--from", "0", "--to", "1", "--step", "0.5",
                         "--format", "plain")
    assert code == 2 and out == ""
    assert "argument --format: invalid choice" in err and "plain" in err
    code, out, _ = run(capsys, "density", "--help")
    assert code == 0 and "--format {csv,json}" in out


def test_density_bad_range(capsys):
    # 1e12 rows would need 7.3 TiB: numpy refuses that allocation at once
    for x_from, x_to, step, says in (
            ("2", "-2", "0.5", "--from <= --to"),
            ("0", "inf", "0.1", "finite"), ("-inf", "1", "0.1", "finite"),
            ("0", "1", "inf", "finite"), ("nan", "1", "0.1", "finite"),
            ("0", "1", "1e-12", "1e+12 rows"), ("0", "1", "1e-30", "1e+30 rows"),
            ("-1e308", "1e308", "1", "inf rows")):
        code, out, err = run(capsys, "density", f"--from={x_from}", f"--to={x_to}",
                             f"--step={step}")
        assert code == 2, (x_from, x_to, step)
        assert out == "" and "usage error" in err and says in err, err


# ---------------------------------------------------------------- simulate


def test_simulate_writes_and_reports(capsys, tmp_path):
    out_csv = tmp_path / "s.csv"
    code, out, err = run(capsys, "simulate", "--paths", "200", "--step", "0.01",
                         "--horizon", "3", "--seed", "7", "--out", str(out_csv))
    assert code == 0
    assert out_csv.exists()
    assert (tmp_path / "s.csv.json").exists()
    # diagnostics stay on stderr, the table on stdout
    assert "simulating" in err
    assert "v2_mean" in out and "analytic" in out

    # the CSV is exactly what the library produces for the same config
    ours = simulate(SimConfig(horizon=3.0, step=0.01, num_paths=200, seed=7))
    back = chernoff.load_sample_set(out_csv)
    assert np.array_equal(back.v, ours.v)
    assert back.config == ours.config


def test_simulate_deterministic_output(capsys, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for path in (a, b):
        code, _, _ = run(capsys, "simulate", "--paths", "64", "--step", "0.02",
                         "--horizon", "2", "--out", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_json(capsys, tmp_path):
    out_csv = tmp_path / "s.csv"
    code, out, _ = run(capsys, "simulate", "--paths", "64", "--step", "0.02",
                       "--horizon", "3", "--seed", "1", "--out", str(out_csv),
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["quantity"] == "simulate"
    assert doc["config"]["num_paths"] == 64
    assert set(doc["estimates"]) == {
        "v_mean", "v2_mean", "v4_mean", "m_mean", "w_at_argmax_mean"
    }
    for row in doc["estimates"].values():
        assert set(row) == {"value", "stderr", "analytic"}


def test_simulate_bad_config(capsys, tmp_path):
    # horizon/step overflows to inf, which no grid step count can hold, or
    # passes 2^53, where every double is an integer multiple
    for argv in (("--paths", "0"), ("--horizon", "1e300", "--step", "1e-300", "--paths", "10"),
                 ("--horizon", "1e300", "--step", "1e-5", "--paths", "10")):
        code, out, err = run(capsys, "simulate", *argv, "--out", str(tmp_path / "x.csv"))
        assert (code, out) == (2, ""), argv
        assert err.count("\n") == 1 and err.startswith("usage error"), argv
        assert len(err) < 100, err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("module, name", [("chernoff.cli", "run_paths"),
                                          ("chernoff.simulate", "_Plan")])
def test_simulate_memory_error_is_usage_error(capsys, tmp_path, monkeypatch, module, name):
    # a MemoryError past the pre-checks, such as numpy's in the sampler's
    # plan under a low ulimit -v, ends in one usage line and no traceback
    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate 286. MiB")

    monkeypatch.setattr(importlib.import_module(module), name, refuse)
    code, out, err = run(capsys, "simulate", "--paths", "10", "--step", "0.01",
                         "--out", str(tmp_path / "x.csv"))
    assert (code, out) == (2, "")
    assert "Traceback" not in err
    assert [line for line in err.splitlines() if not line.startswith("simulating")] == [
        "usage error: the arrays that simulate needs cannot be allocated"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("paths, target", [
    ("1", "s.csv"), ("10", "missing/s.csv"), ("10", "."), ("10", "")])
def test_simulate_refuses_before_simulating(capsys, tmp_path, paths, target):
    # one path has no standard error, and an unwritable --out would be
    # found only after the paths were built
    out = str(tmp_path / target) if target else ""
    code, stdout, err = run(capsys, "simulate", "--paths", paths, "--step", "0.01",
                            "--out", out)
    assert code == 2
    assert stdout == "" and "simulating" not in err
    assert err.count("\n") == 1 and err.startswith("usage error")
    assert list(tmp_path.iterdir()) == []


def test_simulate_unallocatable_sample_set_is_usage_error(capsys, tmp_path, monkeypatch):
    # numpy refuses 10^12 paths (7.3 TiB per column), or a grid of 8 * 10^12
    # points per path (58 TiB), with a MemoryError of its own, before any
    # work; no test asks for the real allocation, so an array that large is
    # refused here wherever it is asked for
    empty = np.empty

    def refuse(shape, *args, **kwargs):
        if np.prod(shape, dtype=float) >= 1e12:
            raise MemoryError("Unable to allocate 21.8 TiB")
        return empty(shape, *args, **kwargs)

    monkeypatch.setattr(np, "empty", refuse)
    for argv, what in [(("--paths", "1000000000000"), "a sample set of 1000000000000 paths"),
                       (("--step", "1e-12", "--paths", "10"),
                        "a grid of 8000000000001 points per path")]:
        code, out, err = run(capsys, "simulate", *argv, "--out", str(tmp_path / "x.csv"))
        assert (code, out) == (2, ""), argv
        assert "simulating" not in err
        assert err.splitlines() == [f"usage error: {what} cannot be allocated"]
    assert list(tmp_path.iterdir()) == []


def test_simulate_table_goes_to_stdout_with_or_without_out(capsys, tmp_path, monkeypatch):
    # simulate's --out names the sample file, never the table
    monkeypatch.chdir(tmp_path)
    argv = ("simulate", "--paths", "64", "--step", "0.02", "--horizon", "2")
    for fmt, says in (("plain", "v2_mean"), ("json", '"estimates"')):
        _, default, _ = run(capsys, *argv, "--format", fmt)
        code, named, _ = run(capsys, *argv, "--format", fmt, "--out", "chernoff_samples.csv")
        assert code == 0 and named == default and says in named
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "chernoff_samples.csv", "chernoff_samples.csv.json"]


@pytest.mark.parametrize("argv, fmt", [(argv, fmt) for argv, formats in [
    (("polys", "--max-n", "6"), ("plain", "json", "csv")),
    (("moment", "--n", "2"), ("plain", "json", "csv")),
    (("cf", "--t", "1", "--gamma", "2"), ("plain", "json", "csv")),
    (("mgf", "--t-re", "-3", "--t-im", "0.5"), ("plain", "json", "csv")),
    (("mean-max",), ("plain", "json", "csv")),
    (("density", "--from", "0", "--to", "1", "--step", "0.25"), ("csv", "json")),
] for fmt in formats])
def test_out_file_is_what_stdout_would_print(capsys, tmp_path, argv, fmt):
    _, printed, _ = run(capsys, *argv, "--format", fmt)
    target = tmp_path / "result"
    code, out, err = run(capsys, *argv, "--format", fmt, "--out", str(target))
    assert (code, out, err) == (0, "", "")
    assert target.read_bytes() == printed.encode()


@pytest.mark.parametrize("argv", [
    ("moment", "--n", "2"),
    ("density", "--from", "0", "--to", "1", "--step", "0.5"),
    ("polys", "--max-n", "4"),
    ("mean-max",),
])
@pytest.mark.parametrize("target", ["missing/x.txt", "."])
def test_unwritable_out_is_usage_error(capsys, tmp_path, argv, target):
    # exit 1 is kept for a failed verification
    code, stdout, err = run(capsys, *argv, "--out", str(tmp_path / target))
    assert code == 2
    assert stdout == "" and err.count("\n") == 1
    assert err.startswith("usage error: cannot write --out")
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------- exit codes, env


def test_no_command_is_usage_error(capsys):
    code, _, _ = run(capsys)
    assert code == 2


def test_unknown_command(capsys):
    assert run(capsys, "frobnicate")[0] == 2


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "moment", "--help")[0] == 0


@pytest.mark.parametrize("command, flags", [
    ("polys", ["--max-n", "--format", "--out"]),
    ("verify", ["--max-n"]),
    ("moment", ["--n", "--gamma", "--format", "--out"]),
    ("cf", ["--t", "--gamma", "--format", "--out"]),
    ("mgf", ["--t-re", "--t-im", "--sigma", "--gamma", "--format", "--out"]),
    ("density", ["--from", "--to", "--step", "--gamma", "--tol", "--format", "--out"]),
    ("mean-max", ["--gamma", "--format", "--out"]),
    ("simulate", ["--gamma", "--horizon", "--step", "--paths", "--seed", "--out", "--format"]),
])
def test_subcommand_help_names_its_flags(capsys, command, flags):
    # in order: argparse's usage line, printed with every usage error, follows it
    code, out, err = run(capsys, command, "--help")
    assert code == 0 and err == ""
    assert re.findall(r"^  (--[a-z-]+)", out, re.M) == flags


def test_verify_max_n_below_two(capsys):
    code, out, err = run(capsys, "verify", "--max-n", "1")
    assert (code, out, err) == (2, "", "usage error: --max-n must be >= 2\n")


def test_bad_flag_values(capsys):
    assert run(capsys, "moment", "--n", "-2")[0] == 2
    assert run(capsys, "moment", "--n", "2", "--gamma", "-1")[0] == 2
    assert run(capsys, "moment", "--n", "two")[0] == 2
    assert run(capsys, "cf", "--t", "nan")[0] == 2
    assert run(capsys, "cf", "--t", "inf")[0] == 2
    # the library's own validation reports a bad gamma for every command
    for argv in (("moment", "--n", "2"), ("cf", "--t", "1"), ("mgf", "--t-re", "1"),
                 ("density", "--from", "0", "--to", "1", "--step", "0.5"), ("mean-max",)):
        for gamma in ("0", "-1", "nan", "inf"):
            code, out, err = run(capsys, *argv, "--gamma", gamma)
            assert code == 2, (argv, gamma)
            assert out == "" and "invalid arguments: gamma must be a positive real" in err


@pytest.mark.parametrize("argv, typed", [
    (("mgf", "--t-re", "inf"), "(inf+0j)"),
    (("mgf", "--t-re", "1", "--t-im", "nan"), "(1+nanj)"),
    (("cf", "--t=-inf", "--gamma", "2"), "-inf"),
    (("cf", "--t", "nan"), "nan")])
def test_non_finite_t_is_named_as_typed(capsys, argv, typed):
    # t reaches the library unscaled, so the message names what was typed,
    # not a product with length_scale(gamma) such as (inf+nanj)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("invalid arguments: t must be a finite ")
    assert err.endswith(f", got {typed}\n"), err


def test_env_reltol_roundtrip(capsys, monkeypatch):
    monkeypatch.setenv("CHERNOFF_RELTOL", "1e-6")
    code, out, _ = run(capsys, "moment", "--n", "2", "--format", "json")
    assert code == 0
    assert json.loads(out)["contour"]["rel_tol"] == 1e-6


def test_env_reltol_invalid(capsys, monkeypatch):
    for raw in ("banana", "2", "0", "1", "nan"):
        monkeypatch.setenv("CHERNOFF_RELTOL", raw)
        code, out, err = run(capsys, "moment", "--n", "2")
        assert code == 2 and out == "", raw
        assert "usage error: CHERNOFF_RELTOL=" in err, raw


def test_env_reltol_unreachable(capsys, monkeypatch):
    monkeypatch.setenv("CHERNOFF_RELTOL", "1e-30")
    code, _, err = run(capsys, "moment", "--n", "2")
    assert code == 3
    assert "numerical failure" in err


@pytest.mark.parametrize("argv", [
    ("moment", "--n", "2", "--gamma", "1e-300"),     # the gamma power overflows
    ("moment", "--n", "202"),                        # and p_202's coefficients
    ("mgf", "--t-re", "1e300"),                      # Ai(z + t) underflows
    ("density", "--from", "1e308", "--to", "1e308", "--step", "1",
     "--gamma", "1e6"),                              # x / length_scale(gamma)
    ("cf", "--t", "1e308", "--gamma", "1e-300"),     # length_scale(gamma) * t
    ("mgf", "--t-re", "1e308", "--gamma", "1e-300"),
])
def test_out_of_range_is_a_numerical_failure(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert "numerical failure" in err

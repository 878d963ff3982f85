"""Correctness checks and summary statistics; pure functions of results.

Every reference comes from `references.json` (frozen mpmath values, see
`make_references.py`) or from an exact identity; nothing here calls the
library under test.  A request passes when its value is within
1e-9 * max(1, |ref|) of the reference.
"""
from __future__ import annotations

import json
import math
import statistics
from fractions import Fraction
from pathlib import Path

REL = 1e-9
GAMMA_C = 1.0 / math.sqrt(2.0)
#: two-sided normal tail beyond 6 sigma is 2e-9, so the ~20 Monte Carlo
#: tests of one run miss by chance with probability below 1e-7
Z = 6.0

OK, ERROR, WRONG = "ok", "error", "wrong"


def load_references(path: Path = Path(__file__).with_name("references.json")) -> dict:
    raw = json.loads(path.read_text())
    refs = {k: {key: float(v) for key, v in raw[k].items()}
            for k in ("moments", "cf", "mgf", "density")}
    refs["mean_max"] = float(raw["mean_max"])
    refs["airy"] = {r: [complex(float(re), float(im)) for re, im in pts]
                    for r, pts in raw["airy"].items()}
    refs["polys"] = {int(n): {int(p): Fraction(c) for p, c in poly.items()}
                     for n, poly in raw["published_polys"].items()}
    return refs


def tolerance(ref: float) -> float:
    return REL * max(1.0, abs(ref))


def _menu(table: dict, v: float) -> float:
    return table[repr(float(v))]


def reference(kind: str, args: dict, refs: dict):
    """Reference value of one quadrature request."""
    if kind == "moment_quad":
        n, g = args["n"], args["gamma"]
        return refs["moments"][str(n)] * 2.0 ** (-n / 3.0) * g ** (-2.0 * n / 3.0)
    if kind == "mean_max_quad":
        return refs["mean_max"] * (args["gamma"] / GAMMA_C) ** (-1.0 / 3.0)
    if kind == "char_fn_quad":
        return _menu(refs["cf"], args["t"])
    if kind == "mgf_quad":
        return _menu(refs["mgf"], args["t"])
    if kind == "density":
        return _menu(refs["density"], abs(args["x"]))
    raise KeyError(kind)


def _value(res):
    v = res["value"]
    return complex(*v) if isinstance(v, list) else v


def check_quad(req: dict, res: dict, refs: dict) -> tuple[str, str, bool]:
    """(status, detail, error estimate too small) for a quadrature result."""
    if res["error"]:
        return ERROR, res["error"], False
    ref = reference(req["kind"], req["args"], refs)
    diff = abs(_value(res) - ref)
    under = "err_estimate" in res and diff > res["err_estimate"]
    if diff > tolerance(ref):
        return WRONG, f"{req['kind']} {req['args']}: off by {diff:.3e}", under
    return OK, "", under


def check_density_grid(args: dict, res: dict, refs: dict) -> str:
    """'' or what is wrong with a density table (values, tail, mass)."""
    s = args["scale"]
    for u, f in zip(res["u"], res["f"]):
        if repr(abs(u)) not in refs["density"]:
            continue
        ref = _menu(refs["density"], abs(u)) / s
        if abs(f - ref) > tolerance(ref):
            return f"density_grid gamma={args['gamma']}: f({u * s:.6g}) off by {abs(f - ref):.3e}"
    if res["far_max"] > refs["density"][repr(5.0)] / s + REL:
        return f"density_grid gamma={args['gamma']}: |f| = {res['far_max']:.3e} beyond |u| = 5"
    if abs(res["mass"] - 1.0) > 1e-6:
        return f"density_grid gamma={args['gamma']}: mass {res['mass']:.9f}"
    return ""


def check_airy(regime: str, res: dict, refs: dict) -> str:
    for got, ref in zip(res["value"], refs["airy"][regime]):
        if abs(complex(*got) - ref) > tolerance(abs(ref)):
            return f"airy_ai {regime}: off by {abs(complex(*got) - ref):.3e}"
    return ""


# ------------------------------------------------------------- Monte Carlo

def _mean_se(n, sums):
    s, q = sums
    mean = s / n
    var = max(q - s * s / n, 0.0) / (n - 1)
    return mean, math.sqrt(var / n)


def _ratio_se(n, w, m, wm):
    """mean(w)/mean(m) with a delta-method standard error."""
    wb, mb = w[0] / n, m[0] / n
    r = wb / mb
    var_w = (w[1] - w[0] * wb) / (n - 1)
    var_m = (m[1] - m[0] * mb) / (n - 1)
    cov = (wm - w[0] * mb) / (n - 1)
    var = (var_w - 2.0 * r * cov + r * r * var_m) / (mb * mb * n)
    return r, math.sqrt(max(var, 0.0))


def triangle(pooled: dict, refs: dict) -> list[str]:
    """The step-halving Monte Carlo check on sums pooled over probes.

    The discretization bias of a statistic decaying like h^p with p >= 1/2
    is at most delta / (2^p - 1) <= 2.5 |delta|, delta being the fine minus
    coarse difference on the same paths; Z standard errors cover the rest.
    """
    n = pooled["n"]
    problems = []
    for name, key, want in (("E V^2", "v2", refs["moments"]["2"]),
                            ("E V^4", "v4", refs["moments"]["4"]),
                            ("E M", "m", refs["mean_max"])):
        est, se = _mean_se(n, pooled[f"f.{key}"])
        dmean, dse = _mean_se(n, pooled[f"d.{key}"])
        bound = Z * se + 2.5 * abs(dmean) + Z * dse
        if abs(est - want) > bound:
            problems.append(f"{name}: |{est:.5f} - {want:.5f}| > {bound:.2e}")
    rf, sef = _ratio_se(n, pooled["f.w"], pooled["f.m"], pooled["f.wm"])
    rc, sec = _ratio_se(n, pooled["c.w"], pooled["c.m"], pooled["c.wm"])
    bound = Z * sef + 2.5 * abs(rf - rc) + Z * (sef + sec)
    if abs(rf - 4.0 / 3.0) > bound:
        problems.append(f"E W / E M: |{rf:.5f} - 4/3| > {bound:.2e}")
    vmean, vse = _mean_se(n, pooled["f.v"])
    if abs(vmean) > Z * vse:
        problems.append(f"E V: |{vmean:.5f}| > {Z * vse:.2e}")
    return problems


def check_monte_carlo(requests: list, results: dict, refs: dict) -> list[tuple[int, str]]:
    """(request id, problem) pairs for one Monte Carlo pass.

    Sample sets with the same (step, seed, paths) must be bit-identical, a
    probe's fine set included; a prefix of a larger set must equal the
    smaller set (batch independence); estimates must equal the sample
    mean and standard error recomputed by the worker; and the probes,
    pooled per step, must pass the triangle.
    """
    problems = []
    digests = {}
    prefixes = []
    pooled = {}
    for req in requests:
        res = results[req["id"]]
        a = req["args"]
        if res["error"]:
            continue
        if req["kind"] == "estimate":
            mean, se = res["recomputed"]
            if abs(res["value"] - mean) > 1e-12 * max(1.0, abs(mean)) \
                    or abs(res["stderr"] - se) > 1e-12 * max(1.0, se):
                problems.append((req["id"], f"estimate {a}: {res['value']} vs {mean}"))
            continue
        key = (a["step"], a["seed"], a["paths"])
        if digests.setdefault(key, (req["id"], res["digest"]))[1] != res["digest"]:
            problems.append((req["id"], f"{req['kind']} {key} differs from request "
                                        f"{digests[key][0]}"))
        for k, d in res.get("prefix_digests", {}).items():
            prefixes.append((req["id"], (a["step"], a["seed"], int(k)), d))
        if "triangle" in res:
            acc = pooled.setdefault(a["step"], ([], {}))
            acc[0].append(req["id"])
            for name, v in res["triangle"].items():
                if isinstance(v, list):
                    old = acc[1].get(name, [0.0, 0.0])
                    acc[1][name] = [old[0] + v[0], old[1] + v[1]]
                else:
                    acc[1][name] = acc[1].get(name, 0) + v
    for rid, key, d in prefixes:
        if key in digests and digests[key][1] != d:
            problems.append((rid, f"first {key[2]} paths differ from request "
                                  f"{digests[key][0]}"))
    for step, (ids, sums) in sorted(pooled.items()):
        for p in triangle(sums, refs):
            problems.extend((rid, f"step {step}: {p}") for rid in ids)
    return problems


# ------------------------------------------------------------- CLI

def parse_poly(text: str) -> dict:
    """'1414477/1365*z^6 - 2419532/273*z^3 + 1989472/1365' -> {power: c}."""
    out = {}
    if text.strip() == "0":
        return out
    for term in text.replace(" - ", " + -").split(" + "):
        coef, star, power = term.partition("*z")
        out[int(power.lstrip("^") or 1) if star else 0] = Fraction(coef)
    return out


def check_cli(args: dict, rc: int, stdout: str, samples_csv: str, refs: dict) -> tuple[str, str]:
    """(status, detail) for one CLI invocation."""
    cmd = args["argv"][0]
    if rc != 0:
        return ERROR, f"{cmd} exited {rc}"
    try:
        detail = _cli_problem(cmd, args, stdout, samples_csv, refs)
    except (ValueError, KeyError, IndexError) as exc:
        detail = f"{cmd}: unreadable output ({exc})"
    return (WRONG, detail) if detail else (OK, "")


def _cli_problem(cmd, args, stdout, samples_csv, refs) -> str:
    if cmd == "polys":
        lines = stdout.splitlines()
        if len(lines) != int(args["argv"][2]) + 1:
            return f"polys: {len(lines)} lines"
        for n, line in enumerate(lines):
            head, _, poly = line.partition(" = ")
            if head != f"p_{n}(z)":
                return f"polys: line {n} reads {head!r}"
            want = refs["polys"].get(n, {} if n % 2 else None)
            if want is not None and parse_poly(poly) != want:
                return f"polys: p_{n} = {poly}"
        return ""
    if cmd == "verify":
        return "" if stdout.rstrip().endswith("all checks passed") else "verify: not passed"
    if cmd == "density":
        rows = [tuple(map(float, r.split(","))) for r in stdout.splitlines()[1:]]
        step = float(args["argv"][6])
        for x, f in rows:
            if abs(x * 8 - round(x * 8)) < 1e-6 and abs(x) <= 5.0:
                ref = _menu(refs["density"], abs(round(x * 8) / 8))
                if abs(f - ref) > tolerance(ref):
                    return f"density: f({x:.6g}) off by {abs(f - ref):.3e}"
        mass = sum(f for _, f in rows) * step
        return "" if abs(mass - 1.0) <= 1e-6 else f"density: mass {mass:.9f}"
    if cmd == "simulate":
        doc = json.loads(stdout)
        h = doc["config"]["step"]
        want = {"v_mean": 0.0, "v2_mean": refs["moments"]["2"],
                "v4_mean": refs["moments"]["4"], "m_mean": refs["mean_max"],
                "w_at_argmax_mean": 4.0 / 3.0 * refs["mean_max"]}
        for name, ref in want.items():
            est = doc["estimates"][name]
            if abs(est["value"] - ref) > Z * est["stderr"] + math.sqrt(h) * max(1.0, ref):
                return f"simulate: {name} = {est['value']:.5f}, want {ref:.5f}"
        rows = samples_csv.splitlines()
        if len(rows) != doc["config"]["num_paths"] + 1:
            return f"simulate: {len(rows) - 1} sample rows"
        return ""
    doc = json.loads(stdout)
    exp = args["expect"]
    ref = reference(exp["kind"], exp["args"], refs)
    if abs(doc["value"] - ref) > tolerance(ref):
        return f"{cmd}: {doc['value']} off by {abs(doc['value'] - ref):.3e}"
    return ""


# ------------------------------------------------------------- statistics

#: a request counts as answered from a cache when it took less than this
#: share of the median time of the first requests for each key of its kind
CACHE_HIT_SHARE = 0.05


def cache_key(req: dict) -> tuple:
    """What a request's answer is cached under: gamma only rescales a
    moment or E M, so their key is the order and the contour."""
    args = {k: v for k, v in req["args"].items() if k != "gamma"}
    return req["kind"], json.dumps(args, sort_keys=True)


def cache_hit_share(requests: list, results: dict) -> float:
    """Share of requests answered in under CACHE_HIT_SHARE of the median
    time (`ms`) of the first-seen keys of the same kind in the pass."""
    seen, first = set(), {}
    for req in requests:
        if cache_key(req) not in seen:
            seen.add(cache_key(req))
            first.setdefault(req["kind"], []).append(results[req["id"]]["ms"])
    limit = {kind: CACHE_HIT_SHARE * statistics.median(ms) for kind, ms in first.items()}
    return statistics.fmean(results[r["id"]]["ms"] < limit[r["kind"]] for r in requests)


def percentile(samples: list, q: float, min_beyond: int = 10):
    """The q-quantile (0 < q < 1), or None when fewer than `min_beyond`
    samples lie beyond it."""
    if len(samples) < 2:
        return None
    value = statistics.quantiles(samples, n=100, method="inclusive")[round(q * 100) - 1]
    return value if sum(x > value for x in samples) >= min_beyond else None

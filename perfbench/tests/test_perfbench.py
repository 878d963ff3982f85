"""Tests of the benchmark's own logic: generators, statistics, checker.

Failures are exercised by feeding the checker fake results; the library
is never patched.  Run with ``python -m pytest perfbench/tests``.
"""
import json
import math
import os
from collections import Counter

import pytest

from perfbench import checks, clock, run, workloads

REFS = checks.load_references()

PASSES = {
    "contour": workloads.contour_pass,
    "contour_tails": workloads.tails_pass,
    "monte_carlo": workloads.monte_carlo_pass,
    "cli_cold": lambda seed: workloads.cli_pass(seed, "samples.csv"),
}


@pytest.mark.parametrize("name", sorted(PASSES))
def test_generator_is_deterministic_per_seed(name):
    gen = PASSES[name]
    assert json.dumps(gen(7)) == json.dumps(gen(7))
    assert json.dumps(gen(7)) != json.dumps(gen(8))


def test_contour_mix_is_fixed_across_seeds():
    for seed in range(5):
        reqs = workloads.contour_pass(seed)
        assert len(reqs) == 100
        assert Counter(r["kind"] for r in reqs) == Counter(workloads.CONTOUR_MIX)
        assert sorted(r["args"]["n"] for r in reqs if r["kind"] == "moment_quad") \
            == sorted(list(range(13)) * 2)


@pytest.mark.parametrize("seed", range(3))
def test_every_generated_input_has_a_reference(seed):
    for req in workloads.contour_pass(seed) + workloads.tails_pass(seed):
        if req["kind"] != "density_grid":
            assert math.isfinite(abs(checks.reference(req["kind"], req["args"], REFS)))


def test_p90_needs_ten_samples_beyond_it():
    assert checks.percentile(list(range(90)), 0.9) is None
    assert checks.percentile(list(range(100)), 0.9) == pytest.approx(89.1)
    assert checks.percentile(list(range(1000)), 0.9) is not None


def _quad_result(req, value, err=1e-12, error=None):
    return {"id": req["id"], "kind": req["kind"], "value": value, "err_estimate": err,
            "panels": 40, "error": error, "ms": 30.0}


def test_wrong_value_and_raised_error_are_counted_as_failed():
    reqs = workloads.contour_pass(0)[:3]
    right = checks.reference(reqs[0]["kind"], reqs[0]["args"], REFS)
    results = {
        reqs[0]["id"]: _quad_result(reqs[0], right),
        reqs[1]["id"]: _quad_result(reqs[1], 123.0),
        reqs[2]["id"]: _quad_result(reqs[2], None, error="NoConvergence: budget"),
    }
    statuses = [s for _, s, _ in run._quad_statuses(reqs, results, REFS)]
    assert statuses == [checks.OK, checks.WRONG, checks.ERROR]


def test_error_estimate_that_misses_the_reference_is_counted():
    req = {"id": 0, "kind": "moment_quad", "args": {"n": 2, "gamma": checks.GAMMA_C}}
    ref = REFS["moments"]["2"]
    status, _, under = checks.check_quad(req, _quad_result(req, ref + 1e-11, 1e-13), REFS)
    assert status == checks.OK and under


def test_nonzero_cli_exit_is_counted_as_failed():
    req = workloads.cli_pass(0, "samples.csv")[2]
    assert checks.check_cli(req["args"], 3, "", "", REFS)[0] == checks.ERROR
    good = json.dumps({"value": REFS["moments"]["12"]})
    assert checks.check_cli(req["args"], 0, good, "", REFS)[0] == checks.OK
    bad = json.dumps({"value": REFS["moments"]["12"] * (1 + 1e-7)})
    assert checks.check_cli(req["args"], 0, bad, "", REFS)[0] == checks.WRONG


def test_published_polynomials_are_checked():
    req = workloads.cli_pass(0, "samples.csv")[0]
    lines = [f"p_{n}(z) = 0" for n in range(61)]
    lines[2] = "p_2(z) = -1/3*z"
    assert checks.check_cli(req["args"], 0, "\n".join(lines), "", REFS)[0] == checks.WRONG
    assert "p_0" in checks.check_cli(req["args"], 0, "\n".join(lines), "", REFS)[1]


def _sums(x):
    return [sum(x), sum(v * v for v in x)]


def _fake_probe(n, shift=0.0):
    """Triangle sums of n (even) samples alternating 10% either side of
    the reference values, with fine and coarse sets equal."""
    def around(target):
        return [target + shift * (target != 0) + (-1) ** i * 0.1 * max(1.0, target)
                for i in range(n)]
    em = REFS["mean_max"]
    series = {"v": around(0.0), "v2": around(REFS["moments"]["2"]),
              "v4": around(REFS["moments"]["4"]), "m": around(em),
              "w": around(4.0 / 3.0 * em)}
    out = {"n": n}
    for tag in ("f", "c"):
        for k, x in series.items():
            out[f"{tag}.{k}"] = _sums(x)
        out[f"{tag}.wm"] = sum(a * b for a, b in zip(series["w"], series["m"]))
    for k in ("v2", "v4", "m"):
        out[f"d.{k}"] = [0.0, 0.0]
    return out


def test_triangle_accepts_matching_and_rejects_biased_samples():
    assert checks.triangle(_fake_probe(100), REFS) == []
    assert checks.triangle(_fake_probe(100, shift=1.0), REFS)


def _mc_fixture():
    reqs = workloads.monte_carlo_pass(0)
    results = {}
    for r in reqs:
        a = r["args"]
        res = {"id": r["id"], "kind": r["kind"], "error": None, "ms": 1.0}
        if r["kind"] == "estimate":
            res.update(value=0.5, stderr=0.01, recomputed=[0.5, 0.01])
        else:
            res["digest"] = f"{a['step']}-{a['seed']}-{a['paths']}"
            res["prefix_digests"] = {str(k): f"{a['step']}-{a['seed']}-{k}"
                                     for k in a.get("prefixes", [])}
            if r["kind"] == "discretization_probe":
                res["triangle"] = _fake_probe(a["paths"])
        results[r["id"]] = res
    return reqs, results


def test_monte_carlo_checks_pass_on_consistent_results():
    reqs, results = _mc_fixture()
    assert checks.check_monte_carlo(reqs, results, REFS) == []


def test_monte_carlo_prefix_mismatch_is_counted_as_failed():
    reqs, results = _mc_fixture()
    big = next(r for r in reqs if r["args"].get("prefixes") == [64, 256])
    results[big["id"]]["prefix_digests"]["64"] = "something else"
    statuses = run._mc_statuses(reqs, results, REFS)
    assert [rid for rid, s, _ in statuses if s == checks.WRONG] == [big["id"]]


def test_monte_carlo_probe_must_match_simulate():
    reqs, results = _mc_fixture()
    probe = next(r for r in reqs if r["kind"] == "discretization_probe"
                 and r["args"]["step"] == workloads.COARSE
                 and any(o["kind"] == "simulate" and o["args"]["seed"] == r["args"]["seed"]
                         for o in reqs))
    results[probe["id"]]["digest"] = "different"
    assert checks.check_monte_carlo(reqs, results, REFS)


def test_monte_carlo_pass_median_is_a_one_chunk_fine_simulation():
    reqs = workloads.monte_carlo_pass(3)
    # path-steps per request; estimates do no sampling
    work = sorted(0 if r["kind"] == "estimate" else
                  r["args"]["paths"] * 2 * round(r["args"]["horizon"] / r["args"]["step"])
                  * (1.2 if r["kind"] == "discretization_probe" else 1.0)
                  for r in reqs)
    mid = len(work) // 2
    assert work[mid - 1] == work[mid] == 256 * 8000


def _core(cpu, loops, seen):
    core = clock._Core(cpu)
    core.times = [float(i) for i in range(len(loops))]
    core.kernels = {k: [x * ref for x in loops] for k, ref in clock.REFERENCE_S.items()}
    core.seen = seen
    return core


def test_speedometer_scales_by_the_median_loop_time_in_the_window():
    speed = clock.Speedometer()          # not started: samples set by hand
    speed.cores = [_core(0, [1, 2, 2, 1, 50], [0] * 5)]
    assert speed.factor(0.9, 2.1) == pytest.approx(0.5)
    assert speed.factor(2.5, 2.6) == pytest.approx(1.0)     # next sample
    assert speed.factor(9.0, 9.5) == pytest.approx(1 / 50)  # last sample
    # one preempted sample does not move the median
    assert speed.factor(-1.0, 5.0) == pytest.approx(0.5)
    assert speed.factor(-1.0, 5.0, "numpy") == pytest.approx(0.5)


def test_speedometer_weights_the_cores_the_child_used():
    speed = clock.Speedometer()
    speed.cores = [_core(0, [1, 1, 1], [1, 1, 0]), _core(1, [2, 2, 2], [0, 0, 1])]
    assert speed.factor(0.0, 2.0) == pytest.approx((2 * 1.0 + 1 * 0.5) / 3)
    assert speed.factor(0.0, 0.5) == pytest.approx(1.0)
    speed.cores = [_core(0, [1, 1], [0, 0]), _core(1, [2, 2], [0, 0])]
    assert speed.factor(0.0, 1.0) == pytest.approx(0.75)    # never seen: alike


def test_bench_scales_by_the_geometric_mean_of_its_kernels():
    speed = clock.Speedometer()
    speed.cores = [_core(0, [1, 1], [1, 1])]
    speed.cores[0].kernels["numpy"] = [4 * clock.REFERENCE_S["numpy"]] * 2
    bench = run.Bench({}, speed, kernels=("python", "numpy"))
    assert bench.factor(0.0, 1.0) == pytest.approx(0.5)
    assert bench.scaled(0.0, 1.0) == pytest.approx(0.5)
    assert run.Bench({}, speed, kernels=("numpy",)).factor(0.0, 1.0) == pytest.approx(0.25)


def test_threads_on_reads_this_process():
    allowed = os.sched_getaffinity(0)
    cpu = min(allowed)
    os.sched_setaffinity(0, {cpu})
    try:
        assert clock._threads_on(os.getpid(), cpu) >= 1     # this thread runs
    finally:
        os.sched_setaffinity(0, allowed)
    assert clock._threads_on(None, cpu) == 0


def test_cache_hit_share_is_relative_to_first_seen_keys():
    reqs = [{"id": i, "kind": k, "args": a} for i, (k, a) in enumerate([
        ("moment_quad", {"n": 2, "gamma": 1.0}),
        ("moment_quad", {"n": 3, "gamma": 1.0}),
        ("moment_quad", {"n": 2, "gamma": 2.0}),      # same key as request 0
        ("density", {"x": 1.0}),
    ])]
    ms = {0: 0.4, 1: 0.6, 2: 0.01, 3: 0.3}
    results = {i: {"ms": v} for i, v in ms.items()}
    # uncached requests far under 1 ms still count as misses
    assert checks.cache_hit_share(reqs, results) == pytest.approx(0.25)


def test_monte_carlo_pass_sends_a_documented_size_run():
    fine = [r["args"]["paths"] for r in workloads.monte_carlo_pass(0)
            if r["kind"] == "simulate" and r["args"]["step"] == workloads.FINE]
    assert max(fine) == 10_000

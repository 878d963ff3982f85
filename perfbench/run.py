"""Benchmark of the chernoff package: one command, every workload.

    python3 perfbench/run.py --workload contour --seed 1 --seconds 20 --trace 0

Run it from the repository root (any checkout with ``src/chernoff``).  A
run repeats passes of the workload (see workloads.py), each in a fresh
interpreter, until ``--seconds`` are used, checks every answer against
frozen references, and prints a table of metrics followed by one JSON
line: ``{"correct", "attempted", "failed", "metrics"}``.  Children may
use every core the run is allowed, and end-to-end times are in reference
seconds (clock.py): each time is scaled by how fast the cores the child
ran on ran fixed kernels meanwhile (a Python loop for contour, numpy
for monte_carlo, both for cli_cold), so that other tenants' load cancels
out.

``--trace 0`` reports the end-to-end metrics of untraced passes.
``--trace 1`` alternates untraced and traced passes (their difference is
the tracing overhead), then runs the layer suite, which times every layer
through its public functions under spans, and reports the per-layer
metrics in plain seconds, with the median kernel times as
``clock.{python,numpy}_us`` and the workload's unscaled wall time as
``clock.raw_wall_s``; the spans are written to ``perfbench/out/`` at exit.
``--workload all`` runs every workload in turn, the suite once.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import checks, clock, workloads  # noqa: E402
from perfbench.trace import Tracer, duration_s, self_times  # noqa: E402

SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(ROOT)]))
CHILD_TIMEOUT = 170.0
SETUP_REPEATS = 11
WORKLOADS = ("contour", "contour_tails", "monte_carlo", "cli_cold")
#: the speed kernels (clock.py) whose speed tracks each workload's own times
#: best over the host's slow and fast phases (measured: README.md)
KERNELS = {"contour": ("python",), "contour_tails": ("python",),
           "monte_carlo": ("numpy",), "cli_cold": ("python", "numpy")}
LAYERS = ("bench", "airy", "moments", "algebra", "simulate", "cli")
QUAD_KINDS = ("moment_quad", "mean_max_quad", "char_fn_quad", "mgf_quad")
CLI_COMMANDS = ("polys", "verify", "moment", "cf", "mgf", "mean-max", "density", "simulate")
END_TO_END = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}
PER_LAYER = {
    **{f"airy.ai_us.{r}": "us" for r in workloads.AIRY_POINTS},
    **{f"moments.{k}.ms": "ms" for k in QUAD_KINDS + ("density",)},
    **{f"moments.{k}.panels": "count" for k in QUAD_KINDS},
    "moments.cache_hit_share": "share",
    "moments.err_underestimates": "count",
    "moments.tails.fail_ms": "ms",
    "moments.tails.failed": "count",
    "moments.density_grid.cold_ms": "ms",
    "moments.density_grid.warm_ms": "ms",
    "moments.identity_suite.ms": "ms",
    "algebra.verify_conjectures.cold_s": "s",
    "simulate.simulate.s": "s",
    "simulate.discretization_probe.s": "s",
    "simulate.estimate.ms": "ms",
    "simulate.ns_per_path_step": "ns",
    **{f"cli.{c}.s": "s" for c in CLI_COMMANDS},
    "cli.import_s": "s",
    **{f"self_s.{layer}": "s" for layer in LAYERS},
    "trace.overhead_pct": "%",
    **{f"clock.{k}_us": "us" for k in clock.REFERENCE_S},
    "clock.raw_wall_s": "s",
}


class BenchError(Exception):
    """The benchmark itself could not run."""


# ------------------------------------------------------------- processes

@dataclass
class Bench:
    """What every measurement of a run shares."""
    refs: dict
    speed: clock.Speedometer
    kernels: tuple = ("python",)

    def factor(self, t0: float, t1: float) -> float:
        """Reference seconds per measured second over [t0, t1]: the
        geometric mean of the kernels' factors (clock.py)."""
        return statistics.geometric_mean(self.speed.factor(t0, t1, k) for k in self.kernels)

    def scaled(self, t0: float, t1: float) -> float:
        """Seconds between two clock readings, at reference speed."""
        return (t1 - t0) * self.factor(t0, t1)


def _communicate(bench: Bench, argv: list, job: str = "") -> tuple[int, str, str]:
    """Run a child to its end, watching where it runs (clock.py)."""
    with subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, env=ENV, cwd=ROOT) as p:
        with bench.speed.watching(p.pid):
            try:
                out, err = p.communicate(job, timeout=CHILD_TIMEOUT)
            except subprocess.TimeoutExpired:
                p.kill()
                p.communicate()
                raise
    return p.returncode, out, err


def run_import(bench: Bench, module: str) -> None:
    """A fresh interpreter that imports `module` and exits."""
    rc, _, err = _communicate(bench, [sys.executable, "-c", f"import {module}"])
    if rc != 0:
        raise BenchError(f"import {module} exited {rc}:\n{err[-3000:]}")


def setup_seconds(bench: Bench) -> float:
    """Process start until `import chernoff` has finished."""
    t0 = time.perf_counter()
    run_import(bench, "chernoff")
    return bench.scaled(t0, time.perf_counter())


def run_worker(bench: Bench, requests: list, trace: bool, origin: str) -> dict:
    job = json.dumps({"src": str(SRC), "trace": trace, "origin": origin,
                      "requests": requests})
    rc, out, err = _communicate(bench, [sys.executable, "-m", "perfbench.worker"], job)
    if rc != 0:
        raise BenchError(f"worker exited {rc}:\n{err[-3000:]}")
    return json.loads(out.splitlines()[-1])


def run_cli(bench: Bench, argv: list) -> tuple[int, str, float, float, int]:
    """(exit code, stdout, start, end, peak RSS in KiB) of one fresh CLI
    process."""
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / "cli.stdout", "w+") as out, open(OUT / "cli.stderr", "w") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen([sys.executable, "-m", "chernoff.cli", *argv],
                             stdout=out, stderr=err, env=ENV, cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT, p.kill)
        timer.start()
        try:
            with bench.speed.watching(p.pid):
                _, status, usage = os.wait4(p.pid, 0)
        finally:
            timer.cancel()
        t1 = time.perf_counter()
        p.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        return p.returncode, out.read(), t0, t1, usage.ru_maxrss


# ------------------------------------------------------------- passes

@dataclass
class Pass:
    statuses: list            # (request id, status, detail)
    latencies_ms: list        # per request, in reference time (clock.py)
    raw_ms: list              # per request, as measured
    rss_kb: int


def _quad_statuses(requests, results, refs):
    out = []
    for req in requests:
        res = results[req["id"]]
        if req["kind"] == "density_grid" and not res["error"]:
            detail = checks.check_density_grid(req["args"], res, refs)
            out.append((req["id"], checks.WRONG if detail else checks.OK, detail))
        else:
            status, detail, _ = checks.check_quad(req, res, refs)
            out.append((req["id"], status, detail))
    return out


def _mc_statuses(requests, results, refs):
    bad = {}
    for rid, detail in checks.check_monte_carlo(requests, results, refs):
        bad.setdefault(rid, detail)
    out = []
    for req in requests:
        res = results[req["id"]]
        if res["error"]:
            out.append((req["id"], checks.ERROR, res["error"]))
        elif req["id"] in bad:
            out.append((req["id"], checks.WRONG, bad[req["id"]]))
        else:
            out.append((req["id"], checks.OK, ""))
    return out


def worker_pass(requests, check, bench: Bench, tracer, origin) -> Pass:
    out = run_worker(bench, requests, tracer.enabled, origin)
    tracer.spans.extend(out["spans"])
    results = {r["id"]: r for r in out["results"]}
    return Pass(check(requests, results, bench.refs),
                [r["ms"] * bench.factor(r["t0"], r["t1"]) for r in out["results"]],
                [r["ms"] for r in out["results"]], out["maxrss_kb"])


def cli_pass(requests, bench: Bench, tracer) -> Pass:
    statuses, lat, raw, rss = [], [], [], 0
    samples = OUT / "cli_samples.csv"
    for req in requests:
        with tracer.span(f"cli.{req['args']['argv'][0]}", req["id"]):
            rc, stdout, t0, t1, rss_kb = run_cli(bench, req["args"]["argv"])
        csv = samples.read_text() if req["args"]["argv"][0] == "simulate" and rc == 0 else ""
        status, detail = checks.check_cli(req["args"], rc, stdout, csv, bench.refs)
        statuses.append((req["id"], status, detail))
        lat.append(bench.scaled(t0, t1) * 1e3)
        raw.append((t1 - t0) * 1e3)
        rss = max(rss, rss_kb)
    return Pass(statuses, lat, raw, rss)


def one_pass(workload: str, seed: int, bench: Bench, tracer: Tracer, origin: str) -> Pass:
    if workload == "contour":
        return worker_pass(workloads.contour_pass(seed), _quad_statuses, bench, tracer, origin)
    if workload == "contour_tails":
        return worker_pass(workloads.tails_pass(seed), _quad_statuses, bench, tracer, origin)
    if workload == "monte_carlo":
        return worker_pass(workloads.monte_carlo_pass(seed), _mc_statuses, bench, tracer, origin)
    samples = str((OUT / "cli_samples.csv").relative_to(ROOT))
    return cli_pass(workloads.cli_pass(seed, samples), bench, tracer)


# ------------------------------------------------------------- a run

@dataclass
class Outcome:
    metrics: dict
    info: dict
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)


def run_stream(workload: str, seed: int, seconds: float, bench: Bench,
               tracer: Tracer) -> Outcome:
    """Closed loop of passes until `seconds` are used.  With a live tracer,
    every second pass is traced; end-to-end figures use the others."""
    bench = replace(bench, kernels=KERNELS[workload])
    by_request = {False: [], True: []}      # traced? -> per-pass latencies
    raw = []                                # untraced, unscaled
    rss, problems = 0, []
    attempted = failed = 0
    quiet = Tracer(False)
    t0 = time.perf_counter()
    spent = []
    k = 0
    while True:
        traced = tracer.enabled and k % 2 == 1
        start = time.perf_counter()
        p = one_pass(workload, seed, bench, tracer if traced else quiet, f"{workload}.{k}")
        spent.append(time.perf_counter() - start)
        k += 1
        by_request[traced].append(p.latencies_ms)
        if not traced:
            raw.append(p.raw_ms)
        rss = max(rss, p.rss_kb)
        attempted += len(p.statuses)
        for rid, status, detail in p.statuses:
            if status != checks.OK:
                failed += 1
                problem = f"{workload} request {rid}: {detail}"
                if status == checks.WRONG and problem not in problems:
                    problems.append(problem)
        elapsed = time.perf_counter() - t0
        if k >= (2 if tracer.enabled else 1) and elapsed + statistics.median(spent) > seconds:
            break
    # every pass sends the same requests: take each request's median over
    # passes, so one slow pass cannot move the figures
    typical = {t: [statistics.median(x) for x in zip(*v)] for t, v in by_request.items() if v}
    wall = sum(typical[False]) / 1e3
    samples = [x for lat in by_request[False] for x in lat]
    metrics = {"wall_s": wall, "op_p50_ms": statistics.median(typical[False]),
               "peak_rss_mb": rss / 1024.0}
    info = {"passes": k, "failed_frac": failed / attempted,
            "op_p90_ms": checks.percentile(samples, 0.9), "latency_samples": len(samples),
            "clock.raw_wall_s": sum(statistics.median(x) for x in zip(*raw)) / 1e3}
    if tracer.enabled:
        info["trace.overhead_pct"] = 100.0 * (sum(typical[True]) / 1e3 - wall) / wall
    return Outcome(metrics, info, attempted, failed, problems)


def _spans(tracer, since, name):
    return [s for s in tracer.spans[since:] if s["name"] == name]


def layer_suite(seed: int, bench: Bench, tracer: Tracer) -> Outcome:
    """Every per-layer metric, each from a fresh interpreter and its spans."""
    refs = bench.refs
    m, problems = {}, []
    since = len(tracer.spans)

    def worker(requests, origin):
        out = run_worker(bench, requests, True, f"suite.{origin}")
        tracer.spans.extend(out["spans"])
        return {r["id"]: r for r in out["results"]}

    reqs = workloads.airy_requests()
    res = worker(reqs, "airy")
    for req in reqs:
        regime = req["args"]["regime"]
        us = [duration_s(s) * 1e6 for s in _spans(tracer, since, "airy.airy_ai")
              if s["request"] == req["id"]]
        m[f"airy.ai_us.{regime}"] = statistics.fmean(us)
        problems.append(checks.check_airy(regime, res[req["id"]], refs))

    reqs = workloads.contour_pass(seed)
    mark = len(tracer.spans)
    res = worker(reqs, "contour")
    under = 0
    for req in reqs:
        status, detail, too_small = checks.check_quad(req, res[req["id"]], refs)
        under += too_small
        if status != checks.OK:
            problems.append(detail)
    for kind in QUAD_KINDS + ("density",):
        ms = [duration_s(s) * 1e3 for s in _spans(tracer, mark, f"moments.{kind}")]
        m[f"moments.{kind}.ms"] = statistics.fmean(ms)
        if kind != "density":
            m[f"moments.{kind}.panels"] = statistics.fmean(
                r["panels"] for r in res.values() if r["kind"] == kind)
    m["moments.cache_hit_share"] = checks.cache_hit_share(reqs, res)
    m["moments.err_underestimates"] = under

    reqs = workloads.tails_probe_requests()
    res = worker(reqs, "tails")
    m["moments.tails.fail_ms"] = statistics.median(r["ms"] for r in res.values())
    m["moments.tails.failed"] = sum(bool(r["error"]) for r in res.values())
    for req in reqs:
        status, detail, _ = checks.check_quad(req, res[req["id"]], refs)
        if status == checks.WRONG:
            problems.append(detail)

    grid = workloads.density_grid_args(workloads.CANONICAL_GAMMA, 3.0, 0.001)
    reqs = [{"id": i, "kind": "density_grid", "args": grid} for i in range(2)]
    res = worker(reqs, "density_grid")
    m["moments.density_grid.cold_ms"] = res[0]["ms"]
    m["moments.density_grid.warm_ms"] = res[1]["ms"]
    problems += [checks.check_density_grid(grid, r, refs) for r in res.values()]

    res = worker([{"id": 0, "kind": "identity_suite", "args": {}}], "identity")
    m["moments.identity_suite.ms"] = res[0]["ms"]
    problems += [f"identity failed: {name}" for name in res[0]["failed"]]

    res = worker([{"id": 0, "kind": "verify_conjectures", "args": {"max_n": 100}}], "algebra")
    m["algebra.verify_conjectures.cold_s"] = res[0]["ms"] / 1e3
    if not res[0]["all_ok"]:
        problems.append("verify_conjectures(100) reports a failure")

    cfg = {"step": workloads.FINE, "horizon": workloads.HORIZON, "paths": 512,
           "seed": seed % 2**31 + 1}
    reqs = [{"id": 0, "kind": "simulate", "args": cfg},
            {"id": 1, "kind": "discretization_probe", "args": cfg},
            *[{"id": 2 + i, "kind": "estimate", "args": {"statistic": s, **x}}
              for i, (s, x) in enumerate([("v_moment", {"order": 2}), ("m_mean", {}),
                                          ("w_at_argmax_mean", {}), ("cos_v", {"t": 1.0})])]]
    res = worker(reqs, "simulate")
    m["simulate.simulate.s"] = res[0]["ms"] / 1e3
    m["simulate.discretization_probe.s"] = res[1]["ms"] / 1e3
    m["simulate.estimate.ms"] = statistics.median(res[i]["ms"] for i in range(2, 6))
    steps = 2 * round(cfg["horizon"] / cfg["step"])
    m["simulate.ns_per_path_step"] = res[0]["ms"] * 1e6 / (cfg["paths"] * steps)
    problems += [d for _, d in checks.check_monte_carlo(reqs, res, refs)]

    mark = len(tracer.spans)
    samples = str((OUT / "cli_samples.csv").relative_to(ROOT))
    p = cli_pass(workloads.cli_pass(seed, samples), bench, tracer)
    problems += [d for _, status, d in p.statuses if status != checks.OK]
    for c in CLI_COMMANDS:
        m[f"cli.{c}.s"] = sum(duration_s(s) for s in _spans(tracer, mark, f"cli.{c}"))
    for _ in range(3):
        with tracer.span("cli.import"):
            run_import(bench, "chernoff.cli")
    m["cli.import_s"] = statistics.median(
        duration_s(s) for s in _spans(tracer, mark, "cli.import"))

    for k in clock.REFERENCE_S:
        m[f"clock.{k}_us"] = bench.speed.kernel_s(k) * 1e6
    own = self_times(tracer.spans[since:])
    for layer in LAYERS:
        m[f"self_s.{layer}"] = own.get(layer, 0.0)
    return Outcome(m, {}, problems=[p for p in problems if p])


# ------------------------------------------------------------- output

def _row(name: str, value, unit: str) -> str:
    shown = "n/a (fewer than 10 samples beyond it)" if value is None else f"{value:.6g}"
    return f"  {name:<36} {shown:>14} {unit}"


def report(workload: str, setup: float, stream: Outcome) -> None:
    print(f"{workload}: {stream.info['passes']} passes, {stream.attempted} requests, "
          f"{stream.info['latency_samples']} untraced latency samples")
    print(_row("setup_s", setup, "s"))
    for name, value in stream.metrics.items():
        print(_row(name, value, END_TO_END[name]))
    print(_row("op_p90_ms", stream.info["op_p90_ms"], "ms"))
    print(_row("failed_frac", stream.info["failed_frac"], "share"))
    print(_row("clock.raw_wall_s", stream.info["clock.raw_wall_s"], "s"))
    if "trace.overhead_pct" in stream.info:
        print(_row("trace.overhead_pct", stream.info["trace.overhead_pct"], "%"))
    for p in stream.problems[:20]:
        print(f"  WRONG {p}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "chernoff" / "__init__.py").is_file():
        print(f"no chernoff sources under {SRC}", file=sys.stderr)
        return 2

    tracer = Tracer(bool(args.trace))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        with clock.Speedometer() as speed:
            bench = Bench(checks.load_references(), speed)
            setup = statistics.median(setup_seconds(bench) for _ in range(SETUP_REPEATS))
            streams = {}
            for w in names:
                streams[w] = run_stream(w, args.seed, args.seconds, bench, tracer)
                report(w, setup, streams[w])
            suite = layer_suite(args.seed, bench, tracer) if args.trace else None
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    problems = [p for s in streams.values() for p in s.problems]
    if suite:
        problems += suite.problems
        suite.metrics["trace.overhead_pct"] = statistics.median(
            s.info["trace.overhead_pct"] for s in streams.values())
        suite.metrics["clock.raw_wall_s"] = sum(
            s.info["clock.raw_wall_s"] for s in streams.values())
        print("per layer:")
        for name, unit in PER_LAYER.items():
            print(_row(name, suite.metrics[name], unit))
        for p in suite.problems:
            print(f"  WRONG {p}")
        tracer.write(OUT / f"trace-{args.workload}-{args.seed}.json")
        metrics = {n: {"value": suite.metrics[n], "unit": u} for n, u in PER_LAYER.items()}
    else:
        metrics = {}
        for w, s in streams.items():
            prefix = "" if len(names) == 1 else f"{w}."
            metrics[prefix + "setup_s"] = {"value": setup, "unit": "s"}
            for n, v in s.metrics.items():
                metrics[prefix + n] = {"value": v, "unit": END_TO_END[n]}
    print(json.dumps({"correct": not problems,
                      "attempted": sum(s.attempted for s in streams.values()),
                      "failed": sum(s.failed for s in streams.values()),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

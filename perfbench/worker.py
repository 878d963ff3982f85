"""Run one pass of requests against a freshly imported library.

Started as ``python -m perfbench.worker`` with the checkout's ``src`` and
root on PYTHONPATH.  Reads a job (JSON on stdin), sends each request in
turn to the public chernoff API, and writes one JSON line to stdout: per
request its latency with the clock readings around it (see clock.py)
and what the checker needs (value, error estimate, panels, or
digests and sums of sample sets), then the process's peak RSS and, when
tracing, its spans.  A ChernoffError is
recorded against its request and the pass goes on.
"""
from __future__ import annotations

import hashlib
import json
import math
import resource
import sys
import time
from pathlib import Path

import numpy as np

import chernoff
from chernoff import ChernoffError

from perfbench.trace import Tracer
from perfbench.workloads import AIRY_POINTS

# chernoff.simulate is the function; the module is only reachable this way
sm = sys.modules["chernoff.simulate"]

AIRY_TARGET = 1e300


def _spec(a):
    return chernoff.ContourSpec(sigma=a["sigma"]) if "sigma" in a else None


def _quad(q):
    v = q.value
    return {"value": [v.real, v.imag] if isinstance(v, complex) else v,
            "err_estimate": q.err_estimate, "panels": q.panels_used}


def _digest(s, k=None):
    h = hashlib.sha256()
    for arr in (s.v, s.m, s.w_at_argmax):
        h.update(np.ascontiguousarray(arr[:k]).tobytes())
    return h.hexdigest()[:32]


def _sums(x):
    return [float(np.sum(x)), float(np.sum(x * x))]


def _triangle_sums(fine, coarse):
    """Pooled sums for the Monte Carlo triangle: per series the sum and
    sum of squares, plus the cross sums the W/M ratio needs."""
    out = {"n": int(fine.v.shape[0])}
    for tag, s in (("f", fine), ("c", coarse)):
        out[f"{tag}.v"] = _sums(s.v)
        out[f"{tag}.v2"] = _sums(s.v ** 2)
        out[f"{tag}.v4"] = _sums(s.v ** 4)
        out[f"{tag}.m"] = _sums(s.m)
        out[f"{tag}.w"] = _sums(s.w_at_argmax)
        out[f"{tag}.wm"] = float(np.sum(s.w_at_argmax * s.m))
    out["d.v2"] = _sums(fine.v ** 2 - coarse.v ** 2)
    out["d.v4"] = _sums(fine.v ** 4 - coarse.v ** 4)
    out["d.m"] = _sums(fine.m - coarse.m)
    return out


def _samples(s, a):
    out = {"digest": _digest(s)}
    if a.get("prefixes"):
        out["prefix_digests"] = {str(k): _digest(s, k) for k in a["prefixes"]}
    return out


def _cfg(a):
    return sm.SimConfig(gamma=1.0 / math.sqrt(2.0), horizon=a["horizon"],
                        step=a["step"], num_paths=a["paths"], seed=a["seed"])


def _estimate_values(s, a):
    """The statistic's sample mean and standard error, recomputed here."""
    stat = a["statistic"]
    x = {"v_moment": lambda: s.v ** a.get("order", 0),
         "m_mean": lambda: s.m,
         "w_at_argmax_mean": lambda: s.w_at_argmax,
         "cos_v": lambda: np.cos(a.get("t", 0.0) * s.v)}[stat]()
    return float(np.mean(x)), float(np.std(x, ddof=1) / math.sqrt(x.shape[0]))


class Pass:
    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.busy = 0.0           # seconds inside library calls, this request
        self.last = None          # most recent sample set, for estimate

    def call(self, name, rid, fn):
        """Time one library call and record it as a span."""
        start = time.perf_counter()
        try:
            with self.tracer.span(name, rid):
                return fn()
        finally:
            self.busy += time.perf_counter() - start

    # One handler per request kind: the library call(s), then what the
    # checker needs from the answer.

    def moment_quad(self, a, rid):
        return _quad(self.call("moments.moment_quad", rid, lambda: chernoff.moment_quad(
            a["n"], a["gamma"], _spec(a))))

    def mean_max_quad(self, a, rid):
        return _quad(self.call("moments.mean_max_quad", rid,
                               lambda: chernoff.mean_max_quad(a["gamma"])))

    def char_fn_quad(self, a, rid):
        return _quad(self.call("moments.char_fn_quad", rid,
                               lambda: chernoff.char_fn_quad(a["t"], _spec(a))))

    def mgf_quad(self, a, rid):
        return _quad(self.call("moments.mgf_quad", rid, lambda: chernoff.mgf_quad(a["t"])))

    def density(self, a, rid):
        return {"value": self.call("moments.density", rid, lambda: chernoff.density(a["x"]))}

    def density_grid(self, a, rid):
        k = round(a["u_max"] / a["du"])
        u = a["du"] * np.arange(-k, k + 1)
        xs = a["scale"] * u
        f = self.call("moments.density_grid", rid,
                      lambda: chernoff.density_grid(xs, a["gamma"]))
        on_menu = np.abs(u * 8 - np.round(u * 8)) < 1e-9
        near = on_menu & (np.abs(u) <= 5.0)
        far = np.abs(u) > 5.0
        return {"u": u[near].tolist(), "f": f[near].tolist(),
                "far_max": float(np.max(np.abs(f[far]))) if far.any() else 0.0,
                "mass": float(np.sum(f) * a["scale"] * a["du"])}

    def identity_suite(self, a, rid):
        checks = self.call("moments.identity_suite", rid, chernoff.identity_suite)
        return {"failed": [c.name for c in checks if not c.passed]}

    def verify_conjectures(self, a, rid):
        report = self.call("algebra.verify_conjectures", rid,
                           lambda: chernoff.verify_conjectures(a["max_n"]))
        return {"all_ok": bool(report.all_ok)}

    def airy_ai(self, a, rid):
        pts = [complex(re, im) for re, im in AIRY_POINTS[a["regime"]]]
        for _ in range(a["repeats"]):
            vals = []
            for z in pts:
                ev = self.call("airy.airy_ai", rid, lambda: chernoff.airy_ai(z, AIRY_TARGET))
                vals.append([ev.ai.real, ev.ai.imag])
        return {"value": vals, "calls": len(pts) * a["repeats"]}

    def simulate(self, a, rid):
        cfg = _cfg(a)
        self.last = self.call("simulate.simulate", rid, lambda: sm.simulate(cfg))
        return _samples(self.last, a)

    def discretization_probe(self, a, rid):
        cfg = _cfg(a)
        fine, coarse = self.call("simulate.discretization_probe", rid,
                                 lambda: sm.discretization_probe(cfg))
        self.last = fine
        return {**_samples(fine, a), "triangle": _triangle_sums(fine, coarse)}

    def estimate(self, a, rid):
        extra = {k: a[k] for k in ("order", "t") if k in a}
        est = self.call("simulate.estimate", rid,
                        lambda: sm.estimate(self.last, a["statistic"], **extra))
        return {"value": est.value, "stderr": est.stderr,
                "recomputed": list(_estimate_values(self.last, a))}

    def run(self, requests):
        """Send the requests in order; per request, `ms` is the time spent
        inside library calls, between the clock readings `t0` and `t1`."""
        results = []
        for req in requests:
            res = {"id": req["id"], "kind": req["kind"], "error": None,
                   "t0": time.perf_counter()}
            self.busy = 0.0
            with self.tracer.span("bench.request", req["id"]):
                try:
                    res.update(getattr(self, req["kind"])(req["args"], req["id"]))
                except ChernoffError as exc:
                    res["error"] = f"{type(exc).__name__}: {exc}"
            res["ms"] = self.busy * 1e3
            res["t1"] = time.perf_counter()
            results.append(res)
        return results


def main() -> int:
    job = json.loads(sys.stdin.read())
    src = Path(job["src"]).resolve()
    if src not in Path(chernoff.__file__).resolve().parents:
        print(f"chernoff imported from {chernoff.__file__}, not {src}", file=sys.stderr)
        return 2
    tracer = Tracer(job["trace"], job["origin"])
    results = Pass(tracer).run(job["requests"])
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"results": results, "maxrss_kb": rss_kb, "spans": tracer.spans}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

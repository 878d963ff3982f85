"""Print a sha256 of every quadrature request stream in a fixed list, and one overall.

The streams are the benchmark's seeded passes from perfbench/workloads.py:
`contour_pass` seeds 1-10, then `tails_pass` seeds 1-3; then this file's
`off_grid_pass(1)`, 40 cf at t drawn from (0, 6) and 10 mgf at -1 + i u,
u drawn from (0, 6), whose shifted tables lie off every step's grid, so
the node store gathers them and keeps none.  All are sent in that order to one process,
so each later pass reads the node store and the caches that the earlier
ones left, as a long session does.  A stream's digest covers, per
request, its kind and arguments, then the bytes of the value (real and
imaginary part), err_estimate and panels_used of a QuadResult, of a
density value or of a density table, or the type and
message of a ChernoffError.  Two checkouts whose quadratures agree bit for
bit print the same overall digest on one machine; numeric bits depend on
the numpy build, so digests from different machines may differ.

    python3 tests/quad_golden.py

The name keeps pytest from collecting it.  It imports the package from the
src/ directory of the checkout it sits in, and only reads the request
streams from perfbench.  It takes a few seconds.
"""
from __future__ import annotations

import hashlib
import json
import random
import struct
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

import chernoff  # noqa: E402
from perfbench.workloads import contour_pass, tails_pass  # noqa: E402


def off_grid_pass(seed: int) -> list:
    """40 cf at t drawn from (0, 6), then 10 mgf at -1 + i u, u drawn from (0, 6)."""
    rng = random.Random(f"off_grid:{seed}")
    return ([{"kind": "char_fn_quad", "args": {"t": rng.uniform(0.0, 6.0)}} for _ in range(40)]
            + [{"kind": "mgf_quad", "args": {"t": -1.0, "t_im": rng.uniform(0.0, 6.0)}}
               for _ in range(10)])


STREAMS = ([(f"contour_pass({seed})", contour_pass(seed)) for seed in range(1, 11)]
           + [(f"tails_pass({seed})", tails_pass(seed)) for seed in range(1, 4)]
           + [("off_grid_pass(1)", off_grid_pass(1))])


def _contour(a):
    return chernoff.ContourSpec(sigma=a["sigma"]) if "sigma" in a else None


def _grid(a):
    """The density table's abscissae, as the benchmark builds them."""
    k = round(a["u_max"] / a["du"])
    return chernoff.density_grid(a["scale"] * (a["du"] * np.arange(-k, k + 1)), a["gamma"])


CALLS = {
    "moment_quad": lambda a: chernoff.moment_quad(a["n"], a["gamma"], _contour(a)),
    "mean_max_quad": lambda a: chernoff.mean_max_quad(a["gamma"]),
    "char_fn_quad": lambda a: chernoff.char_fn_quad(a["t"], _contour(a)),
    "mgf_quad": lambda a: chernoff.mgf_quad(complex(a["t"], a.get("t_im", 0.0))),
    "density": lambda a: chernoff.density(a["x"]),
    "density_grid": _grid,
}


def answer(req: dict) -> bytes:
    """The bytes that one request's answer, or its refusal, contributes."""
    try:
        got = CALLS[req["kind"]](req["args"])
    except chernoff.ChernoffError as exc:
        return f"{type(exc).__name__}: {exc}".encode()
    if isinstance(got, chernoff.QuadResult):
        v = complex(got.value)
        return struct.pack("<dddq", v.real, v.imag, got.err_estimate, got.panels_used)
    return np.asarray(got, dtype=float).tobytes()


def golden() -> None:
    overall = hashlib.sha256()
    for name, reqs in STREAMS:
        h = hashlib.sha256()
        for req in reqs:
            h.update(json.dumps([req["kind"], req["args"]], sort_keys=True).encode())
            h.update(answer(req))
        overall.update(h.hexdigest().encode())
        print(f"{h.hexdigest()}  {len(reqs):3d}  {name}")
    print(f"overall {overall.hexdigest()}  ({len(STREAMS)} streams)")


if __name__ == "__main__":
    golden()

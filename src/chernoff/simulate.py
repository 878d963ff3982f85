"""Monte Carlo oracle: direct simulation of argmax(W(t) - gamma t^2).

Two-sided Brownian paths on a symmetric grid t = i h, |i| <= N, built from
per-path counter-based generators (Philox keyed by (seed, path_index)), so
path p is bit-identical no matter how paths are batched or distributed.
Paths are built in blocks of about 2 MiB of grid values, sized to stay in
a core's L2 cache, and the blocks run on a thread pool with one worker per
core (the normal fills and array passes release the interpreter lock);
results are read back in block order, so the samples are the same for any
block size and any number of workers.
The argmax is taken over the grid with ties resolved toward the smallest
|t| (then the smaller t); the sampling error is what `estimate` reports,
while the O(h^{1/2})-to-O(h) discretization bias is measured, not assumed,
by `discretization_probe`, which re-extracts the argmax of the same paths
on the twice-coarser subgrid.
"""
from __future__ import annotations

import dataclasses
import json
import math
import os
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .algebra import _order
from .errors import OverflowDomain, UnknownStatistic
from .moments import CANONICAL_GAMMA, _is_real

_BLOCK_BYTES = 2 * 2**20  # grid values per block: about one core's L2
_BOUNDARY_MARGIN = 0.5
_BOUNDARY_FRACTION = 1e-4


@dataclass(frozen=True)
class SimConfig:
    gamma: float = CANONICAL_GAMMA
    horizon: float = 4.0
    step: float = 1e-3
    num_paths: int = 100_000
    seed: int = 0

    def __post_init__(self):
        if not (_is_real(self.gamma) and self.gamma > 0):
            raise ValueError("gamma must be a positive real")
        if not (_is_real(self.horizon) and self.horizon > 0):
            raise ValueError("horizon must be a positive real")
        if not (_is_real(self.step) and 0 < self.step <= self.horizon):
            raise ValueError("step must lie in (0, horizon]")
        if isinstance(self.num_paths, bool) or not isinstance(self.num_paths, int) \
                or self.num_paths < 1:
            raise ValueError("num_paths must be a positive integer")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int) \
                or not 0 <= self.seed < 2**63:
            raise ValueError("seed must be an integer in [0, 2^63)")
        ratio = self.horizon / self.step
        if abs(ratio - round(ratio)) > 1e-9 * ratio:
            raise ValueError("horizon must be an integer multiple of step")
        if self.steps_per_side < 2:
            raise ValueError("horizon/step must give at least 2 grid steps per side")

    @property
    def steps_per_side(self) -> int:
        return int(round(self.horizon / self.step))


@dataclass(frozen=True)
class SampleSet:
    """Per-path (V, M, W at the argmax) triples plus the generating config."""

    v: np.ndarray
    m: np.ndarray
    w_at_argmax: np.ndarray
    config: SimConfig

    @property
    def num_paths(self) -> int:
        return self.v.shape[0]


@dataclass(frozen=True)
class EstimateResult:
    value: float
    stderr: float
    num_paths: int


def _workers() -> int:
    """One worker thread per core this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _tie_break_order(t: np.ndarray) -> np.ndarray:
    # column visit order: smallest |t| first, negative before positive
    return np.lexsort((t, np.abs(t)))


def _pick_argmax(y: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Row-wise argmax with ties resolved by the given column order.

    Only rows whose maximum occurs more than once are reordered.
    """
    pick = np.argmax(y, axis=1)
    mx = y[np.arange(y.shape[0]), pick]
    tied = np.flatnonzero(np.count_nonzero(y == mx[:, None], axis=1) > 1)
    if tied.size:
        hits = y[tied][:, order] == mx[tied, None]
        pick[tied] = order[np.argmax(hits, axis=1)]
    return pick


def _block(cfg: SimConfig, lo: int, count: int, strides: tuple[int, ...]) -> list:
    """Paths [lo, lo+count): one (v, m, w_at_argmax) triple of arrays per
    stride, the argmax taken over every stride-th grid point."""
    n = cfg.steps_per_side
    sq = math.sqrt(cfg.step)
    t = cfg.step * np.arange(-n, n + 1)
    drift = cfg.gamma * t * t

    # Path p's increments are the stream of Philox keyed by (seed, p), read
    # from its start; resetting one generator's state is far cheaper than
    # constructing one per path.
    bitgen = np.random.Philox(0)
    gen = np.random.Generator(bitgen)
    zeros = np.zeros(4, dtype=np.uint64)
    incr = np.empty((count, 2 * n))
    for i in range(count):
        bitgen.state = {
            "bit_generator": "Philox",
            "state": {"counter": zeros,
                      "key": np.array([cfg.seed, lo + i], dtype=np.uint64)},
            "buffer": zeros, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
        }
        gen.standard_normal(out=incr[i])

    w = np.empty((count, 2 * n + 1))
    w[:, n] = 0.0
    np.cumsum(incr[:, :n], axis=1, out=w[:, n + 1:])
    w[:, n + 1:] *= sq
    np.cumsum(incr[:, n:], axis=1, out=w[:, :n][:, ::-1])
    w[:, :n] *= sq
    y = w - drift

    rows = np.arange(count)
    out = []
    for k in strides:
        pick = _pick_argmax(y[:, ::k], _tie_break_order(t[::k]))
        out.append((t[::k][pick], y[:, ::k][rows, pick], w[:, ::k][rows, pick]))
    return out


def _sample(cfg: SimConfig, strides: tuple[int, ...]) -> list:
    """All paths of cfg in blocks of about _BLOCK_BYTES of grid values, run on
    a thread pool; one (v, m, w_at_argmax) triple of arrays per stride."""
    from concurrent.futures import ThreadPoolExecutor

    rows = max(1, _BLOCK_BYTES // (8 * (2 * cfg.steps_per_side + 1)))
    with ThreadPoolExecutor(max_workers=_workers()) as pool:
        blocks = [pool.submit(_block, cfg, lo, min(rows, cfg.num_paths - lo), strides)
                  for lo in range(0, cfg.num_paths, rows)]
        try:
            parts = [b.result() for b in blocks]
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise
    return [tuple(np.concatenate([p[j][c] for p in parts]) for c in range(3))
            for j in range(len(strides))]


def simulate(cfg: SimConfig) -> SampleSet:
    """Simulate argmax samples; emits a warning if a non-negligible fraction
    of paths attains the maximum within 0.5 of the horizon boundary."""
    [(v, m, w_at)] = _sample(cfg, (1,))
    frac = float(np.mean(np.abs(v) >= cfg.horizon - _BOUNDARY_MARGIN))
    if frac >= _BOUNDARY_FRACTION:
        warnings.warn(
            f"{frac:.2e} of paths peaked within {_BOUNDARY_MARGIN} of the "
            f"horizon; increase horizon for unbiased samples", RuntimeWarning)
    return SampleSet(v=v, m=m, w_at_argmax=w_at, config=cfg)


def estimate(s: SampleSet, statistic: str, order: Optional[int] = None,
             t: Optional[float] = None) -> EstimateResult:
    """Sample mean and standard error of one statistic.

    Statistics: "v_moment" (needs `order`), "m_mean", "w_at_argmax_mean",
    "cos_v" (needs `t`).
    """
    if s.num_paths < 2:
        raise ValueError("need at least 2 paths for a standard error")
    if statistic == "v_moment":
        _order("v_moment order", order)
        with np.errstate(over="ignore"):
            x = s.v ** order
    elif statistic == "m_mean":
        x = s.m
    elif statistic == "w_at_argmax_mean":
        x = s.w_at_argmax
    elif statistic == "cos_v":
        if not _is_real(t):
            raise ValueError("cos_v requires a finite real t")
        x = np.cos(t * s.v)
    else:
        raise UnknownStatistic(f"unknown statistic {statistic!r}")
    with np.errstate(over="ignore", invalid="ignore"):
        value, sd = float(x.mean()), float(x.std(ddof=1))
    if not (math.isfinite(value) and math.isfinite(sd)):
        what = f"v_moment of order {order}" if statistic == "v_moment" else statistic
        raise OverflowDomain(f"{what}: the samples or their squared deviations "
                             f"overflow double precision")
    n = x.shape[0]
    return EstimateResult(value=value, stderr=sd / math.sqrt(n), num_paths=n)


def discretization_probe(cfg: SimConfig) -> tuple[SampleSet, SampleSet]:
    """Re-extract the argmax of the same Brownian paths on the 2h subgrid.

    Returns (fine, coarse).  The fine set is bit-identical to simulate(cfg);
    the coarse one shares every path, so the difference of a statistic
    between the two isolates the discretization effect with almost all the
    Monte Carlo noise cancelling.  Requires an even number of steps per
    side so the coarse grid contains t = 0 and both endpoints.
    """
    if cfg.steps_per_side % 2:
        raise ValueError("discretization_probe needs an even steps_per_side")
    (v, m, w_at), (v_c, m_c, w_c) = _sample(cfg, (1, 2))
    fine = SampleSet(v=v, m=m, w_at_argmax=w_at, config=cfg)
    coarse = SampleSet(v=v_c, m=m_c, w_at_argmax=w_c,
                       config=dataclasses.replace(cfg, step=2.0 * cfg.step))
    return fine, coarse


#: rows formatted per call of the CSV writer
_CSV_ROWS = 4096


def save_sample_set(s: SampleSet, csv_path: Union[str, Path]) -> None:
    """CSV with header v,m,w_at_argmax plus a .json sidecar with the config.

    Each value is written as %.17g, which round-trips every double; a block
    of rows is formatted by one string operation.
    """
    csv_path = Path(csv_path)
    rows = np.column_stack([s.v, s.m, s.w_at_argmax])
    with csv_path.open("w") as fh:
        fh.write("v,m,w_at_argmax\n")
        for lo in range(0, s.num_paths, _CSV_ROWS):
            block = rows[lo:lo + _CSV_ROWS]
            fh.write("%.17g,%.17g,%.17g\n" * len(block) % tuple(block.ravel().tolist()))
    sidecar = csv_path.with_suffix(csv_path.suffix + ".json")
    with sidecar.open("w") as fh:
        json.dump(dataclasses.asdict(s.config), fh, indent=2)
        fh.write("\n")


def load_sample_set(csv_path: Union[str, Path]) -> SampleSet:
    csv_path = Path(csv_path)
    data = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
    sidecar = csv_path.with_suffix(csv_path.suffix + ".json")
    with sidecar.open() as fh:
        cfg = SimConfig(**json.load(fh))
    return SampleSet(v=data[:, 0], m=data[:, 1], w_at_argmax=data[:, 2],
                     config=cfg)

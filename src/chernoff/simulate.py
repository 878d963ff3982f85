"""Monte Carlo oracle: direct simulation of argmax(W(t) - gamma t^2).

Two-sided Brownian paths on a symmetric grid t = i h, |i| <= N, built from
per-path counter-based generators (Philox keyed by (seed, path_index)), so
path p is bit-identical no matter how paths are batched or distributed.
Paths are built in blocks of about 512 KiB of grid values.  One worker
thread per core (the normal fills and array passes release the interpreter
lock) claims the blocks in path order and reuses one pair of buffers for
each: the increments, overwritten by W - gamma t^2 once they are summed,
and the path W, about 1 MiB, which stays in a core's 2 MiB L2 cache.  Each
block writes its own rows of the outputs, so the samples are the same for
any block size and any number of workers.

A block stores its grid in tie-break order, t = 0, -h, +h, -2h, +2h, ...:
the t < 0 side in the odd columns, the t > 0 side in the even ones.  The
argmax is the first maximum in that order, which resolves ties toward the
smallest |t| (then the smaller t).  The sampling error is what `estimate`
reports, while the O(h^{1/2})-to-O(h) discretization bias is measured, not
assumed, by `discretization_probe`, which re-extracts the argmax of the
same paths on the twice-coarser subgrid: the columns of even grid index,
in the same order.
"""
from __future__ import annotations

import dataclasses
import itertools
import json
import math
import os
import threading
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .errors import OverflowDomain, UnknownStatistic, _as_int, _as_real
from .moments import CANONICAL_GAMMA

#: grid values per block; with the increments a block's working set is
#: about twice this, inside one core's 2 MiB L2
_BLOCK_BYTES = 2**19
_BOUNDARY_MARGIN = 0.5
_BOUNDARY_FRACTION = 1e-4


@dataclass(frozen=True)
class SimConfig:
    """The sampler's parameters, held as Python floats and ints."""

    gamma: float = CANONICAL_GAMMA
    horizon: float = 4.0
    step: float = 1e-3
    num_paths: int = 100_000
    seed: int = 0

    def __post_init__(self):
        checked = {
            "gamma": _as_real(self.gamma, "gamma must be a positive real", True),
            "horizon": _as_real(self.horizon, "horizon must be a positive real", True),
            "step": _as_real(self.step, "step must lie in (0, horizon]", True),
            "num_paths": _as_int(self.num_paths, "num_paths must be a positive integer", 1),
            "seed": _as_int(self.seed, "seed must be an integer in [0, 2^63)", 0, 2**63 - 1),
        }
        for name, value in checked.items():
            object.__setattr__(self, name, value)
        if self.step > self.horizon:
            raise ValueError("step must lie in (0, horizon]")
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


class _Plan:
    """What every block of one call shares: t and the drift in tie-break
    column order, each stride's columns, and the output arrays."""

    def __init__(self, cfg: SimConfig, strides: tuple[int, ...]):
        n = cfg.steps_per_side
        self.cfg = cfg
        self.rows = max(1, min(cfg.num_paths, _BLOCK_BYTES // (8 * (2 * n + 1))))
        i = np.zeros(2 * n + 1, dtype=int)  # grid index of each column
        i[1::2] = -np.arange(1, n + 1)
        i[2::2] = np.arange(1, n + 1)
        self.t = cfg.step * i
        self.drift = cfg.gamma * self.t * self.t
        # stride k reads the grid points with i % k == 0, in the same order
        self.grids = [(k, np.flatnonzero(i % k == 0)) for k in strides]
        self.out = [tuple(np.empty(cfg.num_paths) for _ in range(3)) for _ in strides]


class _Workspace:
    """One worker thread's generator and block buffers, reused for every
    block it takes."""

    def __init__(self, plan: _Plan):
        cols = 2 * plan.cfg.steps_per_side + 1
        # Path p's increments are the stream of Philox keyed by (seed, p), read
        # from its start; writing p into one reused state is far cheaper than
        # constructing a generator per path.
        self.bitgen = np.random.Philox(0)
        self.gen = np.random.Generator(self.bitgen)
        self.key = [plan.cfg.seed, 0]
        self.state = {
            "bit_generator": "Philox",
            "state": {"counter": (0, 0, 0, 0), "key": self.key},
            "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
        }
        self.incr = np.empty((plan.rows, cols))  # increments, then y = w - drift
        self.w = np.empty((plan.rows, cols))


def _block(plan: _Plan, ws: _Workspace, lo: int, count: int) -> None:
    """Paths [lo, lo+count) into their rows of plan.out: per stride k, the
    (v, m, w_at_argmax) of the argmax over every k-th grid point."""
    n = plan.cfg.steps_per_side
    sq = math.sqrt(plan.cfg.step)
    incr, w = ws.incr[:count], ws.w[:count]
    for i in range(count):
        ws.key[1] = lo + i
        ws.bitgen.state = ws.state
        ws.gen.standard_normal(out=incr[i, :2 * n])

    w[:, 0] = 0.0
    np.cumsum(incr[:, :n], axis=1, out=w[:, 2::2])
    np.cumsum(incr[:, n:2 * n], axis=1, out=w[:, 1::2])
    w *= sq
    y = np.subtract(w, plan.drift, out=incr)

    rows = np.arange(count)
    for (k, cols), (v, m, w_at) in zip(plan.grids, plan.out):
        # the first maximum in column order is the tie rule's pick
        if k == 1:
            pick = np.argmax(y, axis=1)
        else:
            # a coarse stride gathers its columns 64 KiB at a time; a copy
            # of the whole block's would add 256 KiB per worker to peak RSS
            step = max(1, 2**13 // cols.size)
            pick = cols[np.concatenate([np.argmax(y[r:r + step, cols], axis=1)
                                        for r in range(0, count, step)])]
        v[lo:lo + count] = plan.t[pick]
        m[lo:lo + count] = y[rows, pick]
        w_at[lo:lo + count] = w[rows, pick]


def _sample(cfg: SimConfig, strides: tuple[int, ...]) -> list[SampleSet]:
    """All paths of cfg in blocks of about _BLOCK_BYTES of grid values, which
    one worker thread per core claims in path order: one SampleSet per
    stride k, on the grid of step k * cfg.step, after the horizon check."""
    from concurrent.futures import ThreadPoolExecutor

    plan = _Plan(cfg, strides)
    starts = iter(range(0, cfg.num_paths, plan.rows))
    claim = threading.Lock()
    stop = threading.Event()

    def work():
        try:
            ws = _Workspace(plan)
            while not stop.is_set():
                with claim:
                    lo = next(starts, None)
                if lo is None:
                    break
                _block(plan, ws, lo, min(plan.rows, cfg.num_paths - lo))
        finally:
            stop.set()  # a worker that fails stops the others claiming blocks

    workers = min(_workers(), -(-cfg.num_paths // plan.rows))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        running = [pool.submit(work) for _ in range(workers)]
        try:
            for r in running:
                r.result()
        finally:
            stop.set()  # so does a Ctrl-C
    sets = [SampleSet(*out, config=dataclasses.replace(cfg, step=k * cfg.step) if k > 1 else cfg)
            for k, out in zip(strides, plan.out)]
    frac = float(np.mean(np.abs(sets[0].v) >= cfg.horizon - _BOUNDARY_MARGIN))
    if frac >= _BOUNDARY_FRACTION:
        warnings.warn(
            f"{frac:.2e} of paths peaked within {_BOUNDARY_MARGIN} of the "
            f"horizon; increase horizon for unbiased samples", RuntimeWarning)
    return sets


def simulate(cfg: SimConfig) -> SampleSet:
    """Simulate argmax samples; emits a warning if a non-negligible fraction
    of paths attains the maximum within 0.5 of the horizon boundary."""
    return _sample(cfg, (1,))[0]


def estimate(s: SampleSet, statistic: str, order: Optional[int] = None,
             t: Optional[float] = None) -> EstimateResult:
    """Sample mean and standard error of one statistic.

    Statistics: "v_moment" (needs `order`), "m_mean", "w_at_argmax_mean",
    "cos_v" (needs `t`).  An argument the statistic does not take is refused.
    """
    if s.num_paths < 2:
        raise ValueError("need at least 2 paths for a standard error")
    if statistic == "v_moment":
        order = _as_int(order, "v_moment order must be a nonnegative integer")
        with np.errstate(over="ignore"):
            x = s.v ** order
    elif statistic == "m_mean":
        x = s.m
    elif statistic == "w_at_argmax_mean":
        x = s.w_at_argmax
    elif statistic == "cos_v":
        x = np.cos(_as_real(t, "cos_v requires a finite real t") * s.v)
    else:
        raise UnknownStatistic(f"unknown statistic {statistic!r}")
    for name, given, owner in (("order", order, "v_moment"), ("t", t, "cos_v")):
        if given is not None and statistic != owner:
            raise ValueError(f"{statistic} takes no {name}, got {name}={given!r}")
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

    Returns (fine, coarse).  The fine set is simulate(cfg), bit for bit and
    warning alike; the coarse one shares every path, so the difference of a
    statistic between the two isolates the discretization effect with almost
    all the Monte Carlo noise cancelling.  Requires an even number of steps
    per side, at least 4, so the coarse grid contains t = 0 and both
    endpoints and is a valid SimConfig; refuses any other grid first.
    """
    if cfg.steps_per_side % 2 or cfg.steps_per_side < 4:
        raise ValueError("discretization_probe needs an even steps_per_side of at least 4, "
                         f"got {cfg.steps_per_side}")
    return tuple(_sample(cfg, (1, 2)))


#: rows formatted per call of the CSV writer
_CSV_ROWS = 4096
#: the sample file's header: the SampleSet fields its columns hold, in order
_COLUMNS = ("v", "m", "w_at_argmax")


def _sidecar(csv_path: Union[str, Path]) -> str:
    return os.fspath(csv_path) + ".json"


def save_sample_set(s: SampleSet, csv_path: Union[str, Path]) -> None:
    """CSV with header v,m,w_at_argmax plus a .json sidecar with the config.

    Each value is written as %.17g, which round-trips every double; a block
    of rows is formatted by one string operation.
    """
    rows = np.column_stack([getattr(s, c) for c in _COLUMNS])
    row = ",".join(["%.17g"] * len(_COLUMNS)) + "\n"
    with open(csv_path, "w") as fh:
        fh.write(",".join(_COLUMNS) + "\n")
        for lo in range(0, s.num_paths, _CSV_ROWS):
            block = rows[lo:lo + _CSV_ROWS]
            fh.write(row * len(block) % tuple(block.ravel().tolist()))
    with open(_sidecar(csv_path), "w") as fh:
        json.dump(dataclasses.asdict(s.config), fh, indent=2)
        fh.write("\n")


def load_sample_set(csv_path: Union[str, Path]) -> SampleSet:
    """The sample set that `save_sample_set` wrote to csv_path.

    Refuses with a ValueError that names the file: a header other than
    v,m,w_at_argmax, no row after it, a row that is not three numbers, and
    a sidecar that is not a JSON object with exactly SimConfig's fields and
    a valid config.  The row count may differ from the config's num_paths,
    since a prefix of a run's rows is a valid file.
    """
    header = ",".join(_COLUMNS)
    try:
        with open(csv_path) as fh:
            if fh.readline().rstrip("\n") != header:
                raise ValueError(f"the header is not {header}")
            first = fh.readline()
            if not first.strip():
                raise ValueError("no sample row follows the header")
            data = np.loadtxt(itertools.chain([first], fh), delimiter=",", comments=None,
                              ndmin=2)
        if data.shape[1] != len(_COLUMNS):
            raise ValueError(f"rows hold {data.shape[1]} values, not {len(_COLUMNS)}")
    except ValueError as exc:
        raise ValueError(f"{csv_path}: {exc}") from exc
    sidecar = _sidecar(csv_path)
    names = {f.name for f in dataclasses.fields(SimConfig)}
    try:
        with open(sidecar) as fh:
            fields = json.load(fh)
        if not isinstance(fields, dict) or set(fields) != names:
            raise ValueError(f"not a JSON object with exactly the keys {sorted(names)}")
        cfg = SimConfig(**fields)
    except ValueError as exc:
        raise ValueError(f"{sidecar}: {exc}") from exc
    return SampleSet(**dict(zip(_COLUMNS, data.T)), config=cfg)

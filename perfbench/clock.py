"""Timings scaled to a reference machine speed.

On a shared host each core switches, every 50 ms to a few seconds,
between running Python at full speed and about 1.6x slower, depending on
what other tenants do; the cores switch independently, and a process's
CPU time slows down with its core, so it is no remedy.  Therefore one
thread per allowed core, pinned to that core, wakes every PERIOD_S and
times two tiny fixed kernels: a pure-Python loop, and numpy drawing
normals and summing them up, since the slow phases hold interpreted
Python back more than vectorised numpy.  Each kernel runs twice and the
faster run counts: the first run refills the caches that the measured
program left cold, so the sample reads the core's speed and not the
program's cache footprint.  The threads take turns, so that none waits
for another's interpreter lock while it times a kernel.  At each tick
the thread also counts the threads of the watched child process that
are running, or waiting to run, on its core.

The benchmark and its children are not pinned: a child may use every
core the run is allowed, so a library that runs work on threads gains
from it.  A time measured over [t0, t1] is multiplied by the reference
speed factor of the cores the child used: per core, the kernel's
REFERENCE_S over its median time sampled in the window, averaged with
the number of times the child was seen on that core as weights (all
cores alike when it was never seen, as in a request shorter than a
tick).  That is
the figure the work would have taken at the reference speed.  A change
to the library moves the scaled time as it moves the raw one; a change
in a core's speed cancels out.

All times are `time.perf_counter()` readings, one monotonic clock shared
by every process of the run.  Where the child runs is read from
``/proc/<pid>/task/*/stat`` (Linux).
"""
from __future__ import annotations

import bisect
import os
import statistics
import threading
import time
from contextlib import contextmanager

import numpy as np

#: each kernel's duration at the reference speed (about its time on the
#: 2-core Xeon described in README.md)
REFERENCE_S = {"python": 3.5e-5, "numpy": 3.5e-5}
PERIOD_S = 0.01
#: samples this close outside a window still describe it
MARGIN_S = 0.02
_LOOPS = 250
_NORMALS = 1024


def _python() -> float:
    t0 = time.perf_counter()
    x = 0.0
    for i in range(_LOOPS):
        x += (i * 0.5) ** 0.5
    return time.perf_counter() - t0


def _numpy_kernel():
    rng = np.random.Generator(np.random.Philox(0))
    buf, out = np.empty(_NORMALS), np.empty(_NORMALS)

    def run() -> float:
        t0 = time.perf_counter()
        rng.standard_normal(out=buf)
        np.cumsum(buf, out=out)
        return time.perf_counter() - t0
    return run


def _threads_on(pid, cpu: int) -> int:
    """How many threads of process `pid` are runnable on `cpu`."""
    if pid is None:
        return 0
    n = 0
    try:
        for tid in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{tid}/stat", "rb") as f:
                # fields after the command name: state is field 3, the
                # processor field 39
                rest = f.read().rsplit(b")", 1)[1].split()
            n += rest[0] == b"R" and int(rest[36]) == cpu
    except (OSError, IndexError, ValueError):    # the child has just exited
        pass
    return n


class _Core:
    """Samples of one core: tick times, kernel times, child threads seen."""

    def __init__(self, cpu: int):
        self.cpu = cpu
        self.times: list[float] = []
        self.kernels: dict[str, list[float]] = {k: [] for k in REFERENCE_S}
        self.seen: list[int] = []

    def window(self, t0: float, t1: float, kernel: str) -> tuple[list, list]:
        """(kernel times, child threads seen) sampled over [t0, t1]."""
        n = len(self.times)                  # appended last: samples complete
        lo = bisect.bisect_left(self.times, t0 - MARGIN_S, 0, n)
        hi = bisect.bisect_right(self.times, t1 + MARGIN_S, 0, n)
        if lo == hi:                         # nothing close: the next, or the last
            lo, hi = max(0, min(lo, n - 1)), max(1, min(lo + 1, n))
        return self.kernels[kernel][lo:hi], self.seen[lo:hi]


class Speedometer:
    """Samples the speed of every allowed core in background threads."""

    def __init__(self):
        self.cores = [_Core(c) for c in sorted(os.sched_getaffinity(0))]
        self.pid = None
        self._stop = threading.Event()
        # the samplers take turns: numpy lets go of the interpreter lock, and
        # a kernel that waits to get it back from another sampler reads as a
        # slow core
        self._turn = threading.Lock()
        self._threads = [threading.Thread(target=self._run, args=(core,), daemon=True)
                         for core in self.cores]

    def __enter__(self):
        for t in self._threads:
            t.start()
        while not all(core.times for core in self.cores):
            time.sleep(PERIOD_S)
        return self

    def __exit__(self, *exc):
        self._stop.set()
        for t in self._threads:
            t.join()

    @contextmanager
    def watching(self, pid: int):
        """Count where process `pid` runs until the block ends."""
        self.pid = pid
        try:
            yield
        finally:
            self.pid = None

    def _run(self, core: _Core):
        os.sched_setaffinity(0, {core.cpu})     # this thread only
        kernels = {"python": _python, "numpy": _numpy_kernel()}
        while not self._stop.wait(PERIOD_S):
            t = time.perf_counter()
            with self._turn:
                for name, run in kernels.items():
                    core.kernels[name].append(min(run(), run()))
            core.seen.append(_threads_on(self.pid, core.cpu))
            core.times.append(t)

    def factor(self, t0: float, t1: float, kernel: str = "python") -> float:
        """Reference seconds per measured second over [t0, t1], by the
        speed of `kernel` on the cores the child used."""
        speeds, weights = [], []
        for core in self.cores:
            times, seen = core.window(t0, t1, kernel)
            speeds.append(REFERENCE_S[kernel] / statistics.median(times))
            weights.append(sum(seen))
        if not any(weights):
            weights = [1] * len(speeds)
        return sum(s * w for s, w in zip(speeds, weights)) / sum(weights)

    def kernel_s(self, kernel: str) -> float:
        """Median time of `kernel` over the run, all cores."""
        return statistics.median(x for core in self.cores for x in core.kernels[kernel])

"""Monte-Carlo engine tests: determinism, algebraic identities, estimators.

The path generator is keyed per path, so results must be bit-identical no
matter how the work is split into blocks, how many threads run them or how
many paths run alongside.
"""

import dataclasses
import hashlib
import importlib
import json
import math
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from chernoff import (
    CANONICAL_GAMMA,
    OverflowDomain,
    SampleSet,
    SimConfig,
    UnknownStatistic,
    discretization_probe,
    estimate,
    load_sample_set,
    save_sample_set,
    simulate,
)

# the package re-exports the function `simulate` under the module's name
sim_module = importlib.import_module("chernoff.simulate")

SMALL = SimConfig(horizon=3.0, step=0.01, num_paths=300, seed=7)

# sha256 of (v, m, w_at_argmax) for simulate (equal to the probe's fine set)
# and for the probe's coarse set, taken before the sampler was rewritten as
# threaded blocks; seed 2026, horizon 4
FROZEN_DIGESTS = {
    (1e-3, 600): (
        "bbaf8e2432337fb3ca3a7889e2f9d838fdc23432698647880fca0cab1f0a6944",
        "9115843612077be3fce08324ee253348a3b0ba3effa4511b58dd18a9f0bc532d",
    ),
    (1e-2, 5120): (
        "6325a476ed5278b78044e284f8edac07d4c2ff12fabff5adf19adc1d2f5b688c",
        "1b892be521ce51a94282c8782159e8d2a77096a7fc1561229fe7911114673657",
    ),
}


def sample_digest(s: SampleSet) -> str:
    h = hashlib.sha256()
    for a in (s.v, s.m, s.w_at_argmax):
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()


def block_rows(cfg: SimConfig) -> int:
    return sim_module._BLOCK_BYTES // (8 * (2 * cfg.steps_per_side + 1))


@pytest.fixture(scope="module")
def small_set():
    return simulate(SMALL)


# ---------------------------------------------------------------- determinism


def test_bit_identical_rerun(small_set):
    again = simulate(SMALL)
    assert np.array_equal(small_set.v, again.v)
    assert np.array_equal(small_set.m, again.m)
    assert np.array_equal(small_set.w_at_argmax, again.w_at_argmax)


def test_path_count_does_not_change_early_paths():
    # the shorter run ends in a 5-path block; the longer one fills that block
    rows = block_rows(SMALL)
    shorter = simulate(dataclasses.replace(SMALL, num_paths=rows + 5))
    longer = simulate(dataclasses.replace(SMALL, num_paths=2 * rows + 3))
    assert shorter.num_paths > rows
    assert np.array_equal(longer.v[:rows + 5], shorter.v)
    assert np.array_equal(longer.m[:rows + 5], shorter.m)
    assert np.array_equal(longer.w_at_argmax[:rows + 5], shorter.w_at_argmax)


@pytest.mark.parametrize("step, paths", sorted(FROZEN_DIGESTS))
def test_samples_match_frozen_digests(step, paths):
    cfg = SimConfig(horizon=4.0, step=step, num_paths=paths, seed=2026)
    assert paths > block_rows(cfg)
    fine_digest, coarse_digest = FROZEN_DIGESTS[step, paths]
    assert sample_digest(simulate(cfg)) == fine_digest
    fine, coarse = discretization_probe(cfg)
    assert sample_digest(fine) == fine_digest
    assert sample_digest(coarse) == coarse_digest


@pytest.mark.parametrize("workers", [1, 2, 5])
def test_samples_do_not_depend_on_worker_count(monkeypatch, workers):
    cfg = SimConfig(horizon=4.0, step=1e-2, num_paths=5120, seed=2026)
    monkeypatch.setattr(sim_module, "_workers", lambda: workers)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        fine, coarse = discretization_probe(cfg)
    finally:
        sys.setswitchinterval(interval)
    assert (sample_digest(fine), sample_digest(coarse)) == \
        FROZEN_DIGESTS[1e-2, 5120]


def test_failed_block_cancels_the_blocks_not_started(monkeypatch):
    # a failure (or Ctrl-C) must not wait for every queued block to run
    started = []

    def block(plan, ws, lo, count):
        started.append(lo)
        if lo == 0:
            raise MemoryError("first block")
        time.sleep(0.2)

    monkeypatch.setattr(sim_module, "_block", block)
    monkeypatch.setattr(sim_module, "_workers", lambda: 1)
    cfg = SimConfig(horizon=4.0, step=1e-2, num_paths=20 * 81, seed=0)
    assert block_rows(cfg) == 81
    with pytest.raises(MemoryError, match="first block"):
        simulate(cfg)
    assert len(started) <= 3


def traced_peak(fn, cfg: SimConfig) -> int:
    tracemalloc.start()
    try:
        fn(cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_working_memory_does_not_grow_with_paths(monkeypatch):
    # each worker reuses one block's buffers, so past the outputs (24 bytes
    # per path per stride) the peak is a few blocks, whatever the path count
    monkeypatch.setattr(sim_module, "_workers", lambda: 2)
    simulate(SimConfig(num_paths=16, step=1e-3))  # first-call imports
    for fn, strides in ((simulate, 1), (discretization_probe, 2)):
        work = {}
        for paths in (2000, 8000):
            peak = traced_peak(fn, SimConfig(num_paths=paths, step=1e-3))
            work[paths] = peak - 24 * paths * strides
            assert work[paths] < 6 * 2**20, (fn.__name__, paths, peak)
        # 64 KiB of slack for the interpreter's own bookkeeping
        assert work[8000] <= work[2000] + 2**16, (fn.__name__, work)


def test_seed_changes_output(small_set):
    other = simulate(dataclasses.replace(SMALL, seed=8))
    assert not np.array_equal(other.v, small_set.v)


# ---------------------------------------------------------------- identities


def test_max_decomposition(small_set):
    # M = W(V) - gamma V^2 holds pathwise in exact float arithmetic
    g = small_set.config.gamma
    assert np.array_equal(
        small_set.m, small_set.w_at_argmax - g * small_set.v * small_set.v
    )


def test_argmax_on_grid(small_set):
    n = SMALL.steps_per_side
    t = SMALL.step * np.arange(-n, n + 1)
    assert np.isin(small_set.v, t).all()
    assert small_set.num_paths == SMALL.num_paths


class _Rows:
    """Stands in for a worker's generator: path p's increments are row p."""

    def __init__(self, incr, key):
        self.incr, self.key = incr, key

    def standard_normal(self, out):
        out[...] = self.incr[self.key[1]]


def block_picks(y):
    """Run one block over paths whose grid values W(t) - t^2 are the rows of
    y, t = -n..n at step 1 (so y is 0 at t = 0); the argmax t per stride."""
    n = y.shape[1] // 2
    t = np.arange(-n, n + 1.0)
    w = y + t * t
    cfg = SimConfig(gamma=1.0, horizon=float(n), step=1.0, num_paths=y.shape[0])
    plan = sim_module._Plan(cfg, (1, 2))
    assert plan.grids[0] == (1, None)     # stride 1 reads every column
    ws = sim_module._Workspace(plan)
    ws.gen = _Rows(np.concatenate([np.diff(w[:, n:]), np.diff(w[:, n::-1])], axis=1),
                   ws.key)
    sim_module._block(plan, ws, 0, y.shape[0])
    for v, m, w_at in plan.out:
        assert np.array_equal(m, w_at - v * v)
    return [v for v, _, _ in plan.out]


def test_tie_break_prefers_small_then_negative():
    y = np.array([[1.0, 5.0, 0.0, 5.0, 0.0], [1.0, 0.0, 0.0, 0.0, 1.0],
                  [-1.0, 0.0, 0.0, 0.0, 0.0]])
    # negative wins each |t| tie, and the smallest |t| wins outright
    fine, coarse = block_picks(y)
    assert list(fine) == [-1.0, -2.0, 0.0]
    assert list(coarse) == [-2.0, -2.0, 0.0]


def pick_argmax_full_reorder(y, order):
    # reference: reorder every row's columns, then take the first maximum
    mx = y.max(axis=1)
    hits = y[:, order] == mx[:, None]
    return order[np.argmax(hits, axis=1)]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_pick_argmax_matches_full_reorder(data):
    n = 2 * data.draw(st.integers(1, 3))
    rows = data.draw(st.integers(1, 8))
    y = data.draw(hnp.arrays(np.float64, (rows, 2 * n + 1),
                             elements=st.integers(-2, 2).map(float)))
    y[:, n] = 0.0  # W(0) = 0
    t = np.arange(-n, n + 1.0)
    for k, v in zip((1, 2), block_picks(y)):
        # smallest |t| first, negative before positive
        order = np.lexsort((t[::k], np.abs(t[::k])))
        assert np.array_equal(v, t[::k][pick_argmax_full_reorder(y[:, ::k], order)])


# ---------------------------------------------------------------- estimators


def test_estimate_matches_numpy(small_set):
    r = estimate(small_set, "v_moment", order=2)
    x = small_set.v**2
    assert r.value == pytest.approx(float(x.mean()), abs=0.0)
    assert r.stderr == pytest.approx(
        float(x.std(ddof=1)) / math.sqrt(small_set.num_paths), abs=0.0
    )
    assert r.num_paths == small_set.num_paths

    assert estimate(small_set, "m_mean").value == pytest.approx(
        float(small_set.m.mean()), abs=0.0
    )
    assert estimate(small_set, "w_at_argmax_mean").value == pytest.approx(
        float(small_set.w_at_argmax.mean()), abs=0.0
    )
    rc = estimate(small_set, "cos_v", t=1.0)
    assert rc.value == pytest.approx(float(np.cos(small_set.v).mean()), abs=0.0)


def test_zeroth_moment_is_one(small_set):
    r = estimate(small_set, "v_moment", order=0)
    assert r.value == 1.0
    assert r.stderr == 0.0


def test_estimate_validation(small_set):
    with pytest.raises(UnknownStatistic):
        estimate(small_set, "banana")
    with pytest.raises(ValueError):
        estimate(small_set, "v_moment")  # missing order
    with pytest.raises(ValueError):
        estimate(small_set, "v_moment", order=-1)
    with pytest.raises(ValueError):
        estimate(small_set, "cos_v")  # missing t
    with pytest.raises(ValueError):
        estimate(small_set, "cos_v", t=float("nan"))
    # an order no float holds is refused before any power is formed
    with pytest.raises(ValueError):
        estimate(small_set, "v_moment", order=10**400)
    # an argument the statistic does not take is refused, not ignored
    for statistic, kw in (("m_mean", {"order": 2}), ("w_at_argmax_mean", {"t": 1.0}),
                          ("v_moment", {"order": 2, "t": 5.0}),
                          ("cos_v", {"t": 1.0, "order": 2})):
        with pytest.raises(ValueError, match="takes no"):
            estimate(small_set, statistic, **kw)
    one = SampleSet(
        v=np.zeros(1), m=np.zeros(1), w_at_argmax=np.zeros(1), config=SMALL
    )
    with pytest.raises(ValueError):
        estimate(one, "m_mean")


@pytest.mark.parametrize("order", [700, 1500, pytest.param(2**1000, id="2^1000")])
def test_estimate_overflow_is_typed(order):
    # 1.8^700 is finite but its squared deviations are not; 1.8^1500 is inf,
    # and so is 1.8^(2^1000), the power of an order near the float range
    v = np.array([1.8, -1.8, 0.5, 0.0])
    s = SampleSet(v=v, m=np.zeros(4), w_at_argmax=np.zeros(4), config=SMALL)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowDomain, match=f"v_moment of order {order}"):
            estimate(s, "v_moment", order=order)


# ---------------------------------------------------------------- probe


def test_probe_fine_equals_simulate(small_set):
    fine, coarse = discretization_probe(SMALL)
    assert np.array_equal(fine.v, small_set.v)
    assert np.array_equal(fine.m, small_set.m)
    assert np.array_equal(fine.w_at_argmax, small_set.w_at_argmax)
    assert coarse.config.step == pytest.approx(2.0 * SMALL.step)
    # max over a subgrid can never beat max over the full grid
    assert np.all(coarse.m <= fine.m)
    assert np.mean(fine.m - coarse.m) > 0.0


def test_probe_needs_even_grid():
    cfg = SimConfig(horizon=1.0, step=1.0 / 3.0, num_paths=4, seed=0)
    assert cfg.steps_per_side == 3
    with pytest.raises(ValueError):
        discretization_probe(cfg)


def test_probe_refuses_a_grid_it_cannot_halve_before_sampling(monkeypatch):
    # 2 steps per side are even, but the coarse grid would have 1
    cfg = SimConfig(horizon=0.02, step=0.01, num_paths=200_000)
    assert cfg.steps_per_side == 2

    def sampled(*args):
        raise AssertionError("paths were sampled")

    monkeypatch.setattr(sim_module, "_sample", sampled)
    with pytest.raises(ValueError, match="discretization_probe needs an even steps_per_side "
                                         "of at least 4, got 2"):
        discretization_probe(cfg)


# ---------------------------------------------------------------- persistence


def test_csv_round_trip(tmp_path, small_set):
    path = tmp_path / "samples.csv"
    save_sample_set(small_set, path)
    assert (tmp_path / "samples.csv.json").exists()
    back = load_sample_set(path)
    assert np.array_equal(back.v, small_set.v)
    assert np.array_equal(back.m, small_set.m)
    assert np.array_equal(back.w_at_argmax, small_set.w_at_argmax)
    assert back.config == small_set.config
    header = path.read_text().splitlines()[0]
    assert header == "v,m,w_at_argmax"
    # a prefix of a run's rows is a valid file, whatever its config's num_paths
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:11]))
    back = load_sample_set(path)
    assert (back.num_paths, back.config.num_paths) == (10, SMALL.num_paths)
    assert np.array_equal(back.m, small_set.m[:10])


@pytest.mark.parametrize("csv, sidecar, says", [
    ("m,v,w_at_argmax\n1,2,3\n", {}, "header is not v,m,w_at_argmax"),
    ("v,m,w_at_argmax\n1,2\n3,4\n", {}, "rows hold 2 values, not 3"),
    ("v,m,w_at_argmax\n1,2,3\n4,5\n", {}, "number of columns changed"),
    ("v,m,w_at_argmax\n", {}, "no sample row"),
    ("v,m,w_at_argmax\n1,2,3\n", {"seed": None}, "exactly the keys"),
    ("v,m,w_at_argmax\n1,2,3\n", {"extra": 1}, "exactly the keys"),
    ("v,m,w_at_argmax\n1,2,3\n", {"step": 0.07}, "integer multiple of step"),
    ("v,m,w_at_argmax\n1,2,3\nnan,inf,-inf\n", {}, "a sample value is not finite"),
])
def test_load_refuses_malformed_files(tmp_path, csv, sidecar, says):
    path = tmp_path / "s.csv"
    path.write_text(csv)
    fields = {k: v for k, v in {**dataclasses.asdict(SMALL), **sidecar}.items()
              if v is not None}
    (tmp_path / "s.csv.json").write_text(json.dumps(fields))
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # numpy's "input contained no data" too
        with pytest.raises(ValueError, match=says) as exc:
            load_sample_set(path)
    assert exc.type is ValueError and str(exc.value).startswith(str(path)), exc.value


# the bytes a row-by-row f"{x:.17g}" writer produced for these values
FROZEN_CSV = (
    "v,m,w_at_argmax\n"
    "-1.5,2.2250738585072014e-308,-123456789\n"
    "4.9406564584124654e-324,-1.0000000000000001e+300,9007199254740992\n"
    "1.7976931348623157e+308,42,-2.5000000000000171e-310\n"
    "3,-7,0\n"
    "-0,0.33333333333333331,-1.0000000000000001e-05\n"
    "0.10000000000000001,10000000000000000,6.0221407599999999e+23\n"
)


def test_csv_bytes_frozen(tmp_path, monkeypatch):
    v = np.array([-1.5, 5e-324, 1.7976931348623157e308, 3.0, -0.0, 0.1])
    m = np.array([2.2250738585072014e-308, -1e300, 42.0, -7.0, 1 / 3, 1e16])
    w = np.array([-123456789.0, 2.0 ** 53, -2.5e-310, 0.0, -1e-5, 6.02214076e23])
    s = SampleSet(v=v, m=m, w_at_argmax=w, config=SMALL)
    path = tmp_path / "frozen.csv"
    save_sample_set(s, path)
    assert path.read_bytes() == FROZEN_CSV.encode()
    # rows split across formatting blocks give the same bytes
    monkeypatch.setattr(sim_module, "_CSV_ROWS", 4)
    save_sample_set(s, path)
    assert path.read_bytes() == FROZEN_CSV.encode()


# ---------------------------------------------------------------- warnings, config


def test_boundary_warning():
    # nearly flat drift, tiny window: maxima pile up at the horizon; the
    # probe's fine set is simulate's, so it warns alike, once
    cfg = SimConfig(gamma=0.01, horizon=1.0, step=0.1, num_paths=100, seed=3)
    for fn in (simulate, discretization_probe):
        with pytest.warns(RuntimeWarning, match="horizon") as caught:
            fn(cfg)
        assert len(caught) == 1, fn.__name__


def test_no_boundary_warning_at_default_horizon(recwarn):
    for fn in (simulate, discretization_probe):
        fn(SimConfig(horizon=4.0, step=0.02, num_paths=64, seed=1))
    assert not [w for w in recwarn if w.category is RuntimeWarning]


@pytest.mark.parametrize(
    "kw",
    [
        {"gamma": 0.0},
        {"gamma": float("nan")},
        {"horizon": -1.0},
        {"step": 0.0},
        {"step": 5.0},  # exceeds horizon
        {"num_paths": 0},
        {"num_paths": 2.5},
        {"seed": -1},
        {"seed": 2**63},
        {"seed": True},
        {"gamma": True},
        {"horizon": True},
        {"step": True},
        {"horizon": 4.0, "step": 0.3},  # grid would end at 3.9
        {"horizon": 1.0, "step": 1.0},  # only one step per side
        {"horizon": 1e300, "step": 1e-300},  # horizon/step overflows to inf
        {"horizon": 1e300, "step": 1e-5},  # past 2^53 every ratio is an integer
    ],
)
def test_config_validation(kw):
    with pytest.raises(ValueError):
        SimConfig(**kw)


# ---------------------------------------------------------------- statistics


def test_small_sample_statistics():
    cfg = SimConfig(horizon=3.5, step=0.01, num_paths=4000, seed=11)
    s = simulate(cfg)
    rv = estimate(s, "v_moment", order=1)
    assert abs(rv.value) <= 4.0 * rv.stderr  # symmetric law
    r2 = estimate(s, "v_moment", order=2)
    assert 0.30 <= r2.value <= 0.55  # crude bracket around 0.418
    rm = estimate(s, "m_mean")
    rw = estimate(s, "w_at_argmax_mean")
    # E W(V) = E M + gamma E V^2 transfers the pathwise identity to means
    assert rw.value == pytest.approx(
        rm.value + cfg.gamma * r2.value, abs=1e-12
    )


def test_length_scale_shows_in_samples():
    base = SimConfig(horizon=3.0, step=0.01, num_paths=2000, seed=5)
    s1 = simulate(base)
    s2 = simulate(dataclasses.replace(base, gamma=2.0))
    r1 = estimate(s1, "v_moment", order=2)
    r2 = estimate(s2, "v_moment", order=2)
    # Var V_gamma scales by length_scale(2)^2 = 1/4
    ratio = r2.value / r1.value
    assert 0.15 <= ratio <= 0.35

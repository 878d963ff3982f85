"""Acceptance gate: ten criteria, one visible pass/fail line each.

Each test prints "[criterion-NN] PASS/FAIL — detail" to the real stdout
(bypassing capture) and then asserts, so a full run always shows the ten
verdict lines in order.
"""

import hashlib
import math
import time
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from chernoff import (
    CANONICAL_GAMMA,
    RationalPoly,
    SimConfig,
    TermSum,
    char_fn,
    contour_integral_inv_ai2,
    default_contour,
    density_grid,
    discretization_probe,
    mean_max,
    mgf,
    moment,
    moment_by_parts,
    moment_polynomial,
    reduce_integral,
    verify_conjectures,
)

F = Fraction

TABLE = {
    0: {0: F(1)},
    2: {1: F(-1, 3)},
    4: {2: F(7, 15)},
    6: {3: F(-31, 21), 0: F(26, 21)},
    8: {4: F(127, 15), 1: F(-196, 9)},
    10: {5: F(-2555, 33), 2: F(13160, 33)},
    12: {6: F(1414477, 1365), 3: F(-2419532, 273), 0: F(1989472, 1365)},
}


@pytest.fixture
def report(capsys):
    def emit(num: int, ok: bool, detail: str) -> None:
        with capsys.disabled():
            print(f"[criterion-{num:02d}] {'PASS' if ok else 'FAIL'} — {detail}")

    return emit


def test_criterion_01_exact_table(report):
    t0 = time.perf_counter()
    bad = [n for n in sorted(TABLE) if moment_polynomial(n) != RationalPoly(TABLE[n])]
    dt = time.perf_counter() - t0
    ok = not bad and dt < 10.0
    report(1, ok, f"p_n exact for n in {sorted(TABLE)}; {dt:.2f} s")
    assert ok, (bad, dt)


def test_criterion_02_conjectures_to_100(report):
    t0 = time.perf_counter()
    rep = verify_conjectures(100)
    dt = time.perf_counter() - t0
    ok = rep.all_ok and rep.odd_all_zero and dt < 600.0
    report(2, ok, f"odd zero, degree, sinh leading, mod-3 for n <= 100; {dt:.1f} s")
    assert ok, (rep.failures(), dt)


def test_criterion_02b_conjectures_to_200(report):
    t0 = time.perf_counter()
    rep = verify_conjectures(200)
    dt = time.perf_counter() - t0
    ok = rep.all_ok and rep.odd_all_zero and dt < 20.0
    report(2, ok, f"(b) the same checks for n <= 200; {dt:.1f} s")
    assert ok, (rep.failures(), dt)


def test_criterion_03_reduction_identities(report):
    i102 = TermSum([((1, 0, 2), 1)])
    i202 = TermSum([((2, 0, 2), 1)])
    checks = [
        reduce_integral((0, 1, 3)) == TermSum(),
        reduce_integral((0, 2, 4)) == i102.scale(F(1, 3)),
        reduce_integral((1, 2, 4)) == i202.scale(F(1, 3)),
        reduce_integral((0, 4, 6)) == i202.scale(F(1, 5)),
    ]
    ok = all(checks)
    report(3, ok, "I(0,1,3)=0, I(0,2,4)=I(1,0,2)/3, I(1,2,4)=I(2,0,2)/3, "
                  "I(0,4,6)=I(2,0,2)/5 exactly")
    assert ok, checks


def test_criterion_04_normalization(report):
    one = RationalPoly({0: F(1)})
    q0 = contour_integral_inv_ai2(one)
    devs = []
    ok = abs(q0.value - 1.0) <= 1e-8
    for sig in (0.5, 1.0):
        q = contour_integral_inv_ai2(one, replace(default_contour(), sigma=sig))
        tol = 2.0 * max(q.err_estimate, q0.err_estimate)
        devs.append(abs(q.value - 1.0))
        ok = ok and devs[-1] <= max(tol, 1e-12)
    report(4, ok, f"|I-1| = {abs(q0.value - 1.0):.1e} at sigma=0; "
                  f"{max(devs):.1e} at sigma in {{0.5, 1}}")
    assert ok


def test_criterion_05_by_parts_lattice(report):
    # the high-k splits cancel heavily, so their honest roundoff floor sits
    # near 1e-7 and the default 1e-10 target is unreachable; a 1e-5 budget
    # converges while the actual deviations stay below 1e-10
    spec = replace(default_contour(), rel_tol=1e-5)
    worst = 0.0
    for n in (2, 4, 6, 8):
        ref = moment(n)
        for j in range(n + 1):
            worst = max(worst, abs(moment_by_parts(n - j, j, spec) - ref))
    ok = worst <= 1e-6
    report(5, ok, f"all splits j+k=n, n in {{2,4,6,8}}; worst dev {worst:.1e}")
    assert ok, worst


def test_criterion_06_second_moment_mean_max(report):
    worst = 0.0
    for g in (CANONICAL_GAMMA, 1.0, 2.0):
        worst = max(worst, abs(moment(2, g) - mean_max(g) / (3.0 * g)))
    ok = worst <= 1e-6
    report(6, ok, f"E V^2 = E M/(3 gamma) for gamma in {{1/sqrt2, 1, 2}}; "
                  f"worst dev {worst:.1e}")
    assert ok, worst


def test_criterion_07_scaling_law(report):
    worst = 0.0
    for n in (2, 4, 6):
        vals = [moment(n, g) * g ** (2.0 * n / 3.0) * 2.0 ** (n / 3.0)
                for g in (0.25, CANONICAL_GAMMA, 3.0)]
        worst = max(worst, max(abs(v - vals[0]) for v in vals))
    ok = worst <= 1e-10
    report(7, ok, f"gamma-invariance of scaled moments, n in {{2,4,6}}; "
                  f"worst dev {worst:.1e}")
    assert ok, worst


def test_criterion_08_cf_mgf_consistency(report):
    worst_ri = 0.0  # realness + evenness
    worst_eq = 0.0  # mgf(it) vs cf(t)
    for t in (0.5, 1.0, 2.0):
        v = char_fn(t)
        worst_ri = max(worst_ri, abs(v.imag), abs(v - char_fn(-t)))
        worst_eq = max(worst_eq, abs(mgf(complex(0.0, t)) - v))
    ser = sum(moment(n) * 0.5**n / math.factorial(n) for n in range(13))
    dev_series = abs(mgf(0.5).real - ser)
    ok = worst_ri <= 1e-8 and worst_eq <= 1e-8 and dev_series <= 1e-5
    report(8, ok, f"cf real/even {worst_ri:.1e}, mgf(it)=cf(t) {worst_eq:.1e}, "
                  f"mgf(1/2) vs series {dev_series:.1e}")
    assert ok, (worst_ri, worst_eq, dev_series)


def test_criterion_09_density(report):
    xs = np.arange(-6.0, 6.0 + 1e-9, 0.01)
    f = density_grid(xs)
    mass = np.trapezoid(f, xs)
    even = float(np.max(np.abs(f - f[::-1])))
    second = np.trapezoid(xs * xs * f, xs)
    dev2 = abs(second - moment(2))
    ok = abs(mass - 1.0) <= 1e-6 and even <= 1e-8 and dev2 <= 1e-5
    report(9, ok, f"mass-1 = {mass - 1.0:+.1e}, evenness {even:.1e}, "
                  f"second moment dev {dev2:.1e}")
    assert ok, (mass, even, dev2)


# ------------------------------------------------------------ Monte Carlo


MC_CONFIG = SimConfig(gamma=CANONICAL_GAMMA, horizon=4.0, step=1e-3,
                      num_paths=100_000, seed=2026)


@pytest.fixture(scope="module")
def mc_probe():
    t0 = time.perf_counter()
    fine, coarse = discretization_probe(MC_CONFIG)
    return fine, coarse, time.perf_counter() - t0


def _mean_se(x: np.ndarray) -> tuple[float, float]:
    return float(x.mean()), float(x.std(ddof=1) / math.sqrt(x.shape[0]))


def _ratio_se(w: np.ndarray, m: np.ndarray) -> tuple[float, float]:
    """mean(w)/mean(m) with a delta-method standard error."""
    n = w.shape[0]
    wb, mb = w.mean(), m.mean()
    r = wb / mb
    cov = np.cov(w, m, ddof=1)
    var = (cov[0, 0] / mb**2 - 2.0 * r * cov[0, 1] / mb**2
           + r * r * cov[1, 1] / mb**2) / n
    return float(r), math.sqrt(max(var, 0.0))


def test_criterion_10_monte_carlo_triangle(report, mc_probe):
    fine, coarse, elapsed = mc_probe
    lines = []
    ok = True

    # step-halving calibration: bias(h) = delta/(1 - 2^p) for h^p decay with
    # p >= 1/2, so 2.5|delta| covers it; 3 se(delta) covers the residual noise
    cases = [
        ("E V^2", fine.v**2, coarse.v**2, moment(2)),
        ("E V^4", fine.v**4, coarse.v**4, moment(4)),
        ("E M", fine.m, coarse.m, mean_max()),
    ]
    for name, xf, xc, analytic in cases:
        est, se = _mean_se(xf)
        dmean, dse = _mean_se(xf - xc)
        allow = 2.5 * abs(dmean) + 3.0 * dse
        dev = abs(est - analytic)
        good = dev <= 3.0 * se + allow
        ok = ok and good
        lines.append(f"{name} dev {dev:.1e} <= {3 * se + allow:.1e}")

    rf, sef = _ratio_se(fine.w_at_argmax, fine.m)
    rc, sec = _ratio_se(coarse.w_at_argmax, coarse.m)
    allow_r = 2.5 * abs(rf - rc) + 3.0 * (sef + sec)
    dev_r = abs(rf - 4.0 / 3.0)
    good = dev_r <= 3.0 * sef + allow_r
    ok = ok and good
    lines.append(f"E W/E M dev {dev_r:.1e} <= {3 * sef + allow_r:.1e}")

    vmean, vse = _mean_se(fine.v)
    good = abs(vmean) <= 3.0 * vse
    ok = ok and good
    lines.append(f"mean V {vmean:+.1e} <= {3 * vse:.1e}")

    ok = ok and elapsed < 300.0
    report(10, ok, "; ".join(lines) + f"; {elapsed:.0f} s")
    assert ok, lines


# sha256 of (v, m, w_at_argmax) for the fine and the coarse set of MC_CONFIG,
# taken before the sampler was rewritten as threaded blocks
MC_DIGESTS = (
    "6894c8512bc38689a0a869e493419068e9d08d62a8bdf93c2d8f432313e5960a",
    "7dfac87c8255a4db17f253912363b6b52fb81318e8e331cdecc2bc76f43f0fe5",
)


def test_criterion_10_samples_bit_identical(mc_probe):
    fine, coarse, _ = mc_probe
    digests = []
    for s in (fine, coarse):
        h = hashlib.sha256()
        for a in (s.v, s.m, s.w_at_argmax):
            h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
        digests.append(h.hexdigest())
    assert tuple(digests) == MC_DIGESTS

"""Numerical moment/transform tests against frozen independent references.

The ORACLE_* constants below were produced by an mpmath script (dps = 30,
tanh-sinh quadrature of the same contour integrands on z = iy, y in
[-40, 40]) and are pasted here verbatim so the suite never depends on the
code it is checking.  E V^10..20, cf(7.25..12) and f(3.5), f(4) are pasted
from perfbench/references.json, which perfbench/make_references.py computes
the same way without importing the package; the seeded contour sweep reads
that file directly.

At the TAIL_POINTS the pointwise Airy bounds alone exceed the default
1e-10 * |value|, so the default contour answers NoConvergence there; they
are checked on TAIL_CONTOUR instead.
"""

import hashlib
import json
import math
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest

from chernoff import airy, algebra, moments
from chernoff import (
    CANONICAL_GAMMA,
    ChernoffError,
    ContourSpec,
    ContourTooLeft,
    NoConvergence,
    OverflowDomain,
    RationalPoly,
    char_fn,
    char_fn_quad,
    contour_integral_inv_ai2,
    default_contour,
    density,
    density_grid,
    identity_suite,
    length_scale,
    mean_max,
    mean_max_quad,
    mgf,
    mgf_quad,
    moment,
    moment_by_parts,
    moment_quad,
)

ORACLE_EV = {
    0: 1.0,
    2: 0.4183748518553625210622,
    4: 0.4968045630233561973253,
    6: 0.938201001925788054969,
    8: 2.38173025749230321006,
    10: 7.50008537073058828462573392272,
    12: 27.9548544723584118957404974262,
    14: 119.615512422781205114992480222,
}
ORACLE_EV_HIGH = {
    16: 575.101376100618566211135226808,
    18: 3058.10555506737711450406928945,
    20: 17767.9504925954138565391460763,
}
ORACLE_EM = 0.8875070844745321882246
ORACLE_CF = {
    1.0: 0.8102667681352227335417,
    2.0: 0.4242816129413975656173,
    7.25: 0.00000215476935373635620384843857868,
    9.0: 0.00000000296378991499117754425847825732,
    10.0: -0.0000000410070842368529222403654530631,
    12.0: 0.0000000000337455777895541426164186642448,
}
ORACLE_MGF_HALF = 1.053611211407192435516
ORACLE_F = {
    0.0: 0.6018984746044277766123,
    1.0: 0.1951257693868412667605,
    3.5: 0.00000000173802819909439273202607864456,
    4.0: 0.000000000000539365384724851969100272638365,
}
TAIL_POINTS = {("moment", 14), ("cf", 7.25), ("cf", 9.0), ("cf", 10.0), ("cf", 12.0)}
TAIL_CONTOUR = ContourSpec(rel_tol=1e-6)


def _contour_for(kind, point):
    return TAIL_CONTOUR if (kind, point) in TAIL_POINTS else None


# ---------------------------------------------------------------- moments


def test_normalization():
    q = moment_quad(0)
    assert abs(q.value - 1.0) <= 1e-10
    assert q.err_estimate < 1e-10
    assert q.panels_used >= 4


@pytest.mark.parametrize("n", sorted(ORACLE_EV))
def test_canonical_moments_frozen(n):
    q = moment_quad(n, contour=_contour_for("moment", n))
    diff = abs(q.value - ORACLE_EV[n])
    assert diff <= 1e-9
    # the reported error bar must actually cover the difference
    assert diff <= q.err_estimate


@pytest.mark.parametrize("n", sorted(ORACLE_EV_HIGH))
def test_high_moments_honest_or_named_failure(n):
    try:
        q = moment_quad(n)
    except NoConvergence as exc:
        msg = str(exc)
        for part in ("budget", "err ~", "h = ", "Y = "):
            assert part in msg, msg
    else:
        assert abs(q.value - ORACLE_EV_HIGH[n]) <= q.err_estimate


def test_gamma_one_second_moment():
    # classic value for gamma = 1 follows from the canonical one by scaling
    want = 2.0 ** (-2.0 / 3.0) * ORACLE_EV[2]
    assert abs(moment(2, gamma=1.0) - want) <= 1e-9
    assert abs(want - 0.26355964) <= 5e-9  # sanity anchor


@pytest.mark.parametrize("n", [1, 3, 5, 7])
def test_odd_moments_vanish(monkeypatch, n):
    # p_n is the zero polynomial: no table is built and no node evaluated
    _empty_store(monkeypatch)
    calls = _count_airy_points(monkeypatch)
    q = moment_quad(n)
    assert (q.value, q.err_estimate, q.panels_used) == (0.0, 0.0, 0)
    assert calls == [] and list(moments._LINES) == []


@pytest.mark.parametrize("n", [2, 4, 6])
def test_gamma_scaling_invariance(n):
    vals = [
        moment(n, g) * 2.0 ** (n / 3.0) * g ** (2.0 * n / 3.0)
        for g in (0.25, CANONICAL_GAMMA, 3.0)
    ]
    for v in vals[1:]:
        assert abs(v - vals[0]) <= 1e-10


def test_contour_invariance():
    base = moment_quad(2)
    for sig in (0.5, 1.0):
        q = moment_quad(2, contour=replace(default_contour(), sigma=sig))
        assert abs(q.value - base.value) <= 2.0 * max(
            q.err_estimate + base.err_estimate, 1e-12
        )
        assert abs(q.value - base.value) <= 1e-10


def test_truncation_height_doubles_until_tail_is_negligible(monkeypatch):
    # a start at Y <= 1.17 once returned a silent 0; the cache key does not
    # hold Y, so a cached answer would pass without any quadrature
    moments._ai_product_integral.cache_clear()
    monkeypatch.setattr(moments, "_START_HEIGHT", 1.0)
    widths = []
    gather = moments._node_table

    def recorded(origin, h, half_width):
        widths.append(half_width)
        return gather(origin, h, half_width)

    monkeypatch.setattr(moments, "_node_table", recorded)
    q = moment_quad(2)
    moments._ai_product_integral.cache_clear()
    assert widths[0] == 2.0 and max(widths) > 2.0
    assert abs(q.value - ORACLE_EV[2]) <= q.err_estimate <= 1e-10


def test_warm_hit_builds_no_key(monkeypatch):
    # the default contour and each float key are built once; a repeated
    # request neither constructs a ContourSpec nor converts coefficients
    want = [moment_quad(6), moment_quad(6, 2.0), mean_max_quad(1.5)]

    def rebuilt(*args):
        raise AssertionError("cache key rebuilt on a warm hit")

    monkeypatch.setattr(ContourSpec, "__post_init__", rebuilt)
    monkeypatch.setattr(RationalPoly, "float_coeffs", rebuilt)
    assert [moment_quad(6), moment_quad(6, 2.0), mean_max_quad(1.5)] == want


@pytest.mark.parametrize("n, gamma", [(2, 1e-300), (202, CANONICAL_GAMMA),
                                      (12, 1.5e308 ** -0.125)])
def test_moment_overflow_is_typed(n, gamma):
    # gamma^(-2n/3) overflows at gamma = 1e-300; p_202 is the first moment
    # polynomial with a coefficient beyond the double range; the scale of
    # E V^12 is finite at 1.5e308^(-1/8), but not the scaled value
    with pytest.raises(OverflowDomain, match=rf"E V\^{n} at gamma = {gamma!r}"):
        moment_quad(n, gamma)


def test_exact_coefficient_overflow_is_typed():
    # (163, 0) is the first split (j, 0) with a coefficient beyond the
    # double range, and 10^400 is about 2^1328.8
    with pytest.raises(OverflowDomain, match="near 2\\^1024 overflows double precision"):
        moment_by_parts(163, 0)
    with pytest.raises(OverflowDomain, match="near 2\\^1328 overflows double precision"):
        contour_integral_inv_ai2(RationalPoly({0: 10**400}))


def test_by_parts_overflow_is_refused_once(monkeypatch):
    # the refusal is cached, so a repeat builds no exact product
    moments._by_parts_rows.cache_clear()
    calls = []
    product = algebra.term_sum_product

    def counted(a, b):
        calls.append((a, b))
        return product(a, b)

    monkeypatch.setattr(algebra, "term_sum_product", counted)
    messages = set()
    for _ in range(3):
        with pytest.raises(OverflowDomain) as exc:
            moment_by_parts(163, 0)
        messages.add(str(exc.value))
    assert len(calls) == 1 and len(messages) == 1


def test_moment_validation():
    for bad in (-1, 1.5, "2", True):
        with pytest.raises(ValueError):
            moment(bad)
    for bad in (0.0, -2.0, float("nan"), float("inf"), "x"):
        with pytest.raises(ValueError):
            moment(2, gamma=bad)


def _one_row_battery():
    """(label, request) for E V^0..20, E M at 3 gammas, 4 cf, 4 mgf and
    one int p/Ai^2, each at sigma 0 and 0.5 and rel_tol 1e-10 and 1e-13."""
    cubic = RationalPoly({0: Fraction(-2), 3: Fraction(1)})
    for sigma in (0.0, 0.5):
        for rel_tol in (1e-10, 1e-13):
            spec = ContourSpec(sigma=sigma, rel_tol=rel_tol)
            at = f" sigma={sigma} rel_tol={rel_tol}"
            for n in range(21):
                yield f"E V^{n}" + at, lambda n=n: moment_quad(n, contour=spec)
            for g in (CANONICAL_GAMMA, 1.0, 2.0):
                yield f"E M gamma={g}" + at, lambda g=g: mean_max_quad(g, spec)
            for t in (0.25, 1.0, 3.5, 7.25):
                yield f"cf {t}" + at, lambda t=t: char_fn_quad(t, spec)
            for t in (-3.0, -1.0, 0.5, 2.0):
                yield f"mgf {t}" + at, lambda t=t: mgf_quad(t, spec)
            yield "z^3 - 2" + at, lambda: contour_integral_inv_ai2(cubic, spec)


# SHA-256 over each request's label and either its value, err_estimate and
# panels_used bytes or its exception type and message; frozen before the
# integral took rows in r = Ai'/Ai, since keys with more rows must not move
# a bit of any one-row result.  Re-pinned when the first step became half
# of the coarsest step whose check could pass, which moved four labels, all
# at sigma=0.0 rel_tol=1e-13: "cf 1.0" returns at h = 1/8 on 770 nodes
# (err 2.4e-14, was 6.0e-14 on 386), and "cf 3.5", "cf 7.25" and "mgf 2.0"
# raise the same NoConvergence at h = 0.125 instead of 0.25.  Computed with
# numpy 2.4 on x86-64 Linux, like KERNEL_DIGEST in test_airy.py: another
# numpy build or libm may round a last bit differently, and then the digest
# must be recomputed there from that older code
ONE_ROW_DIGEST = "796b67b5ea681d9de7c1d793fc9123b165af437444a1626393d4f7e816ead1d9"


def test_one_row_results_bits_frozen():
    moments._ai_product_integral.cache_clear()
    digest = hashlib.sha256()
    for label, request in _one_row_battery():
        digest.update(label.encode())
        try:
            q = request()
        except ChernoffError as exc:
            digest.update(f"{type(exc).__name__}: {exc}".encode())
        else:
            for v in (q.value, q.err_estimate, q.panels_used):
                digest.update(np.asarray(v).tobytes())
    assert digest.hexdigest() == ONE_ROW_DIGEST


# ---------------------------------------------------------------- by parts


def test_by_parts_unit():
    assert abs(moment_by_parts(0, 0) - 1.0) <= 1e-10


def test_by_parts_splits():
    m2 = moment(2)
    assert abs(moment_by_parts(1, 1) - m2) <= 1e-7
    m4 = moment(4)
    for j in range(5):
        assert abs(moment_by_parts(4 - j, j) - m4) <= 1e-6, j


def test_by_parts_high_order_is_typed():
    # the split (7, 7) cancels below its Airy bounds, so it raises the typed
    # bound-floor NoConvergence; r = Ai'/Ai keeps every far node finite, so
    # no RuntimeWarning either
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            v = moment_by_parts(7, 7)
        except NoConvergence as exc:
            assert "Airy bounds and rounding exceed the tolerance" in str(exc)
        else:
            assert abs(v - ORACLE_EV[14]) <= default_contour().rel_tol * ORACLE_EV[14]


def test_by_parts_reads_the_cache(monkeypatch):
    # a repeated split gathers no table, and for even n the split (1, 3)
    # builds the same P(z, r) as (3, 1), so it gathers none either
    moments._ai_product_integral.cache_clear()
    steps = _count_gather_steps(monkeypatch)
    v = moment_by_parts(3, 1)
    assert steps
    steps.clear()
    assert moment_by_parts(3, 1) == v and steps == []
    assert moment_by_parts(1, 3) == v and steps == []
    assert moments._by_parts_rows(1, 3) == moments._by_parts_rows(3, 1)


# by-parts splits with n <= 8 that return at each rel_tol (measured when
# the route joined the cached integral; more may return, none fewer)
BY_PARTS_RETURNED = {1e-5: 37, 1e-8: 23, 1e-10: 14}


@pytest.mark.parametrize("rel_tol", sorted(BY_PARTS_RETURNED))
def test_by_parts_error_covers_oracle(rel_tol):
    # the error is read from the cached raw triple, since moment_by_parts
    # returns a bare float; odd moments are 0
    spec = ContourSpec(rel_tol=rel_tol)
    returned = 0
    for n in range(9):
        for k in range(n + 1):
            try:
                raw = moments._ai_product_integral(moments._by_parts_rows(n - k, k), 0, spec)
            except NoConvergence:
                continue
            q = moments._real(raw, 1.0)
            returned += 1
            assert abs(q.value - ORACLE_EV.get(n, 0.0)) <= q.err_estimate, (n - k, k)
            assert moment_by_parts(n - k, k, spec) == q.value
    assert returned >= BY_PARTS_RETURNED[rel_tol]


# ---------------------------------------------------------------- mean max


def test_mean_max_frozen():
    q = mean_max_quad()
    assert abs(q.value - ORACLE_EM) <= 1e-9
    assert abs(q.value - ORACLE_EM) <= q.err_estimate


@pytest.mark.parametrize("g", [CANONICAL_GAMMA, 1.0, 2.0])
def test_mean_max_relation(g):
    # E V^2 = E M / (3 gamma)
    assert abs(moment(2, g) - mean_max(g) / (3.0 * g)) <= 1e-6


def test_mean_max_scaling():
    vals = [mean_max(g) * g ** (1.0 / 3.0) for g in (0.25, 1.0, 3.0)]
    for v in vals[1:]:
        assert abs(v - vals[0]) <= 1e-10


# ---------------------------------------------------------------- char fn


def test_char_fn_at_zero():
    assert abs(char_fn(0.0) - 1.0) <= 1e-10


@pytest.mark.parametrize("t", sorted(ORACLE_CF))
def test_char_fn_frozen(t):
    q = char_fn_quad(t, _contour_for("cf", t))
    assert abs(q.value.real - ORACLE_CF[t]) <= 1e-9
    assert abs(q.value.imag) <= 1e-10
    assert abs(q.value - ORACLE_CF[t]) <= q.err_estimate


@pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
def test_char_fn_even_real(t):
    a = char_fn(t)
    b = char_fn(-t)
    assert abs(a - b) <= 1e-8
    q = char_fn_quad(t)
    assert abs(q.value.imag) <= q.err_estimate + 1e-12


def test_char_fn_envelope():
    ts = np.arange(0.0, 6.1, 0.75)
    mags = [abs(char_fn(float(t))) for t in ts]
    assert all(m <= 1.0 + 1e-10 for m in mags)
    assert all(b < a for a, b in zip(mags, mags[1:]))


def test_char_fn_validation():
    for bad in (float("nan"), float("inf"), 1j, "1", True):
        with pytest.raises(ValueError):
            char_fn(bad)


# ---------------------------------------------------------------- mgf


def test_mgf_at_zero():
    assert abs(mgf(0.0) - 1.0) <= 1e-10


def test_mgf_frozen_and_series():
    q = mgf_quad(0.5)
    v = q.value
    assert abs(v - ORACLE_MGF_HALF) <= 1e-9
    assert abs(v - ORACLE_MGF_HALF) <= q.err_estimate
    # truncated moment series; V^13 tail is far below 1e-5 at t = 1/2
    ser = sum(moment(n) * 0.5**n / math.factorial(n) for n in range(13))
    assert abs(v.real - ser) <= 1e-5


def test_mgf_matches_char_fn_on_imaginary_axis():
    for t in (0.5, 1.0, 2.0):
        assert abs(mgf(complex(0.0, t)) - char_fn(t)) <= 1e-8


def test_mgf_even_via_shifted_contour():
    # t = -3 forces the automatic sigma shift; symmetry ties it back to t = +3
    a = mgf(3.0)
    b = mgf(-3.0)
    assert abs(a - b) <= 1e-8 * abs(a)
    assert abs(a.imag) <= 1e-10 * abs(a)


def test_mgf_contour_too_left():
    with pytest.raises(ContourTooLeft):
        mgf(-3.0, ContourSpec(sigma=0.0))
    with pytest.raises(ContourTooLeft):
        mgf(0.5, ContourSpec(sigma=-2.5))
    # the contour's sigma = 0 is taken, not the automatic shift
    with pytest.raises(ContourTooLeft, match="sigma = 0.0"):
        mgf_quad(-3.0, contour=ContourSpec())


def test_mgf_integrates_on_the_contour_sigma():
    on_contour = mgf_quad(0.5, contour=ContourSpec(sigma=1.0))
    # without a contour the line is default_mgf_sigma(t), here sigma = 0
    default = mgf_quad(0.5)
    named = mgf_quad(0.5, ContourSpec(sigma=moments.default_mgf_sigma(0.5 + 0j)))
    assert _bits(_quad_fields(default)) == _bits(_quad_fields(named))
    assert default.panels_used == named.panels_used
    # a line other than the automatic sigma = 0, on which the value agrees
    assert on_contour.value != default.value
    assert abs(on_contour.value - ORACLE_MGF_HALF) <= on_contour.err_estimate


def test_mgf_validation():
    for t in (complex(float("nan"), 0.0), "1", "0.5+1j", True, False):
        with pytest.raises(ValueError):
            mgf(t)
        with pytest.raises(ValueError):
            mgf_quad(t, ContourSpec(sigma=1.0))
    for sigma in (True, "1", float("nan"), float("inf")):
        with pytest.raises(ValueError):
            mgf(0.5, ContourSpec(sigma=sigma))
    # the contour is the one way to name the line
    with pytest.raises(TypeError):
        mgf_quad(0.5, sigma=1.0)


def test_repeated_cf_and_mgf_gather_no_table(monkeypatch):
    jobs = [(char_fn_quad, 1.5), (char_fn_quad, 1.0 / 3.0), (mgf_quad, -2.25),
            (mgf_quad, complex(-1.0, 0.3))]
    want = [f(t) for f, t in jobs]
    steps = _count_gather_steps(monkeypatch)
    assert [f(t) for f, t in jobs] == want
    assert steps == []


def test_zero_shift_reads_one_line():
    # cf(0) = mgf(0) is the normalization integral of 1/Ai^2, on one line
    one = contour_integral_inv_ai2(RationalPoly({0: Fraction(1)}))
    for q in (char_fn_quad(0.0), mgf_quad(0.0)):
        assert _bits(np.array([q.value.real])) == _bits(np.array([one.value]))
        assert q.panels_used == one.panels_used == 193


@pytest.mark.parametrize("sigma", [100.0, 1e6, 1e300])
def test_far_contour_fails_typed_without_warnings(sigma):
    # 1/Ai^2 overflows along the line at sigma = 100; further out Ai
    # itself underflows to 0
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NoConvergence, match="integrand not finite"):
            moment_quad(2, contour=ContourSpec(sigma=sigma))


@pytest.mark.parametrize("t", [1e300, -1e300])
def test_far_mgf_fails_typed_without_warnings(t):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NoConvergence, match="integrand not finite"):
            mgf_quad(t)


REFERENCES = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "references.json").read_text())


def _draw_contour(rng) -> ContourSpec:
    """sigma uniform left or right of 3, rel_tol log-uniform on [1e-13, 1e-3]."""
    sigma = rng.uniform(-2.3, 3.0) if rng.random() < 0.5 else rng.uniform(3.0, 40.0)
    return ContourSpec(sigma=float(sigma), rel_tol=float(10.0 ** rng.uniform(-13.0, -3.0)))


def test_seeded_contour_sweep_returns_no_value_outside_its_error():
    # the integrals do not depend on the contour, so the frozen references
    # serve every draw; right of sigma = 8, and at sigma = 0 with rel_tol
    # above 6e-4, a step sized from the strip alone samples the phase of
    # 1/Ai^2 so coarsely that T_h and T_2h agree on values up to 1e149 off
    rng = np.random.default_rng(16)
    cf_ts, mgf_ts = sorted(REFERENCES["cf"]), sorted(REFERENCES["mgf"])
    returned, lies = 0, []
    for _ in range(300):
        spec = _draw_contour(rng)
        kind = int(rng.integers(3))
        if kind == 0:
            n = 2 * int(rng.integers(7))
            ref, call = REFERENCES["moments"][str(n)], lambda: moment_quad(n, contour=spec)
        elif kind == 1:
            t = cf_ts[int(rng.integers(len(cf_ts)))]
            ref, call = REFERENCES["cf"][t], lambda: char_fn_quad(float(t), spec)
        else:
            t = mgf_ts[int(rng.integers(len(mgf_ts)))]
            ref, call = REFERENCES["mgf"][t], lambda: mgf_quad(float(t), contour=spec)
        try:
            q = call()
        except ChernoffError:
            continue
        returned += 1
        if not abs(q.value - float(ref)) <= q.err_estimate:
            lies.append((kind, spec, q))
    assert lies == []
    assert returned >= 100


@pytest.mark.parametrize("seed", [17, 18])
def test_seeded_sweep_over_gamma_splits_and_density_tol(seed):
    # the same frozen references serve more kinds: E V^n and E M at gamma
    # log-uniform on [0.25, 4] through the exact scaling, the by-parts
    # splits with n <= 8 through the cached raw triple (moment_by_parts
    # returns a bare float), and density tables at tol log-uniform on
    # [1e-12, 1e-2], each value within tol of the density menu
    rng = np.random.default_rng(seed)
    menu = sorted(REFERENCES["density"], key=float)
    returned, lies = 0, []
    with mpmath.workdps(30):
        for _ in range(400):
            spec = _draw_contour(rng)
            gamma = float(np.exp(rng.uniform(math.log(0.25), math.log(4.0))))
            kind = int(rng.integers(4))
            if kind == 0:
                # V_gamma is length_scale(gamma) = (2 gamma^2)^{-1/3} times V
                n = 2 * int(rng.integers(7))
                ref = mpmath.mpf(REFERENCES["moments"][str(n)]) \
                    / mpmath.cbrt(2 * mpmath.mpf(gamma) ** 2) ** n
                call = lambda: moment_quad(n, gamma, spec)
            elif kind == 1:
                # E M scales as gamma^{-1/3}; the canonical gamma is 2^{-1/2}
                ref = mpmath.mpf(REFERENCES["mean_max"]) / mpmath.cbrt(gamma * mpmath.sqrt(2))
                call = lambda: mean_max_quad(gamma, spec)
            elif kind == 2:
                n = int(rng.integers(9))
                k = int(rng.integers(n + 1))
                rows = moments._by_parts_rows(n - k, k)
                ref = mpmath.mpf(REFERENCES["moments"][str(n)])
                call = lambda: moments._real(moments._ai_product_integral(rows, 0, spec), 1.0)
            else:
                tol = float(10.0 ** rng.uniform(-12.0, -2.0))
                keys = rng.choice(menu, size=int(rng.integers(1, 9)), replace=False)
                xs = np.array([float(x) for x in keys]) * rng.choice((-1.0, 1.0), keys.size)
                try:
                    f = density_grid(xs, tol=tol)
                except ChernoffError:
                    continue
                returned += f.size
                lies += [(x, tol, v) for x, key, v in zip(xs, keys, f)
                         if not abs(v - float(REFERENCES["density"][key])) <= tol]
                continue
            try:
                q = call()
            except ChernoffError:
                continue
            returned += 1
            if not abs(q.value - float(ref)) <= q.err_estimate:
                lies.append((kind, gamma, spec, q))
    assert lies == []
    assert returned >= 400


def test_seeded_mgf_symmetry_sweep_off_the_imaginary_axis():
    # complex t has no frozen reference, but V is symmetric, so
    # mgf(t) = mgf(-t): each of the two goes on its own line, drawn over a
    # width of 40 from the leftmost one that keeps both Ai arguments 0.05
    # right of a_1, and a returned pair must agree within its two errors
    rng = np.random.default_rng(19)
    a1 = airy.airy_zero(1)
    returned, lies = 0, []
    for _ in range(300):
        t = complex(rng.uniform(-6.0, 4.0), rng.uniform(-8.0, 8.0))
        rel_tol = float(10.0 ** rng.uniform(-13.0, -3.0))
        pair = []
        for u in (t, -t):
            sigma = a1 + 0.05 + max(0.0, -u.real) + float(rng.uniform(0.0, 40.0))
            try:
                pair.append(mgf_quad(u, ContourSpec(sigma=sigma, rel_tol=rel_tol)))
            except ChernoffError:
                pass
        if len(pair) < 2:
            continue
        returned += 1
        q1, q2 = pair
        if not abs(q1.value - q2.value) <= q1.err_estimate + q2.err_estimate:
            lies.append((t, rel_tol, q1, q2))
    assert lies == []
    assert returned >= 40


def test_node_budget_alone_bounds_the_height(monkeypatch):
    # a tail that never decays doubles Y until the next table would pass
    # the node budget
    moments._ai_product_integral.cache_clear()
    monkeypatch.setattr(moments, "_tail", lambda w, k, h, y: 1e300)
    with pytest.raises(NoConvergence, match="node budget exhausted"):
        moment_quad(2, contour=ContourSpec(sigma=2.0, rel_tol=1e-3))


# ---------------------------------------------------------------- contour plumbing


def test_contour_spec_validation():
    with pytest.raises(ContourTooLeft):
        ContourSpec(sigma=-2.4)
    for kw in (
        {"rel_tol": 0.0},
        {"rel_tol": 1.5},
        {"rel_tol": "1e-6"},
        {"rel_tol": None},
        {"rel_tol": float("nan")},
        {"sigma": True},
        {"sigma": "0"},
        {"sigma": float("inf")},
    ):
        with pytest.raises(ValueError):
            ContourSpec(**kw)
    # the step, the truncation height and the node budget are the rule's own
    for kw in ({"truncation_height": 12.0}, {"max_panels": 4000}):
        with pytest.raises(TypeError):
            ContourSpec(**kw)


def test_contour_integral_type_checks():
    with pytest.raises(TypeError):
        contour_integral_inv_ai2([1.0, 2.0])


def test_no_convergence_on_tiny_budget(monkeypatch):
    moments._ai_product_integral.cache_clear()
    monkeypatch.setattr(moments, "_LINE_NODES", 8)
    with pytest.raises(NoConvergence, match="budget 8 Airy nodes"):
        contour_integral_inv_ai2(RationalPoly({0: Fraction(1)}), ContourSpec(rel_tol=1e-13))


def _empty_store(monkeypatch, cap=None):
    # cached results would answer without reading the store
    moments._ai_product_integral.cache_clear()
    monkeypatch.setattr(moments, "_LINES", {})
    if cap is not None:
        monkeypatch.setattr(moments, "_TABLE_NODES", cap)


def _count_airy_points(monkeypatch):
    """Record every array of nodes handed to the Airy kernel."""
    calls = []
    evaluate = moments._ai_kernel

    def counted(z):
        calls.append(z.copy())
        return evaluate(z)

    monkeypatch.setattr(moments, "_ai_kernel", counted)
    return calls


def test_sigma0_table_is_shared(monkeypatch):
    _empty_store(monkeypatch)
    calls = _count_airy_points(monkeypatch)
    moment_quad(2)
    assert sum(z.size for z in calls) > 0
    for n in range(13):
        moment_quad(n)
    refined = sum(z.size for z in calls)
    mean_max_quad()
    for x in np.linspace(-3.0, 3.0, 25):
        density(float(x))
    assert sum(z.size for z in calls) == refined
    # each node was evaluated once, all on one line: E V^8..12 refine it to
    # h = 1/8 on |y| <= 2Y = 24, and nothing else adds a node
    assert list(moments._LINES) == [0.0]
    assert refined == 193
    assert np.array_equal(moments._LINES[0.0].y, np.arange(193) / 8.0)


def _count_gather_steps(monkeypatch):
    """Record the step of every table gathered from the node store."""
    steps = []
    gather = moments._node_table

    def counted(origin, h, half_width):
        steps.append(h)
        return gather(origin, h, half_width)

    monkeypatch.setattr(moments, "_node_table", counted)
    return steps


def test_cf_reads_the_sigma0_line(monkeypatch):
    # after E V^12 the sigma = 0 line holds every multiple of 1/8 up to its
    # reach; a cf at a quarter-integer t adds only the nodes beyond it, and
    # starts at the step its tolerance can accept
    _empty_store(monkeypatch)
    calls = _count_airy_points(monkeypatch)
    steps = _count_gather_steps(monkeypatch)
    moment_quad(12)
    for t in np.arange(0.25, 7.0 + 1e-9, 0.25):
        reach = moments._LINES[0.0].y.max()
        calls.clear()
        steps.clear()
        char_fn_quad(float(t))
        assert list(moments._LINES) == [0.0]
        z = np.concatenate(calls)
        assert z.size <= 2 and np.all(np.abs(z.imag) > reach), t
        assert len(set(steps)) <= 2, (t, steps)


@pytest.mark.parametrize("t", [-3.0, 1.25])
def test_fresh_mgf_line_takes_one_kernel_call(monkeypatch, t):
    # mgf(-3) opens the lines Re z = a_1 + 4 and a_1 + 1 (strip half-width
    # 1), mgf(1.25) the lines 0 and 1.25; the first level's check passes,
    # so each line reaches the kernel once
    _empty_store(monkeypatch)
    calls = _count_airy_points(monkeypatch)
    mgf_quad(t)
    per_line = {}
    for z in calls:
        assert np.all(z.real == z.real[0])
        per_line[float(z.real[0])] = per_line.get(float(z.real[0]), 0) + 1
    assert sorted(per_line) == sorted(moments._LINES)
    assert len(per_line) == 2 and set(per_line.values()) == {1}, per_line


def test_warm_requests_evaluate_no_airy_point(monkeypatch):
    # once the sigma = 0 line holds the nodes a request reads, a repeat of
    # the same table is gathered from the store alone
    _empty_store(monkeypatch)
    calls = _count_airy_points(monkeypatch)
    char_fn_quad(2.5)
    density(1.0)
    cold = len(calls)
    moments._ai_product_integral.cache_clear()
    char_fn_quad(2.5)
    density(1.0)
    assert cold > 0 and len(calls) == cold


def _quad_fields(q):
    v = complex(q.value)
    return np.array([v.real, v.imag, q.err_estimate])


def _outcome_key(r):
    """What a request's bits are compared by: a NoConvergence by its type."""
    if isinstance(r, str):
        return r
    if isinstance(r, np.ndarray):
        return _bits(r)
    return _bits(_quad_fields(r)), r.panels_used


def _oracle(fn, args):
    """The frozen reference of a request of the first-step battery, or None
    (density tables off the canonical gamma have none)."""
    if fn is density_grid:
        xs, gamma = args
        return (np.array([float(REFERENCES["density"][repr(abs(float(x)))]) for x in xs])
                if gamma == CANONICAL_GAMMA else None)
    if fn is moment_quad:
        return ORACLE_EV[args[0]]
    if fn is mean_max_quad:
        return ORACLE_EM
    if fn is char_fn_quad and args[0] in ORACLE_CF_OFF_GRID:
        return ORACLE_CF_OFF_GRID[args[0]]
    kind = "cf" if fn is char_fn_quad else "mgf"
    return float(REFERENCES[kind][repr(float(args[0]))])


def test_first_step_skips_only_levels_that_cannot_pass(monkeypatch):
    # against a start at the strip half-width, which walks every level the
    # rule walks and coarser ones, a result may differ only where that start
    # returns at a step coarser than the rule's first one; there the rule's
    # result returns too, with an error no larger, within its oracle
    gammas = (CANONICAL_GAMMA, 0.3, 3.0)
    xs = np.linspace(-3.0, 3.0, 13)
    requests = [(density_grid, (xs, g), {"tol": tol})
                for tol in (1e-4, 1e-8, 1e-12) for g in gammas]
    for rel_tol in (1e-6, 1e-10, 1e-13):
        for sigma in (0.0, 0.5, 2.0):
            spec = ContourSpec(sigma=sigma, rel_tol=rel_tol)
            requests += [(moment_quad, (n,), {"contour": spec}) for n in range(0, 13, 2)]
            requests.append((mean_max_quad, (), {"contour": spec}))
            requests += [(char_fn_quad, (t, spec), {}) for t in (1.0 / 3.0, 1.0, 2.5, 5.0)]
            requests += [(mgf_quad, (t,), {"contour": spec}) for t in (-2.0, -0.75, 0.5, 2.25)]
    steps = _count_gather_steps(monkeypatch)

    def run():
        """Per request: its result (a NoConvergence as its type name), and
        the steps of its first and last tables."""
        moments._ai_product_integral.cache_clear()
        out = []
        for fn, args, kwargs in requests:
            steps.clear()
            try:
                r = fn(*args, **kwargs)
            except NoConvergence as exc:
                r = type(exc).__name__
            out.append((r, steps[0], steps[-1]))
        return out

    got = run()
    monkeypatch.setattr(moments, "_first_step", lambda a, tol: moments._dyadic_floor(a))
    coarse = run()
    moments._ai_product_integral.cache_clear()
    changed = []
    for (fn, args, kwargs), (new, first, _), (old, _, old_last) in zip(requests, got, coarse):
        if _outcome_key(new) == _outcome_key(old):
            continue
        changed.append((fn.__name__, args))
        assert not isinstance(old, str) and old_last > first, (fn.__name__, args, old_last)
        assert not isinstance(new, str), (fn.__name__, args)
        ref = _oracle(fn, args)
        assert ref is not None, (fn.__name__, args)
        if fn is density_grid:
            assert np.all(np.abs(new - ref) <= kwargs["tol"])
        else:
            assert new.err_estimate <= old.err_estimate
            assert abs(new.value - ref) <= new.err_estimate, (fn.__name__, args, new)
    assert any(isinstance(r, str) for r, _, _ in got)     # failures are compared too
    # the one request of this battery that a skipped level returned
    assert changed == [("char_fn_quad", (1.0, ContourSpec(sigma=0.0, rel_tol=1e-13)))]


def _bits(*arrays):
    return [np.ascontiguousarray(a).view(np.uint8).tobytes() for a in arrays]


def _direct_table(origin, h, half_width):
    """The table's nodes z and its (1/Ai, bnd/|Ai|, Ai'/Ai, bnd/|Ai'|),
    formed from one direct kernel call at the mirror images above the real
    axis and conjugated below it, as the kernel does for Ai and Ai'.  Formed
    at z itself they differ only in the sign of the 0 that stands for 1/Ai
    where Ai overflows below the axis: conj(0j) is 0 - 0j."""
    m = math.floor(half_width / h)
    z = origin + 1j * h * np.arange(-m, m + 1)
    ai, aip, bnd = airy._ai_kernel(z.real + 1j * np.abs(z.imag))
    finite = np.isfinite(ai)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = np.where(finite, 1.0 / ai, 0.0)
        rel = np.where(finite, bnd / np.abs(ai), 0.0)
    r = aip * inv
    low = np.signbit(z.imag)
    return (np.where(low, inv.conj(), inv), rel, np.where(low, r.conj(), r),
            bnd / np.maximum(np.abs(aip), 1e-300)), z


@pytest.mark.parametrize("origin, h, half_width", [
    (0j, 0.25, 24.0), (0j, 0.125, 24.0), (2.5j, 0.125, 24.0), (-7.25j, 1.0, 48.0),
    (1j / 3.0, 0.0625, 12.0), (0.1j, 0.3, 10.0), (0.5 + 0j, 0.5, 24.0),
    (-1.3 + 2.0j, 0.25, 24.0), (3.0 - 1.5j, 0.125, 6.0), (0j, 1.0, 600.0)])
def test_table_bits_equal_direct_kernel(monkeypatch, origin, h, half_width):
    # the store is filled by other tables first, so the table mixes nodes read
    # from it, mirrored across the real axis and evaluated fresh
    _empty_store(monkeypatch)
    for c, step in ((origin.real + 0j, 0.5), (origin.real + 2j, 0.25), (origin, 2.0 * h)):
        moments._node_table(c, step, 24.0)
    tab = moments._node_table(origin, h, half_width)
    assert _bits(*tab) == _bits(*_direct_table(origin, h, half_width)[0])


# mpmath (dps 40, tanh-sinh on z = i y, y in [-40, 40]) at the double t
ORACLE_CF_OFF_GRID = {
    1.0 / 3.0: 0.977010732087816297175677136885,
    0.1: 0.997910194457269337646442678028,
    math.sqrt(2.0): 0.654884012063300233728507930413,
}


@pytest.mark.parametrize("t", sorted(ORACLE_CF_OFF_GRID))
def test_char_fn_off_the_dyadic_grid(t):
    q = char_fn_quad(t)
    assert abs(q.value - ORACLE_CF_OFF_GRID[t]) <= q.err_estimate <= 1e-10


def _mixed_requests():
    # the cf reads the sigma = 0 line; each mgf adds the line Re z = sigma + t
    return [(char_fn, 0.5), (mgf, 0.75), (char_fn, 2.5), (mgf, -1.5), (mgf, 1.5)]


def test_node_tables_shared_between_threads(monkeypatch):
    jobs = _mixed_requests()
    want = [f(t) for f, t in jobs]
    # a cap below one mgf's two lines makes every new line evict
    _empty_store(monkeypatch, cap=150)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            got = list(pool.map(lambda job: job[0](job[1]), jobs * 2, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert got == want * 2
    held = sum(line.y.size for line in moments._LINES.values())
    assert held <= 150 or len(moments._LINES) == 1


def test_node_count_follows_inserts_and_evictions(monkeypatch):
    _empty_store(monkeypatch, cap=400)
    lines = set()
    for f, t in _mixed_requests():
        f(t)
        lines |= set(moments._LINES)
        held = sum(line.y.size for line in moments._LINES.values())
        assert held <= 400 or len(moments._LINES) == 1
        for line in moments._LINES.values():
            assert np.all(np.diff(line.y) > 0.0) and line.y[0] >= 0.0
    assert len(lines) > len(moments._LINES)     # some line was evicted


def test_store_past_the_cap_keeps_only_the_table_being_read(monkeypatch):
    # each mgf reads the line sigma and the line sigma + t; the insert that
    # would pass the cap drops every other line
    _empty_store(monkeypatch, cap=400)
    for t in (0.75, 1.5, -1.5, 2.25):
        mgf(t)
    assert sorted(moments._LINES) == [0.0, 2.25]


def test_one_line_stays_under_the_cap(monkeypatch):
    # a cf at t off the dyadic grid adds new ordinates to the sigma = 0 line
    # on every request; past the cap the line keeps only the table being read
    ts = [0.1 + 0.13 * k for k in range(40)]
    want = [char_fn(t) for t in ts]
    _empty_store(monkeypatch, cap=1000)
    got = []
    for t in ts:
        got.append(char_fn(t))
        assert list(moments._LINES) == [0.0]
        assert moments._LINES[0.0].y.size <= 1000
    assert got == want


def test_line_larger_than_the_cap_holds_one_table(monkeypatch):
    _empty_store(monkeypatch, cap=100)
    for tau in (0.3, 0.7, 1.1):
        tab = moments._node_table(1j * tau, 0.125, 24.0)
        direct, z = _direct_table(1j * tau, 0.125, 24.0)
        assert np.array_equal(moments._LINES[0.0].y, np.unique(np.abs(z.imag)))
        assert _bits(*tab) == _bits(*direct)


def test_quad_result_fields():
    q = contour_integral_inv_ai2(RationalPoly({0: Fraction(1)}))
    assert isinstance(q.value, float)
    assert q.err_estimate >= 0.0
    assert isinstance(q.panels_used, int)


# ---------------------------------------------------------------- density


@pytest.mark.parametrize("x", sorted(ORACLE_F))
def test_density_frozen(x):
    # tol bounds the density's own error
    assert abs(density(x, tol=1e-10) - ORACLE_F[x]) <= 1e-10


def test_density_symmetric():
    for x in (0.4, 1.1, 2.0):
        assert abs(density(x) - density(-x)) <= 2e-8


def test_density_grid_matches_pointwise():
    xs = np.array([-1.5, -0.3, 0.0, 0.8, 2.2])
    grid = density_grid(xs)
    for x, g in zip(xs, grid):
        assert abs(g - density(float(x), tol=1e-10)) <= 1e-9


def test_density_normalization_and_second_moment():
    xs = np.arange(-6.0, 6.0 + 1e-9, 0.01)
    f = density_grid(xs)
    assert np.all(f > -1e-12)
    mass = np.trapezoid(f, xs)
    assert abs(mass - 1.0) <= 1e-6
    second = np.trapezoid(xs * xs * f, xs)
    assert abs(second - moment(2)) <= 1e-5


def test_density_grid_large_gamma():
    # u = x / s reaches 163 here; a step fixed for |u| <= 20 aliases
    xs = np.arange(-6.0, 6.0 + 1e-9, 0.005)
    f = density_grid(xs, gamma=100.0)
    assert abs(np.trapezoid(f, xs) - 1.0) <= 1e-6
    assert np.all(f >= -1e-12)
    assert f[-1] < 1e-12


def test_density_grid_memory_does_not_grow_with_grid():
    import tracemalloc

    xs = np.linspace(-3.0, 3.0, 20001)
    density_grid(xs[:5])  # the table itself is not what is measured
    tracemalloc.start()
    try:
        density_grid(xs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def test_density_grid_out_of_budget_raises():
    # |u| = 6 / s ~ 3500 needs a step far below the node budget's reach
    with pytest.raises(NoConvergence, match="budget"):
        density_grid(np.array([-6.0, 6.0]), gamma=1e4)


def test_density_grid_non_finite_xs_rejected():
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="xs must be finite"):
            density_grid(np.array([0.0, bad]))


def test_density_overflow_at_canonical_scale_is_typed():
    # x / length_scale(1e6) overflows for a finite x near the double range
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(OverflowDomain, match="overflows double precision"):
            density(1e308, gamma=1e6)
        with pytest.raises(OverflowDomain):
            density_grid(np.array([0.0, -1e308]), gamma=1e6)


def test_density_grid_airy_floor_at_large_gamma():
    # f(0) = 16.3 at gamma = 100: an absolute tol of 1e-12 asks each factor
    # g for about 6e-14 relative, below the Airy-bound floor (ROADMAP item 5)
    with pytest.raises(NoConvergence, match="Airy bounds and rounding exceed"):
        density_grid(np.array([0.0]), 100.0, 1e-12)
    s = length_scale(100.0)
    f0 = density_grid(np.array([0.0]), 100.0, 1e-11)[0]
    assert abs(f0 - density(0.0) / s) <= 1e-11 + 1e-8 / s


def test_density_gamma_rescales():
    g = 2.0
    s = length_scale(g)  # = 1/2 at gamma = 2
    assert abs(s - 0.5) <= 1e-15
    for x in (0.0, 0.3, 0.9):
        assert abs(density(x, gamma=g) - density(x / s) / s) <= 1e-7
    xs = np.arange(-3.0, 3.0 + 1e-9, 0.005)
    second = np.trapezoid(xs * xs * density_grid(xs, gamma=g), xs)
    assert abs(second - moment(2, gamma=g)) <= 1e-5


def test_density_validation():
    with pytest.raises(ValueError):
        density(float("inf"))
    with pytest.raises(ValueError):
        density(0.0, tol=1e-13)
    with pytest.raises(ValueError):
        density(0.0, tol=0.5)
    with pytest.raises(ValueError):
        density_grid(np.zeros((2, 2)))


def _density_battery():
    """(label, request) for 48 tables: 4 gammas x 3 tols x 4 grids, and the
    over-budget table at gamma = 1e4."""
    grids = {"linspace(-3, 3, 13)": np.linspace(-3.0, 3.0, 13),
             "arange(-6, 6, 0.05)": np.arange(-6.0, 6.0, 0.05),
             "[0]": np.array([0.0]), "[4.5, -5]": np.array([4.5, -5.0])}
    for g in (CANONICAL_GAMMA, 0.3, 3.0, 100.0):
        for tol in (1e-4, 1e-8, 1e-12):
            for name, xs in grids.items():
                yield (f"gamma={g} tol={tol} xs={name}",
                       lambda xs=xs, g=g, tol=tol: density_grid(xs, g, tol))
    yield "gamma=1e4 xs=[-6, 6]", lambda: density_grid(np.array([-6.0, 6.0]), 1e4)


# SHA-256 over each request's label and either its table's bytes or its
# exception type and message; frozen before the line sum took over the
# density's charges, which may round them differently but must not move a
# bit of any table.  Computed with numpy 2.4 on x86-64 Linux, like
# ONE_ROW_DIGEST: another numpy build or libm may round a last bit
# differently, and then the digest must be recomputed there from that
# older code
DENSITY_DIGEST = "c437fd1a36a90ed3989279439661fa7495a982d247e07b01161197cd55bec7b4"


def test_density_tables_bits_frozen():
    digest = hashlib.sha256()
    for label, request in _density_battery():
        digest.update(label.encode())
        try:
            f = request()
        except ChernoffError as exc:
            digest.update(f"{type(exc).__name__}: {exc}".encode())
        else:
            digest.update(f.tobytes())
    assert digest.hexdigest() == DENSITY_DIGEST


# ---------------------------------------------------------------- identity suite


def test_identity_suite_passes():
    checks = identity_suite()
    assert len(checks) >= 8
    for c in checks:
        assert c.passed, c.describe()
        assert "ok" in c.describe()


def test_length_scale():
    assert abs(length_scale(CANONICAL_GAMMA) - 1.0) <= 1e-15
    assert abs(length_scale(2.0) - 0.5) <= 1e-15
    with pytest.raises(ValueError):
        length_scale(0.0)

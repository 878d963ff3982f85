"""Tests for the Airy evaluator: values, error bounds, zeros, failure modes.

Reference values were computed with mpmath at 30 significant digits and are
frozen here so the suite does not silently drift with the oracle.
"""

import cmath
import hashlib
import math
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chernoff import (
    AccuracyUnreachable,
    OverflowDomain,
    airy,
    airy_ai,
    airy_zero,
)

# the target is an *absolute* gate; disable it where |Ai| is huge and the
# assertion below checks the bound (or the value) directly
NO_GATE = 1e300


def ai_eval(z):
    return airy_ai(z, target_abs_err=NO_GATE)

mpmath = pytest.importorskip("mpmath")

# mpmath.airyai(0), airyai(0, 1) at dps=30
AI0 = 0.355028053887817239260063186004
AIP0 = -0.258819403792806798405183560189

A1 = -2.33810741045976703848919725245
A2 = -4.08794944413097061663698870146


def mp_ai(z):
    mpmath.mp.dps = 30
    return complex(mpmath.airyai(complex(z)))


def mp_aip(z):
    mpmath.mp.dps = 30
    return complex(mpmath.airyai(complex(z), 1))


# ---------------------------------------------------------------- values


def test_origin():
    r = airy_ai(0.0)
    # Ai(0) = 3^{-2/3}/Gamma(2/3), frozen above
    assert abs(r.ai - AI0) < 1e-15
    assert abs(r.ai_prime - AIP0) < 1e-15


def test_origin_exact_constants():
    r = airy_ai(0.0)
    assert r.ai == pytest.approx(3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0), abs=1e-16)
    assert r.ai_prime == pytest.approx(-(3.0 ** (-1.0 / 3.0)) / math.gamma(1.0 / 3.0), abs=1e-16)


@pytest.mark.parametrize(
    "z",
    [
        0.5,
        -1.0,
        -5.0,
        3.0,
        8.0,
        2.0 + 3.0j,
        -3.0 + 0.5j,
        0.0 + 6.0j,
        0.0 - 6.0j,
        1.0 + 12.0j,
        -6.0 - 2.0j,
        7.0 - 7.0j,
        0.25 + 0.25j,
    ],
)
def test_against_mpmath(z):
    r = ai_eval(z)
    ref = mp_ai(z)
    refp = mp_aip(z)
    # claimed bound must cover the actual error (honesty), with a little
    # slack for the reference's own rounding
    scale = max(abs(ref), abs(refp))
    assert abs(r.ai - ref) <= r.abs_error_bound + 1e-25 * scale
    assert abs(r.ai_prime - refp) <= r.abs_error_bound + 1e-25 * scale


@pytest.mark.parametrize("sigma", [0.0, 0.5, 1.0])
def test_contour_band_accuracy(sigma):
    # the quadrature lives on z = sigma + iy; demand near-machine accuracy there
    for y in [0.0, 0.7, 1.9, 3.3, 5.1, 8.0, 12.0]:
        z = complex(sigma, y)
        r = ai_eval(z)
        ref = mp_ai(z)
        assert abs(r.ai - ref) <= 5e-13 * max(abs(ref), 1e-300)
        assert r.abs_error_bound <= 5e-12 * abs(ref)


def test_ai_decays_up_the_imaginary_axis():
    # |Ai(iy)| grows like exp(+|zeta|cos(pi/4 *3))... in magnitude terms the
    # integrand 1/Ai^2 must decay; check the modulus actually increases
    mags = [abs(ai_eval(1j * y).ai) for y in (2.0, 4.0, 8.0, 12.0)]
    assert mags == sorted(mags)
    assert abs(ai_eval(8j).ai) > 1e3


@given(
    st.floats(min_value=-8.0, max_value=8.0),
    st.floats(min_value=0.0, max_value=8.0),
)
@settings(max_examples=60, deadline=None)
def test_conjugate_symmetry(x, y):
    a = ai_eval(complex(x, y))
    b = ai_eval(complex(x, -y))
    assert cmath.isclose(a.ai, b.ai.conjugate(), rel_tol=0, abs_tol=1e-12 * abs(a.ai) + 1e-300)
    assert a.abs_error_bound == b.abs_error_bound


@given(st.floats(min_value=-10.0, max_value=5.0))
@settings(max_examples=40, deadline=None)
def test_real_axis_stays_real(x):
    r = ai_eval(complex(x, 0.0))
    assert r.ai.imag == 0.0
    assert r.ai_prime.imag == 0.0


def test_ode_residual():
    # Ai'' = z Ai via central differences on ai_prime
    h = 1e-3
    rng_pts = [0.3, -2.2, 1.7 + 1.1j, -1.0 + 3.0j, 2.5 - 0.6j]
    for z in rng_pts:
        d2 = (ai_eval(z + h).ai_prime - ai_eval(z - h).ai_prime) / (2 * h)
        assert abs(d2 - z * ai_eval(z).ai) < 1e-5 * max(1.0, abs(ai_eval(z).ai))


# ---------------------------------------------------------------- Wronskian


def test_wronskian():
    # Ai(x) Bi'(x) - Ai'(x) Bi(x) = 1/pi, with Bi and Bi' from mpmath
    mpmath.mp.dps = 30
    for x in [-5.0, -2.0, -0.5, 0.0, 1.0, 2.0]:
        a = ai_eval(x)
        bi, bip = float(mpmath.airybi(x)), float(mpmath.airybi(x, 1))
        w = a.ai.real * bip - a.ai_prime.real * bi
        assert abs(w - 1.0 / math.pi) < 1e-8


# ---------------------------------------------------------------- zeros


def test_first_zeros_frozen():
    assert abs(airy_zero(1) - A1) < 1e-13
    assert abs(airy_zero(2) - A2) < 1e-13


@pytest.mark.parametrize("n", [1, 2, 3, 10, 50, 100])
def test_zero_residual_and_reference(n):
    a = airy_zero(n)
    assert abs(ai_eval(a).ai) < 1e-12
    mpmath.mp.dps = 30
    assert abs(a - float(mpmath.airyaizero(n))) < 5e-13 * abs(a)


def test_zeros_are_ordered():
    zs = [airy_zero(n) for n in range(1, 30)]
    assert all(b < a for a, b in zip(zs, zs[1:]))
    assert zs[0] < 0


@pytest.mark.parametrize("bad", [0, -3, 101, 2.5])
def test_zero_index_validation(bad):
    with pytest.raises((ValueError, TypeError)):
        airy_zero(bad)


# ---------------------------------------------------------------- failure modes


def test_unreachable_target_raises():
    with pytest.raises(AccuracyUnreachable):
        airy_ai(1.0, target_abs_err=1e-18)
    with pytest.raises(AccuracyUnreachable):
        airy_ai(8j, target_abs_err=1e-13)


def test_overflow_raises():
    with pytest.raises(OverflowDomain):
        airy_ai(140j)


@pytest.mark.parametrize("z", [-1e13, -1e100, -1e300])
def test_far_negative_axis_is_unreachable_not_overflow(z):
    # Ai does not overflow here (|Ai(-1e100)| ~ 5.6e-26); the rotation
    # identity's two terms do.  Re zeta is 0 on the axis, and at -1e300 it
    # is -0 while Im zeta overflows
    with pytest.raises(AccuracyUnreachable, match="rotation identity"):
        airy_ai(z, target_abs_err=NO_GATE)


@pytest.mark.parametrize("target", [0.0, -1e-9, float("nan"), True])
def test_bad_target_rejected(target):
    with pytest.raises(ValueError):
        airy_ai(1.0, target_abs_err=target)


@pytest.mark.parametrize("z", ["1", True, False, complex(float("inf"), 0.0), None])
def test_bad_argument_rejected(z):
    with pytest.raises(ValueError):
        airy_ai(z)


@pytest.mark.parametrize("r", [1e206, 1e250, 1e300])
@pytest.mark.parametrize("deg", [0.0, 30.0, 59.0])
def test_far_underflow_is_zero_not_overflow(r, deg):
    # |zeta| overflows out here; in |arg z| < pi/3 Ai underflows, as it
    # does at |z| = 1e3, and is returned as 0, not as the overflow marker
    z = r * cmath.exp(1j * math.radians(deg))
    for ai, aip, bnd in zip(*airy._ai_kernel(np.array([z, z.conjugate(), 1e3]))):
        assert (ai, aip, bnd) == (0.0, 0.0, 0.0)
    assert airy_ai(z).ai == 0.0
    # past arg z = pi/3 it still overflows
    with pytest.raises(OverflowDomain):
        airy_ai(r * cmath.exp(1j * math.radians(61.0)))


def test_inverse_square_decreases_along_contour():
    # what the integrator relies on: |1/Ai(sigma+iy)^2| decreasing in y
    for sigma in (0.0, 1.0):
        vals = [abs(1.0 / ai_eval(complex(sigma, y)).ai) ** 2 for y in (2.0, 5.0, 9.0, 14.0)]
        assert vals == sorted(vals, reverse=True)


# ---------------------------------------------------------------- array kernel

# (Re z, Im z, Re Ai, Im Ai, bound) from the scalar evaluator the array
# kernel replaced: nodes of the sigma = 0 and sigma = 1 lines and of the cf
# lines through 7.5i and 8i at the steps the contour engine uses, and four
# points of the rotation regime.  No bound may grow.
FROZEN_BOUNDS = [
    (0.0, 0.0, 0.3550280538878172, 0.0, 4.729923837769386e-16),
    (0.0, 1.022921992076148, 0.3291609371931558, -0.32745100110914377, 8.398084373553612e-16),
    (0.0, 2.338107410459767, -0.5785220149555855, -1.110712332260949, 4.4844993538543116e-15),
    (0.0, 4.383951394612063, -0.025024306772587046, 14.878590073914257, 2.0086256246581219e-13),
    (0.0, 4.530083107765798, 3.9493617899474986, 17.917731011255285, 2.758963815325697e-13),
    (0.0, 6.5759270919180945, -233.00344086492734, -443.9057102621873, 3.5933264992024496e-11),
    (0.0, 8.914034502377861, 42893.93349000968, -16609.545508758896, 1.5721200610980637e-09),
    (0.0, 9.060166215531597, 48580.550805021325, -39227.82539019841, 2.1795080019018303e-09),
    (0.0, 14.613171315373544, -845925495.0367876, -39466139333.961845, 0.0030232424787709176),
    (0.0, 23.96560095721261, 8.801708364054471e+22, 1.0021201617266438e+23, 24964428794.100624),
    (0.0, -4.383951394612063, -0.025024306772587046, -14.878590073914257, 2.0086256246581219e-13),
    (0.0, -9.060166215531597, 48580.550805021325, 39227.82539019841, 2.1795080019018303e-09),
    (1.0, 0.0, 0.1352924163128813, 0.0, 6.810894245293247e-16),
    (1.0, 1.2517902789224127, 0.012363333045152414, -0.18118233014371654, 1.2441987099372487e-15),
    (1.0, 2.920843984152296, -0.4916556918030594, 0.3467025336009972, 1.4302849367251283e-14),
    (1.0, 4.172634263074709, 1.9722660281521014, 1.2950004517271165, 1.586150632566325e-13),
    (1.0, 4.5898976893821795, 3.975735180195599, -0.4685177850974702, 3.7615548562531687e-13),
    (1.0, 5.841687968304592, -16.71791749768709, -16.77424441796574, 6.828634367058018e-12),
    (1.0, 8.762531952456888, -1816.4311031559864, -3439.4147872665258, 1.3163159835111027e-10),
    (1.0, 9.179795378764359, -8770.859749644002, -1317.6790977017388, 3.1862265956966977e-10),
    (1.0, 12.517902789224125, 1898448.9460135987, 13514522.69945618, 8.066346542676738e-07),
    (1.0, 23.78401529952584, -7.573767910103197e+20, -2.051506890456449e+21, 404265187.09531903),
    (0.0, -16.46560095721261, 5958411333676.893, 3041636796904.0894, 0.6319157115526867),
    (0.0, -9.15901529952584, 48380.485811028775, 59766.6376309599, 2.7259891134023274e-09),
    (0.0, -4.482800478606306, 2.490175343624298, -16.95569439341831, 2.4857688131157846e-13),
    (0.0, -0.09884908399424308, 0.35502599281149316, 0.025641212665876906, 4.9617837585460655e-16),
    (0.0, 1.6547314738505827, 0.153796675543707, -0.6764097122496181, 1.6226159196317795e-15),
    (0.0, 4.577365736925291, 5.589995851320012, 18.83958937737896, 3.0694261744038513e-13),
    (0.0, 7.5, -2189.264437236505, 1652.5688147258284, 4.2596954105979693e-10),
    (0.0, 8.961317131537355, 45273.236224742504, -22964.315048232667, 1.746159761945417e-09),
    (0.0, 19.190537052298836, -1.4981796202774096e+16, -1.6019531378745604e+16, 2727.501999700233),
    (0.0, 23.86675187321837, 3.508582338924322e+22, 8.813195570760838e+22, 17618844768.627747),
    (0.0, -15.965600957212612, 942113020025.5999, -1322333441024.8962, 0.14522537215908427),
    (0.0, -8.951278725833312, 44802.04903458978, 21541.018608982245, 1.7075581296986275e-09),
    (0.0, -4.275063904913777, -2.0615625271811964, -12.59209261815366, 1.6227463420342805e-13),
    (0.0, 0.10888748969828654, 0.35502501861202124, -0.028258586630866767, 4.985927371767398e-16),
    (0.0, 3.323785179080466, -3.661901954744814, 0.34202100357580045, 2.448290193461092e-14),
    (0.0, 8.0, 435.6231421416455, 7206.3447489041055, 5.664123148602555e-10),
    (0.0, 8.876790278922412, 40779.855256219766, -12208.259002231336, 1.4482044739150904e-09),
    (0.0, 9.169053705229883, 48094.192277448106, -62095.73618734263, 2.789015258787503e-09),
    (0.0, 16.767902789224124, 3588542985328.0845, -15506982340499.322, 1.552863319228138),
    (0.0, 23.782225020603427, 6.171534800549947e+21, 7.06505343549848e+22, 13085692092.49053),
    (-6.0, -2.0, -18.015579029207597, -16.558336557727202, 1.873059183737341e-11),
    (-7.0, 4.0, -5400.779872527559, -5337.168707212373, 7.422653954239775e-10),
    (-10.0, 1.0, 0.6773724031108763, 3.6814961435275597, 2.4242869946896965e-13),
    (-20.0, -3.0, -23003.57863762074, -87419.75109445139, 1.893779344243056e-08),
]


@pytest.mark.parametrize("x, y, re, im, frozen", FROZEN_BOUNDS)
def test_bound_not_larger_than_scalar(x, y, re, im, frozen):
    z = complex(x, y)
    r = ai_eval(z)
    assert r.abs_error_bound <= frozen * (1.0 + 1e-12)
    assert abs(r.ai - mp_ai(z)) <= r.abs_error_bound
    assert abs(r.ai_prime - mp_aip(z)) <= r.abs_error_bound
    assert abs(r.ai - complex(re, im)) <= r.abs_error_bound + frozen


def _bits(*arrays):
    return [np.ascontiguousarray(a).view(np.uint8).tobytes() for a in arrays]


_THIRD = 2.0 * math.pi / 3.0
# every regime boundary: the series bands, |z| = 4.5 and 9, arg z = +-2 pi/3,
# the real axis, and overflow beyond |z| ~ 100 near arg z = +-2 pi/3 and +-pi/2
EDGES = (
    [r * cmath.exp(1j * a) for r in (1.0, 2.0, 3.0, 4.5, 6.0, 7.5, 9.0)
     for a in (0.0, 0.7, -1.9, _THIRD, -_THIRD, math.pi)]
    + [r * cmath.exp(1j * a) for r in (9.5, 40.0, 120.0) for a in (_THIRD, -_THIRD)]
    + [complex(-r, 0.0) for r in (4.5, 9.0, 40.0)] + [140j, -140j, 0j]
)
points = st.one_of(
    st.sampled_from(EDGES),
    st.builds(lambda r, a: r * cmath.exp(1j * a),
              st.floats(0.0, 160.0), st.floats(-math.pi, math.pi)),
    st.builds(complex, st.floats(-12.0, 12.0), st.just(0.0)),
)


# a point in each series band (series only up to |z| = 4.5, both
# candidates beyond), and asymptotic points that need 41 terms (|z| about
# 9.4), in the sector and rotated
MIXED = ([0.5j, 1.5 + 0.5j, -2.5, 4.0j, 5.5 - 1.0j, 7.0j, -8.9]
         + [9.4 * cmath.exp(1j * a) for a in (0.0, 1.2, -2.0, 2.5, math.pi)])


@given(st.lists(points, min_size=1, max_size=150))
@settings(max_examples=40, deadline=None)
def test_batch_results_match_single_points(zs):
    # the batch spans more than one block, and every copy of a point keeps
    # its single-point bits
    zs = MIXED + zs
    batch = np.array(zs * (airy._BLOCK // len(zs) + 1), dtype=complex)
    ai, aip, bnd = airy._ai_kernel(batch)
    for i, z in enumerate(zs):
        one = _bits(*airy._ai_kernel(np.array([z])))
        for j in range(i, batch.size, len(zs)):
            assert one == _bits(ai[j:j + 1], aip[j:j + 1], bnd[j:j + 1]), z


# one point set on every regime and marker: EDGES, both sides of each
# series band radius, the overlap, asymptotic and rotation regimes, the
# real axis, overflow and underflow, and the nodes of three contour lines
# at h = 1/16 on |y| <= 24
DIGEST_POINTS = np.concatenate([
    np.array(EDGES),
    [r * f * cmath.exp(1.1j) for r in (1.0, 2.0, 3.0, 4.5, 6.0, 7.5, 9.0)
     for f in (1.0 - 2.0 ** -40, 1.0 + 2.0 ** -40)],
    [3.0 + 2.0j, 5.0 - 6.0j, 6.0j, -3.0 + 5.0j, 7.0, 9.4 * cmath.exp(1.2j),
     12.0 + 5.0j, 30j, 100.0, 20.0 - 15.0j, -6.0 - 2.0j, -12.0 + 1.0j, -20.0 - 3.0j, -50.0],
    np.arange(-48, 49) / 4.0 + 0j,
    [140j, -140j, 120.0 * cmath.exp(1j * _THIRD), 1e155j, -1e200, 1e200,
     1e250 * cmath.exp(0.5j)],
    *(x + 1j * np.arange(-384, 385) / 16.0 for x in (0.0, -1.338, 3.66)),
])
# SHA-256 of the (ai, aip, bnd) bytes at DIGEST_POINTS, frozen from the
# kernel that summed all 61 terms of every asymptotic point in blocks of
# 64; the sizing of rows and blocks may change the time, never a bit.
# Computed with numpy 2.4 on x86-64 Linux: another numpy build or libm may
# round a last bit differently, and then the digest must be recomputed
# there from that older kernel, not from the current one
KERNEL_DIGEST = "4ee1d1028bb00e5624230e60fa97b12b391c3341235388cf0cfb2717e9b0e8cb"


def test_kernel_bits_frozen():
    digest = hashlib.sha256(b"".join(_bits(*airy._ai_kernel(DIGEST_POINTS))))
    assert digest.hexdigest() == KERNEL_DIGEST


# contour lines of four lengths, so each thread's workspace grows to a
# different block, and rings in each regime of the evaluator: series,
# overlap, asymptotic in the sector and rotated beyond it
THREAD_LINES = [x + 1j * np.linspace(-24.0, 24.0, n)
                for x, n in ((0.0, 97), (-1.338, 193), (1.66, 385), (3.66, 1025))]
THREAD_RINGS = [[r * cmath.exp(1j * (a0 + k * da)) for r in radii for k in range(8)]
                for radii, a0, da in (((0.5, 1.5, 2.5, 3.5, 4.4), 0.0, math.pi / 4),
                                      ((5.0, 6.0, 7.0, 8.0, 8.9), 0.0, math.pi / 4),
                                      ((10.0, 14.0, 18.0, 22.0, 26.0), -_THIRD, _THIRD / 3.5),
                                      ((10.0, 14.0, 18.0, 22.0, 26.0), _THIRD + 0.1,
                                       (_THIRD - 0.2) / 7.0))]


def _line_bits(z):
    return _bits(*airy._ai_kernel(z))


def _ring_bits(zs):
    return _bits(np.array([(r.ai, r.ai_prime, r.abs_error_bound) for r in map(ai_eval, zs)]))


def test_kernel_workspace_is_per_thread():
    # each thread keeps its own block arrays; with switches forced every
    # microsecond, threads that shared them would overwrite each other's
    want = [_line_bits(z) for z in THREAD_LINES] + [_ring_bits(zs) for zs in THREAD_RINGS]
    jobs = [(_line_bits, z) for z in THREAD_LINES] + [(_ring_bits, zs) for zs in THREAD_RINGS]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            for shift in range(4):
                order = jobs[shift:] + jobs[:shift]
                got = list(pool.map(lambda job: job[0](job[1]), order))
                assert got == want[shift:] + want[:shift]
    finally:
        sys.setswitchinterval(interval)


@given(st.lists(points, min_size=1, max_size=100))
@settings(max_examples=40, deadline=None)
def test_kernel_is_conjugate_symmetric(zs):
    # the contour's node store reads every node below the real axis as the
    # conjugate of its mirror image; that is exact only because of this
    z = np.array(EDGES + zs, dtype=complex)
    z = np.concatenate([z, z.conj()])
    ai, aip, bnd = airy._ai_kernel(z)
    mai, maip, mbnd = airy._ai_kernel(z.conj())
    assert _bits(mai, maip, mbnd) == _bits(ai.conj(), aip.conj(), bnd)


def test_overflow_marker_in_batch():
    zs = np.array([1.0 + 2.0j, 140j, -3.0, 20j])
    ai, aip, bnd = airy._ai_kernel(zs)
    assert np.isinf(ai[1]) and aip[1] == 0.0 and bnd[1] == 0.0
    for i in (0, 2, 3):
        r = ai_eval(zs[i])
        assert (ai[i], aip[i], bnd[i]) == (r.ai, r.ai_prime, r.abs_error_bound)


def test_extreme_points_do_not_warn():
    # |Ai(1e200)| underflows to 0 and Ai(1e155j) grows past double range;
    # Ai(-1e200) is bounded, but the phase of zeta at its rotated points
    # cannot be resolved in doubles, so the kernel gives up there (as the
    # scalar evaluator did)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ai, aip, bnd = airy._ai_kernel(np.array([1e200, 1e155j, -1e200]))
    assert ai[0] == 0.0 and bnd[0] == 0.0
    assert np.all(np.isinf(ai[1:])) and np.all(aip[1:] == 0.0) and np.all(bnd[1:] == 0.0)


def test_zero_takes_few_kernel_calls(monkeypatch):
    calls = []
    kernel = airy._ai_kernel

    def counted(z):
        calls.append(z.size)
        return kernel(z)

    monkeypatch.setattr(airy, "_ai_kernel", counted)
    for n in (1, 3, 4, 50):
        calls.clear()
        airy._airy_zero_cached.cache_clear()
        ref = float(mpmath.airyaizero(n))
        assert abs(airy_zero(n) - ref) < 5e-13 * abs(ref)
        assert len(calls) <= 8
    airy._airy_zero_cached.cache_clear()


def test_zero_is_a_python_float():
    assert type(airy_zero(1)) is float and type(airy_zero(57)) is float

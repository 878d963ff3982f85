"""Airy function evaluation in double precision with tracked error bounds.

One array kernel, `_ai_kernel(z) -> (ai, aip, bnd)`, evaluates Ai, Ai' and
an absolute error bound at every point of a node vector; `airy_ai` and
`airy_zero` call it at length 1.  Three regimes cover the plane: the
Maclaurin series for |z| <= 9, the large-|z| asymptotic expansion in the
sector |arg z| <= 2*pi/3 for |z| > 4.5, and the rotation identity

    Ai(z) = -e^{-2*pi*i/3} Ai(z e^{-2*pi*i/3}) - e^{+2*pi*i/3} Ai(z e^{+2*pi*i/3})

beyond that sector.  In the overlap band 4.5 < |z| <= 9 both candidates
are computed and the one with the smaller tracked bound wins.  Every bound
adds series tails, first omitted asymptotic terms, and rounding charged on
the tracked magnitude sums -- nothing is assumed accurate by fiat.  Where
Ai overflows the kernel returns ai = inf with aip = bnd = 0, and where it
underflows (|arg z| < pi/3, far out) ai = aip = bnd = 0.

The kernel takes blocks of up to 256 points.  In a block, the series
points and the asymptotic ones (the rotation identity's two rotated
points each) share one (terms, 2, points) array of terms, built from
powers of z^3 or of -1/zeta by repeated squaring, with no loop over
terms, and holding only the rows the block needs:

- A series point sums a fixed number of terms set by its radius band
  (1, 2, 3, 4.5, 6, 7.5, 9): the count at which the term-by-term stopping
  rule (ratio of successive terms below 1/2, last terms below 1e-17 of
  the magnitude sums) stops at the band's outer radius, 34 at most.
- An asymptotic point reads its own optimal-truncation index off the 41
  terms k <= 40.  Every point tried stops within them (the most terms
  are needed near |z| = 9.4); one that did not would sum all 41 and
  count the last as its first omitted term, so its bound stays honest.
- Each sum takes one error-free extraction (Rump, Ogita & Oishi, SIAM J.
  Sci. Comput. 31, 2008; see `_exact_sum`), so its rounding error is far
  below the 4 eps sum |t| (series) or 6 eps sum |t| (asymptotic) charged.

Nothing is decided per block: a point's truncation index and first
omitted term depend on its own terms alone, and zero terms beyond a
point's truncation index change none of its sums, so
every point's bits are those of its length-1 evaluation, and a point
below the real axis is its mirror image's conjugate: tables gathered
from a store of earlier nodes, read as conjugates below the axis, do not
depend on history.

Each thread keeps its block arrays (the terms, their magnitudes, the
powers and the high parts of the exact sums) in one buffer of its own,
allocated once at the size of the largest block (see `_block_arrays`): a
warm 193-node call takes no page faults, where arrays freed after every
call took 150 to 190.  Which part of the buffer a block used, and what it
held before, moves no bit.
"""
from __future__ import annotations

import cmath
import math
import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import AccuracyUnreachable, OverflowDomain, _as_complex, _as_int, _as_real

# Ai(0) = 3^{-2/3}/Gamma(2/3), Ai'(0) = -3^{-1/3}/Gamma(1/3)
_AI0 = 0.35502805388781723926006318600418317639797917419918
_AIP0 = -0.25881940379280679840518356018920396347909113835493
_SQRT_PI = math.sqrt(math.pi)
_TWO_THIRDS = 2.0 / 3.0
_EPS = 2.220446049250313e-16

_ROT_P = cmath.exp(2j * cmath.pi / 3.0)
_ROT_M = cmath.exp(-2j * cmath.pi / 3.0)

_SERIES_ONLY_RADIUS = 4.5   # below: series alone suffices
_SERIES_MAX_RADIUS = 9.0    # above: asymptotics alone; in between: take the better
# |arg z| > 2 pi/3 + 1e-14  <=>  |Im z| < -Re z * _SLOPE (so Re z < 0)
_SLOPE = math.tan(math.pi / 3.0 - 1e-14)

_DEFAULT_TARGET = 1e-12
#: points per block, which bounds the kernel's working arrays
_BLOCK = 256

#: series radius bands and the index of the last term summed in each
_BAND_RADII = np.array([1.0, 2.0, 3.0, 4.5, 6.0, 7.5, 9.0])
_BAND_LAST = np.array([9, 13, 16, 20, 24, 29, 33])


def _asymptotic_coefficients():
    """u_k and v_k = u_k (6k+1)/(1-6k) of the Poincare expansion, k <= 40
    (every asymptotic point tried truncates within them, the latest near
    |z| = 9.4), each correctly rounded from its exact ratio of integers."""
    num, den = 1, 1
    us, vs = [1.0], [1.0]
    for k in range(1, 41):
        num *= (6 * k - 5) * (6 * k - 3) * (6 * k - 1)
        den *= 216 * k * (2 * k - 1)
        us.append(num / den)
        vs.append(num * (6 * k + 1) / (den * (1 - 6 * k)))
    return np.array(us), np.array(vs)


_U, _V = _asymptotic_coefficients()
_UV = np.stack([_U, _V], axis=1)[:, :, None]


def _series_coefficients():
    """Coefficients of the Maclaurin series grouped by powers z^{3n}.

    Ai = Ai(0) f + Ai'(0) g with f = sum a_n z^{3n}, g = sum b_n z^{3n+1},
    a_n = prod 1/((3k)(3k-1)), b_n = prod 1/((3k+1)(3k)).  Rows 0-1: Ai's
    term n is z^{3n} (row0 + row1 z); rows 2-3: Ai''s is z^{3n} (row2 +
    row3 z^2), zero beyond the last band's terms.  The second array holds
    the magnitudes of the f, g, f', g' terms over |z|^{3n}, |z|^{3n+1},
    |z|^{3n+2} and |z|^{3n}.
    """
    pa, pb = [1], [1]                 # a_n = 1/pa[n], b_n = 1/pb[n]
    for k in range(1, int(_BAND_LAST[-1]) + 2):
        pa.append(pa[-1] * (3 * k) * (3 * k - 1))
        pb.append(pb[-1] * (3 * k + 1) * (3 * k))
    mags = np.array([[1 / pa[n], 1 / pb[n], 3 * (n + 1) / pa[n + 1], (3 * n + 1) / pb[n]]
                     for n in range(int(_BAND_LAST[-1]) + 1)]).T
    coef = np.zeros((4, _U.size))
    coef[:, :mags.shape[1]] = [_AI0 * mags[0], _AIP0 * mags[1], _AIP0 * mags[3], _AI0 * mags[2]]
    return coef, mags


_SER, _SER_MAG = _series_coefficients()


@dataclass(frozen=True)
class AiryEval:
    """One Ai evaluation: value, derivative, and a certified absolute bound."""

    ai: complex
    ai_prime: complex
    abs_error_bound: float


#: this thread's buffer for the block arrays (see `_block_arrays`)
_WORK = threading.local()
#: bytes of the largest block's arrays, 4.5 complex (rows, columns) arrays
#: with every row and 3 columns per point: a rotated point in the overlap
#: band takes one series column and its two rotations
_WORK_BYTES = 9 * 16 * _U.size * 3 * _BLOCK // 2


def _block_arrays(n: int, cols: int):
    """coef and mag (n, 2, cols), the powers x^k and |x|^k (n, cols), and
    the high parts of `_exact_sum` (n, 2, 2 cols), all views of this
    thread's buffer.  The high parts overlay mag and x^k, which `_sums`
    has read by then.  The buffer is allocated once per thread, at the
    size of the largest block, and kept: fresh arrays (coef alone is about
    250 KB at 193 points), freed after every call, leave a heap top that
    glibc trims, and the next call would fault every page back in; a
    buffer replaced as blocks grow would fault in the pages of each one it
    replaced.  Nothing a block returns is a view of the buffer.
    """
    c = 16 * n * cols                   # bytes of one complex (n, cols) array
    buf = getattr(_WORK, "buf", None)
    if buf is None:
        buf = _WORK.buf = np.empty(_WORK_BYTES, np.uint8)
    return (np.ndarray((n, 2, cols), complex, buf, 0),
            np.ndarray((n, 2, cols), float, buf, 2 * c),
            np.ndarray((n, cols), complex, buf, 3 * c),
            np.ndarray((n, cols), float, buf, 4 * c),
            np.ndarray((n, 2, 2 * cols), float, buf, 2 * c))


def _exact_sum(t: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Sum over the first axis, to within eps |sum| + 1e-26 max |t| per
    component, each component's result depending on its own terms alone.

    One error-free extraction (Rump, Ogita & Oishi, SIAM J. Sci. Comput.
    31, 2008): with sigma = 2^k >= 128 max |t|, q = (sigma + t) - sigma is
    t on the grid of multiples of eps sigma, and t - q is exact.  Every
    partial sum of the q is on that grid and below 2^53 steps, so sum q is
    exact in any order; the low parts t - q, each at most eps sigma, are
    added in sequence.  t and q, an array of t's float view's shape, are
    overwritten.
    """
    r = t.view(np.float64)
    sigma = np.ldexp(1.0, np.frexp(np.abs(r, out=q).max(axis=0))[1] + 7)
    np.add(sigma, r, out=q)
    q -= sigma
    r -= q
    return (q.sum(axis=0) + np.add.reduce(r, axis=0)).view(t.dtype)


def _powers(x: np.ndarray, p: np.ndarray) -> None:
    """x^0 .. x^(n-1) into the rows of p.  x^k is x^(k - 2^j) x^(2^j) for
    the largest 2^j <= k, so it does not depend on n."""
    n = p.shape[0]
    p[0] = 1.0
    done, xp = 1, x
    while done < n:
        take = min(done, n - done)
        np.multiply(p[:take], xp, out=p[done:done + take])
        done, xp = done + take, xp * xp


def _sums(x: np.ndarray, arrays: tuple, last: np.ndarray, free: int):
    """sum_k coef_k x^k over k <= last, per point.

    arrays are `_block_arrays`, coef and mag filled.  coef is (terms, 2,
    points): two series per point share the powers of x.  mag bounds
    |coef| on the same layout; the magnitudes mag_k |x|^k are summed for
    the rounding charge.  Points from index `free` on are
    truncated optimally on their first series: before the first term that
    does not decrease, or after the first below 1e-18 of the partial sum;
    where neither comes, the last term is summed and also counted as the
    first omitted one.  Returns the sums, the magnitude sums, |x|^last and
    the first omitted magnitude.  All the arrays are overwritten.
    """
    coef, mag, p, pr, high = arrays
    n, cols = coef.shape[0], np.arange(x.size)
    _powers(x, p)
    t = np.multiply(p[:, None, :], coef, out=coef)
    np.abs(p, out=pr)
    at = np.multiply(pr[:, None, :], mag, out=mag)
    trunc = np.zeros(x.size)
    if free < x.size:
        atu = at[1:, 0, free:]
        grows = np.zeros(atu.shape, bool)
        grows[1:] = atu[1:] >= atu[:-1]
        stop = grows | (atu < 1e-18 * np.abs(np.cumsum(t[:, 0, free:], axis=0)[1:]))
        j = stop.argmax(axis=0)
        k = cols[:j.size]
        hit = stop[j, k]
        last[free:] = np.where(hit, j + ~grows[j, k], n - 1)
        trunc[free:] = np.where(hit, atu[j, k], atu[-1])
    m = int(last.max()) + 1
    t, at = t[:m], at[:m]
    drop = (np.arange(m)[:, None] > last)[:, None, :]
    np.copyto(t, 0.0, where=drop)
    np.copyto(at, 0.0, where=drop)
    a = np.add.reduce(at, axis=0)       # before the high parts overwrite at
    return _exact_sum(t, high[:m]), a, pr[last, cols], trunc


def _asymptotic_values(zeta, q, s, a, trunc):
    """Ai, Ai' and their bounds from the sums of u_k and v_k (-zeta)^{-k}:
    three times the first omitted term (the sector constant), rounding on
    the magnitude sums and the exp/prefactor evaluation."""
    ez = np.exp(-zeta)
    pref = ez / (2.0 * _SQRT_PI * q)
    ai = pref * s[0]
    aip = -ez * q / (2.0 * _SQRT_PI) * s[1]
    round_scale = (2.0 * np.abs(zeta) + 10.0) * _EPS
    e_ai = np.abs(pref) * (3.0 * trunc + 6.0 * _EPS * a[0]) + round_scale * np.abs(ai)
    apref_p = np.abs(q) * np.abs(ez) / (2.0 * _SQRT_PI)
    e_aip = apref_p * (3.0 * trunc + 6.0 * _EPS * a[1]) + round_scale * np.abs(aip)
    return ai, aip, e_ai, e_aip


def _rotated(ai, aip, e_ai, e_aip, k: int):
    """The rotation identity from rows k.. (z e^{-2 pi i/3}) and the same
    number of rows after them (z e^{+2 pi i/3}): Ai, Ai' and the bound."""
    m, p = slice(k, (ai.size + k) // 2), slice((ai.size + k) // 2, None)
    e = 1.5 * (e_ai[m] + e_ai[p]) + 4.0 * _EPS * (np.abs(ai[m]) + np.abs(ai[p]))
    e_p = 1.5 * (e_aip[m] + e_aip[p]) + 4.0 * _EPS * (np.abs(aip[m]) + np.abs(aip[p]))
    return (-(_ROT_M * ai[m] + _ROT_P * ai[p]), -(_ROT_P * aip[m] + _ROT_M * aip[p]),
            np.maximum(e, e_p))


def _block(z: np.ndarray):
    """Ai, Ai' and the bound at up to a block of points.

    The series points, the sector points and both rotations of the points
    beyond the sector share one call of `_sums`.
    """
    r = np.hypot(z.real, z.imag)      # libm hypot: the same |z| as abs()
    near = np.flatnonzero(r <= _SERIES_MAX_RADIUS)
    far = r > _SERIES_ONLY_RADIUS
    left = far & (np.abs(z.imag) < -z.real * _SLOPE)
    sec, rot = np.flatnonzero(far & ~left), np.flatnonzero(left)
    za = z[sec]
    if rot.size:
        za = np.concatenate([za, z[rot] * _ROT_M, z[rot] * _ROT_P])
    ns, na = near.size, za.size

    zs, rs = z[near], r[near]
    rs2, z2 = rs * rs, zs * zs
    band = _BAND_LAST[np.searchsorted(_BAND_RADII, rs)]
    w = np.sqrt(za)
    q = np.sqrt(w)                    # z^{1/4}, principal branch
    zeta = _TWO_THIRDS * za * w
    over = zeta.real < -705.0
    zeta[over] = 1.0                  # keeps exp finite on rows thrown away
    x = np.concatenate([z2 * zs, -1.0 / zeta])
    last = np.concatenate([band, np.zeros(na, int)])
    # the rows the block needs: its series bands' terms, or all with
    # asymptotic points.  Series rows: Ai = sum z^{3n} (c0 + c1 z), Ai' =
    # sum z^{3n} (c2 + c3 z^2); asymptotic rows: sum u_k (-zeta)^{-k},
    # sum v_k (-zeta)^{-k}
    n = _U.size if na else int(band.max(initial=-1)) + 1
    c = _SER[:, :n, None]
    arrays = _block_arrays(n, ns + na)
    coef, mag = arrays[:2]
    coef[:, 0, :ns] = c[0] + c[1] * zs
    coef[:, 1, :ns] = c[2] + c[3] * z2
    c = np.abs(c)
    mag[:, 0, :ns] = c[0] + c[1] * rs
    mag[:, 1, :ns] = c[2] + c[3] * rs2
    coef[:, :, ns:] = _UV[:n]
    mag[:, :, ns:] = np.abs(_UV[:n])
    s, a, xn, trunc = _sums(x, arrays, last, ns)

    ai = np.zeros(z.size, complex)
    aip = np.zeros(z.size, complex)
    bnd = np.full(z.size, np.inf)
    if ns:
        # series: tail 2 max |last term| of f, g, f', g' (ratio below 1/2),
        # rounding 4 eps on each magnitude sum
        lt = xn[:ns] * _SER_MAG[:, band]
        lt[1] *= rs
        lt[2] *= rs2
        tail = (_AI0 + abs(_AIP0)) * 2.0 * lt.max(axis=0)
        e = tail + 4.0 * _EPS * a[:, :ns] + 2.0 * _EPS * np.abs(s[:, :ns])
        ai[near], aip[near] = s[:, :ns]
        bnd[near] = np.maximum(e[0], e[1])
    if na:
        # the asymptotic candidate wins where its bound is smaller
        ca, cap, e_a, e_ap = _asymptotic_values(zeta, q, s[:, ns:], a[:, ns:], trunc[ns:])
        cb, lost, idx = np.maximum(e_a, e_ap), over, sec
        if rot.size:
            k = sec.size
            ra, rap, rb = _rotated(ca, cap, e_a, e_ap, k)
            ca, cap = np.concatenate([ca[:k], ra]), np.concatenate([cap[:k], rap])
            cb = np.concatenate([cb[:k], rb])
            lost = np.concatenate([over[:k], over[k:k + rot.size] | over[k + rot.size:]])
            idx = np.concatenate([sec, rot])
        win = ~lost & (cb < bnd[idx])
        idx = idx[win]
        ai[idx], aip[idx], bnd[idx] = ca[win], cap[win], cb[win]

    real = np.flatnonzero(z.imag == 0.0)
    if real.size:
        # arithmetic dust from rotated branches; the value is real
        bnd[real] += np.abs(ai[real].imag) + np.abs(aip[real].imag)
        ai[real] = ai[real].real
        aip[real] = aip[real].real
    bad = ~(np.isfinite(ai) & np.isfinite(aip) & np.isfinite(bnd))
    if bad.any():
        ai[bad], aip[bad], bnd[bad] = np.inf, 0.0, 0.0
        # Ai does not overflow in |arg z| < pi/3; a point there fails only
        # where |z|^(3/2) overflows (|z| beyond about 1e205), and there Ai
        # underflows
        ai[bad & (np.abs(np.angle(z)) < math.pi / 3.0)] = 0.0
    return ai, aip, bnd


def _ai_kernel(z: np.ndarray):
    """Ai, Ai' and the tracked absolute bound at every point of z.

    Where Ai overflows it is returned as inf, with Ai' and the bound 0, so
    every quantity that divides by Ai vanishes there exactly; where it
    underflows all three are 0.  Each
    point's result depends on that point alone.  A point whose Im z has
    its sign bit set is evaluated at its mirror image and conjugated, so
    the results at conj z are the conjugates of those at z bit for bit,
    signed zeros included, and the bounds are equal.
    """
    z = np.ascontiguousarray(z, dtype=complex).ravel()
    low = np.signbit(z.imag)
    z = np.where(low, z.conj(), z)
    ai = np.empty(z.size, complex)
    aip = np.empty(z.size, complex)
    bnd = np.empty(z.size)
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, z.size, _BLOCK):
            hi = lo + _BLOCK
            ai[lo:hi], aip[lo:hi], bnd[lo:hi] = _block(z[lo:hi])
    np.conjugate(ai, out=ai, where=low)
    np.conjugate(aip, out=aip, where=low)
    return ai, aip, bnd


def airy_ai(z, target_abs_err: float = _DEFAULT_TARGET) -> AiryEval:
    """Evaluate Ai(z) and Ai'(z) with a certified absolute error bound.

    Raises AccuracyUnreachable if the tracked bound exceeds `target_abs_err`
    (e.g. huge |Ai| on the imaginary axis cannot meet a small absolute
    target in doubles) and OverflowDomain if the value itself overflows,
    that is where Re zeta < -705, zeta = (2/3) z^{3/2}.  Where the kernel
    fails elsewhere (far out on the negative axis, where the rotation
    identity's two terms overflow but Ai is small) it raises
    AccuracyUnreachable.  On the real axis the returned imaginary parts are
    exactly zero.
    """
    target_abs_err = _as_real(target_abs_err, "target_abs_err must be a positive finite real",
                              positive=True)
    zc = _as_complex(z, "z must be a finite number")
    ai, aip, bnd = _ai_kernel(np.array([zc]))
    if np.isinf(ai[0]):
        # zeta as the kernel forms it, at the mirror image above the axis;
        # at -1e300 its imaginary part overflows, but not its real part
        za = np.array([complex(zc.real, abs(zc.imag))])
        with np.errstate(over="ignore", invalid="ignore"):
            re_zeta = (_TWO_THIRDS * za * np.sqrt(za)).real[0]
        if not re_zeta >= -705.0:
            raise OverflowDomain(f"Ai({zc!r}) overflows double precision")
        raise AccuracyUnreachable(
            f"Ai({zc!r}): the rotation identity's terms overflow, though Ai does not")
    bound = float(bnd[0])
    if bound > target_abs_err:
        raise AccuracyUnreachable(
            f"Ai({zc}): tracked bound {bound:.3e} exceeds target {target_abs_err:.3e}")
    return AiryEval(ai=complex(ai[0]), ai_prime=complex(aip[0]), abs_error_bound=bound)


_ZERO_MAX_N = 100
_ZERO_INDEX = f"n must be an integer in [1, {_ZERO_MAX_N}]"


def airy_zero(n: int) -> float:
    """The n-th negative zero a_n of Ai, n = 1..100 (a_1 = -2.33810741...)."""
    return _airy_zero_cached(_as_int(n, _ZERO_INDEX, 1, _ZERO_MAX_N))


@lru_cache(maxsize=None)
def _airy_zero_cached(n: int) -> float:
    """Newton from the asymptotic guess, then a certified sign change."""
    t = 3.0 * math.pi * (4 * n - 1) / 8.0
    t2 = t * t
    x = -(t ** _TWO_THIRDS) * (
        1.0 + 5.0 / 48.0 / t2 - 5.0 / 36.0 / (t2 * t2)
        + 77125.0 / 82944.0 / (t2 * t2 * t2))
    for _ in range(6):
        ai, aip, bnd = _ai_kernel(np.array([x]))
        step = ai[0].real / aip[0].real
        x -= step
        # quadratic convergence: once the step is within the evaluation's
        # own uncertainty, the next one would be noise
        if abs(step) <= max(4.0 * _EPS * abs(x), bnd[0] / abs(aip[0].real)):
            break
    # Ai changes sign on [x - d, x + d] with each end's value above its
    # bound, so a zero lies within d of x
    d = 8.0 * bnd[0] / abs(aip[0].real) + 4.0 * _EPS * abs(x)
    ai, _, bnd = _ai_kernel(np.array([x - d, x + d]))
    if not (ai[0].real * ai[1].real < 0.0 and np.all(np.abs(ai.real) > bnd)):
        raise AccuracyUnreachable(f"could not bracket Airy zero #{n}")
    return float(x)

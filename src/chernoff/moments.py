"""Contour-integral numerics: moments, transforms, and the density.

Everything here evaluates integrals (1/2 pi i) * int F(z) dz along vertical
lines z = sigma + i y right of all Airy zeros.  F is analytic in the strip
|Re z - sigma| < sigma - a_1 and decays superexponentially in |y|, so the
trapezoidal rule converges geometrically in 1/h (Trefethen & Weideman,
"The exponentially convergent trapezoidal rule", SIAM Review 56, 2014).

Each node is cached per line Re z = x, by |Im z|, in the form the
integrands read: 1/Ai, the relative bound bnd/|Ai|, r = Ai'/Ai and
bnd/|Ai'|, formed once when the node is evaluated, and all 0 where Ai
overflows.  A table at the nodes z = c + i k h, |k h| <= 2Y, is gathered
from its line's store, reading nodes below the real axis as conjugates,
and only ordinates the store lacks are evaluated; a table on the real
axis is kept by its line, and one cap bounds the store (see
`_node_table`).  All moments, E M, the identity suite, the density and
the cf read the sigma = 0 line, and the mgf adds the line through
sigma + t.  The cf is the mgf at i t on the caller's contour, so
its shifted factor Ai(z + i t) lies on that same line.  On a strip of
half-width a the error of T_h falls like e^{-2 pi a/h}.  The check at h
compares T_h with T_2h, so it can pass only once T_2h meets the
tolerance: the line sum starts h at the coarsest power of two for which
T_2h can, with 2h below F's phase period and the density's aliasing bound
(see `_first_step`), so dyadic steps and quarter-integer shifts land on
shared ordinates, and a fresh line usually reaches the kernel once.  h
is then halved, reusing the coarser nodes, until the error meets a
finite rel_tol * max(|value|, 1e-6 * h sum |F|) (an overflowed sum
raises); Y starts at _START_HEIGHT and doubles until the octave
Y < |y| <= 2Y bounds what lies beyond 2Y.  The node budget alone ends
both loops.  One line sum, `_trapezoid`, gathers the tables and charges
every error; each integrand only says what a node contributes.  The error
adds |T_h - T_2h| (T_2h from the even nodes of the same table), h times
the pointwise Airy bounds, 20 eps * h sum |F| for rounding, and that
tail.  A line integral rests on at most _LINE_NODES Airy-evaluated nodes,
a density table on the store's cap _TABLE_NODES; `panels_used` counts them.

All but the density are one integral,

    I(P, t) = (1/2 pi i) * int P(z, r) / (Ai(z) Ai(z + t)) dz,  r = Ai'/Ai.

At the canonical gamma = 1/sqrt(2) (so 2 gamma^2 = 1) E V^n = I(p_n, 0);
V_gamma = s V, s = `length_scale(gamma)`, so E V_gamma^n = s^n E V^n and
E M_gamma = -sqrt(s/2) I(z, 0), tied by E V_gamma^2 = E M_gamma / (3 gamma).
The mgf is I(1, t) (Groeneboom, PTRF 81, 1989) and the cf I(1, i t).
Only `moment_by_parts` brings in r: each split (-1)^j (d^j 1/Ai)(d^k 1/Ai)
is P(z, r) / Ai^2.  One cache, keyed by P's float coefficients (one row per
power of r), t and the contour, holds every I; the zero polynomial (every
odd moment) gives 0 without a table.
"""
from __future__ import annotations

import math
import threading
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import NamedTuple, Optional, Union

import numpy as np

from . import algebra
from .airy import _EPS, _ai_kernel, airy_zero
from .algebra import RationalPoly
from .errors import (ContourTooLeft, NoConvergence, OverflowDomain, _as_complex, _as_order,
                     _as_real)

_TWO_PI = 2.0 * math.pi
_SQRT2 = math.sqrt(2.0)

#: gamma with 2 gamma^2 = 1; all transform formulas are stated at this scale
CANONICAL_GAMMA = 1.0 / _SQRT2
#: the one-row key of the polynomial z, the expected maximum's integrand
_Z_ROWS = ((0.0, 1.0),)

#: the first truncation height Y of every quadrature; Y doubles from here
_START_HEIGHT = 12.0
#: node budget of a line integral, over every line it reads
_LINE_NODES = 4000


@dataclass(frozen=True)
class ContourSpec:
    """Vertical-line contour Re z = sigma and the relative tolerance of the
    integrals along it, held as floats; the stepping rule finds the step and
    the height."""

    sigma: float = 0.0
    rel_tol: float = 1e-10

    def __post_init__(self):
        sigma = _as_real(self.sigma, "sigma must be a finite real")
        if sigma <= airy_zero(1):
            raise ContourTooLeft(
                f"sigma = {sigma} is not to the right of the first Airy "
                f"zero a_1 = {airy_zero(1):.6f}")
        rel_tol = _as_real(self.rel_tol, "rel_tol must be in (0, 1)", positive=True)
        if rel_tol >= 1.0:
            raise ValueError("rel_tol must be in (0, 1)")
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "rel_tol", rel_tol)


@lru_cache(maxsize=1)
def default_contour() -> ContourSpec:
    """The default contour, built on first use (it needs a_1) and shared:
    a ContourSpec is frozen."""
    return ContourSpec()


def _spec(contour: Optional[ContourSpec]) -> ContourSpec:
    return contour if contour is not None else default_contour()


@dataclass(frozen=True)
class QuadResult:
    """A value, its error estimate, and the number of Airy-evaluated nodes
    (over every line read) that the value rests on."""

    value: Union[float, complex]
    err_estimate: float
    panels_used: int


class _Line(NamedTuple):
    """What every integrand reads at z = x + i y on one line Re z = x, for
    the sorted ordinates y >= 0 evaluated there so far: 1/Ai, the relative
    bound bnd/|Ai|, r = Ai'/Ai and bnd/|Ai'|, all four 0 where Ai overflowed;
    and the real-axis tables gathered from them, by (h, m) (see `_node_table`)."""

    y: np.ndarray
    inv: np.ndarray
    rel: np.ndarray
    r: np.ndarray
    rel_r: np.ndarray
    kept: dict


#: cap on the nodes held by all cached lines together: their ordinates (56
#: bytes each) and the nodes of their kept tables (48 bytes each)
_TABLE_NODES = 1 << 14
_LINES: dict[float, _Line] = {}
#: what a line with no nodes yet reads; never mutated (changes build new lines)
_EMPTY = _Line(*(np.empty(0, dt) for dt in (float, complex, float, complex, float)), {})
_LINES_LOCK = threading.Lock()


def _held(line: _Line) -> int:
    """The nodes a line holds: its ordinates and those of its kept tables."""
    return line.y.size + sum(tab[0].size for tab in line.kept.values())


def _node_table(origin: complex, h: float, half_width: float):
    """(1/Ai, bnd/|Ai|, Ai'/Ai, bnd/|Ai'|) at z = origin + i k h for
    |k h| <= half_width, read-only and gathered from the store of its line.

    Each line Re z = x keeps every node evaluated on it, by |Im z|; a node
    below the real axis is read as the conjugate of its mirror image, which
    is what `_ai_kernel` returns there, bit for bit, so 1/Ai and Ai'/Ai are
    conjugated and the bounds read as they are.  Only the ordinates the
    store lacks are evaluated, in one kernel call, and their four values
    are formed once, as they are merged in.  Where Ai overflows the kernel
    returns inf, with Ai' and the bound 0, and all four are stored as 0, so
    every integrand (each divides by Ai) vanishes there exactly; where Ai
    underflows 1/Ai is not finite, so `_trapezoid` raises.

    A table on the real axis is a function of (x, h, m), m = floor(half_width
    / h), alone, so its line keeps it once gathered, where it fits under
    _TABLE_NODES, and a repeat read returns the same arrays.  Kept tables
    yield first: an insert that would take all lines past the cap drops
    every kept table, and if the ordinates alone would still pass it, every
    other line, leaving this one only this table's ordinates: the cap or
    one table.
    """
    x = origin.real + 0.0           # one key for the line through -0.0 and 0.0
    m = math.floor(half_width / h)
    key = (h, m) if origin.imag == 0.0 else None
    with _LINES_LOCK:
        line = _LINES.get(x, _EMPTY)
        tab = line.kept.get(key)
        if tab is not None:
            return tab
        y = origin.imag + h * np.arange(-m, m + 1)
        ay = np.abs(y)
        pos = np.searchsorted(line.y, ay)
        hit = line.y.take(pos, mode="clip") == ay if line.y.size else np.zeros(ay.size, bool)
        new = ay[~hit]
        if new.size:
            new = np.sort(new)
            # not np.unique: its first call imports numpy.ma, about 20 ms
            new = new[np.diff(new, prepend=-1.0) > 0.0]
            # a contour pass holds a handful of lines, so the sums are cheap
            if sum(map(_held, _LINES.values())) + new.size > _TABLE_NODES:
                for lx in list(_LINES):
                    _LINES[lx] = _LINES[lx]._replace(kept={})
                line = line._replace(kept={})
            if sum(ln.y.size for ln in _LINES.values()) + new.size > _TABLE_NODES:
                _LINES.clear()
                keep = np.zeros(line.y.size, bool)
                keep[pos[hit]] = True
                line = _Line(*(a[keep] for a in line[:5]), {})
            ai, aip, bnd = _ai_kernel(x + 1j * new)
            finite = np.isfinite(ai)
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                inv = np.where(finite, 1.0 / ai, 0.0)
                vals = (new, inv, np.where(finite, bnd / np.abs(ai), 0.0), aip * inv,
                        bnd / np.maximum(np.abs(aip), 1e-300))
            at = np.searchsorted(line.y, new)
            line = _Line(*(np.insert(old, at, val) for old, val in zip(line[:5], vals)), line.kept)
            pos = np.searchsorted(line.y, ay)
            _LINES[x] = line
        tab = tuple(a[pos] for a in line[1:5])
        low = np.signbit(y)
        np.conjugate(tab[0], out=tab[0], where=low)
        np.conjugate(tab[2], out=tab[2], where=low)
        for a in tab:
            a.flags.writeable = False
        if key is not None and sum(map(_held, _LINES.values())) + y.size <= _TABLE_NODES:
            _LINES[x] = line._replace(kept={**line.kept, key: tab})
    return tab


def _first_step(a: float, tol: float, u_max: float = 0.0) -> float:
    """The first step on a strip of half-width a about Re z = x = a + a_1:
    half the largest power of two at or below min(a, 2 pi a / ln(1/tol),
    max(1/32, 2/sqrt(max(x, 0) + 2)), pi/u_max), so every cap bounds the
    first check's coarse step 2 h0.

    T_h errs by about M e^{-2 pi a/h} with M >= |int F|.  The check at h
    compares T_h with T_2h, so it can pass only once T_2h meets tol, that
    is 2h <= 2 pi a / ln(1/tol).  The phase of 1/Ai(z)^2 turns by about
    2 sqrt(x) per unit of y, and steps that sample one phase agree on a
    wrong value (E V^2 at sigma = 40 would read -3.1e149); 1/32 keeps the
    first level within the node budget.  The phase cap is at most sqrt(2),
    so the first level always has nodes in both halves of the first octave.
    A Fourier read-out at |u| <= u_max > 0 is 2 pi/h-periodic in u, so
    2h <= pi/u_max puts the images of the coarse sum T_2h at |u| >= u_max.
    """
    phase = max(1.0 / 32.0, 2.0 / math.sqrt(max(a + airy_zero(1), 0.0) + 2.0))
    alias = math.pi / u_max if u_max > 0.0 else math.inf
    return math.ldexp(0.5, math.frexp(min(a, _TWO_PI * a / -math.log(tol), phase, alias))[1] - 1)


class _Level(NamedTuple):
    """One level's nodes k h, |k| <= m = floor(2Y/h), read-only: k, the even
    nodes that T_2h sums, and the octave's halves Y < |k h| <= 1.5Y and
    |k h| > 1.5Y that `_tail` charges."""

    k: np.ndarray
    even: np.ndarray
    inner: np.ndarray
    outer: np.ndarray


@lru_cache(maxsize=64)
def _level(h: float, y: float) -> _Level:
    m = math.floor(2.0 * y / h)
    k = np.arange(-m, m + 1)
    ay = np.abs(k) * h
    level = _Level(k, k % 2 == 0, (ay > y) & (ay <= 1.5 * y), ay > 1.5 * y)
    for a in level:
        a.flags.writeable = False
    return level


def _tail(w: np.ndarray, level: _Level, h: float) -> float:
    """Charge for |y| > 2Y from the octave Y < |y| <= 2Y of the magnitudes w.

    When the octave's outer half holds at most half of its inner half, the
    outer half bounds all that lies beyond 2Y for log-concave decay (the
    half-octave integrals then shrink at least geometrically); otherwise
    the whole octave is charged, which asks for a larger Y.
    """
    inner = h * w[level.inner].sum()
    outer = h * w[level.outer].sum()
    return outer if outer <= 0.5 * inner else inner + outer


def _unmet(reason: str, err, h: float, y: float, budget: int) -> NoConvergence:
    """err is a level's error, or says why none was measured."""
    got = err if isinstance(err, str) else f"err ~ {float(np.max(err, initial=0.0)):.3e}"
    return NoConvergence(f"{reason}: {got} at h = {h:.4g}, Y = {y:g} (budget {budget} Airy nodes)")


def _trapezoid(origins, integrand, tol: float, budget: int, tol_of, u_max: float = 0.0):
    """The line sum every quadrature here shares.

    At each level it gathers the table of every origin on |y| <= 2Y (see
    `_node_table`), and integrand(level, h, *tables) (see `_level`) returns,
    elementwise, T_h and T_2h over the even nodes, and per node |F| and its
    pointwise bound.
    err adds |T_h - T_2h|, h sum bound, 20 eps h sum |F| for rounding and
    the tail charge.  h starts at `_first_step` of tol and u_max on the
    strip about the leftmost origin, Y at _START_HEIGHT; Y doubles while
    the tail is not negligible, h halves while err exceeds the goal
    tol_of(T_h, h sum |F|), and the nodes of all tables together stay
    within `budget`.  Returns (T_h, err, nodes) only under a finite goal:
    where the sum overflows, so does the goal, and "integrand not finite"
    is raised.
    """
    h = _first_step(min(o.real for o in origins) - airy_zero(1), tol, u_max)
    y = _START_HEIGHT
    seen = None
    while True:
        reach = 2.0 * y / h
        nodes = len(origins) * (2 * math.floor(reach) + 1) if reach <= budget else math.inf
        if nodes > budget:
            if seen is None:    # no level ran, so no error was measured
                need = len(origins) * (2.0 * reach + 1.0)    # inf past the double range
                count = f"{need:.6g}" if need < math.inf else "more than 1.8e+308"
                seen = (f"no level ran, the first table needs {count} Airy nodes", h, y)
            raise _unmet("node budget exhausted", *seen, budget)
        level = _level(h, y)
        tables = [_node_table(o, h, 2.0 * y) for o in origins]
        # a non-finite integrand raises below, without numpy's warnings
        with np.errstate(over="ignore", invalid="ignore"):
            v, v2, w, e = integrand(level, h, *tables)
            pts, mag, tail = h * e.sum(), h * w.sum(), _tail(w + e, level, h)
            goal = tol_of(v, mag)
            disc = np.abs(v - v2)
            floor = pts + 20.0 * _EPS * mag
            err = disc + floor + tail
        seen = (err, h, y)
        if goal < math.inf and np.all(err <= goal):
            return v, err, nodes
        if not np.all(np.isfinite(err)):
            raise _unmet("integrand not finite", err, h, y, budget)
        if np.any(tail > 0.1 * goal):
            y *= 2.0
        elif np.any((floor > goal) & (disc <= floor)):
            raise _unmet("Airy bounds and rounding exceed the tolerance", err, h, y, budget)
        else:
            h *= 0.5


def contour_integral_inv_ai2(poly: RationalPoly,
                             contour: Optional[ContourSpec] = None) -> QuadResult:
    """(1/2 pi i) * int p(z) / Ai(z)^2 dz along Re z = sigma.

    The imaginary part (zero in exact arithmetic for real p) is folded into
    the error estimate and a real value is returned.
    """
    if not isinstance(poly, RationalPoly):
        raise TypeError("poly must be a RationalPoly")
    return _real(_ai_product_integral((tuple(poly.float_coeffs()),), 0, _spec(contour)), 1.0)


@lru_cache(maxsize=128)
def _moment_coeffs(n: int) -> tuple:
    """The one-row key of p_n, built once per order."""
    return (tuple(algebra.moment_polynomial(n).float_coeffs()),)


@lru_cache(maxsize=256)
def _ai_product_integral(rows: tuple, t: complex, spec: ContourSpec):
    """int P(z, r) / (Ai(z) Ai(z + t)) dy on Re z = spec.sigma, r = Ai'/Ai:
    the raw (value, err, nodes), 2 pi times I(P, t).  Row b of P holds the
    ascending float z-coefficients of r^b; a polynomial in z alone is one
    row, and a constant its one coefficient.  At t = 0 one table serves
    both factors; otherwise the second is read on the line through
    sigma + t.  The zero polynomial gives 0 without a table."""
    terms = [(b, row) for b, row in enumerate(rows) if any(row)]
    if not terms:
        return 0j, 0.0, 0
    c = complex(spec.sigma)
    origins = (c,) if t == 0 else (c, c + t)

    def integrand(level, h, tab, *shifted):
        inv0, rel0, r, rel_r = tab
        inv1, rel1 = shifted[0][:2] if shifted else (inv0, rel0)
        f = e = None
        for b, row in terms:
            p = row[0] if len(row) == 1 else np.polyval(row[::-1], c + 1j * h * level.k)
            rel = rel0 + rel1
            if b:       # r = Ai'/Ai stays moderate where Ai' ** b would overflow
                p = p * r ** b
                rel = rel + b * (rel0 + rel_r)
            val = p * inv0 * inv1
            err = np.abs(val) * rel
            f, e = (val, err) if f is None else (f + val, e + err)
        return h * f.sum(), 2.0 * h * f[level.even].sum(), np.abs(f), e

    val, err, nodes = _trapezoid(origins, integrand, spec.rel_tol, _LINE_NODES,
                                 lambda v, mag: spec.rel_tol * max(abs(v), 1e-6 * mag))
    return complex(val), float(err), nodes


def _real(raw: tuple, scale: float) -> QuadResult:
    """scale * I from the raw triple of a real P: the imaginary part, zero
    in exact arithmetic, is folded into the error estimate."""
    val, err, nodes = raw
    return QuadResult(scale * (val.real / _TWO_PI),
                      abs(scale) * ((err + abs(val.imag)) / _TWO_PI), nodes)


def moment_quad(n: int, gamma: float = CANONICAL_GAMMA,
                contour: Optional[ContourSpec] = None) -> QuadResult:
    """E V_gamma^n with its quadrature error estimate."""
    n = _as_order(n, "moment order")
    gamma = _as_real(gamma, "gamma must be a positive real", positive=True)
    try:
        scale = length_scale(gamma) ** n
        coeffs = _moment_coeffs(n)
    except (OverflowError, OverflowDomain):     # from the power, or p_n's coefficients
        pass
    else:
        q = _real(_ai_product_integral(coeffs, 0, _spec(contour)), scale)
        # only a scale above 1 can carry a finite integral past the double range
        if scale <= 1.0 or math.isfinite(q.value) and math.isfinite(q.err_estimate):
            return q
    raise OverflowDomain(f"E V^{n} at gamma = {gamma!r} overflows double precision")


def moment(n: int, gamma: float = CANONICAL_GAMMA,
           contour: Optional[ContourSpec] = None) -> float:
    """n-th moment of the argmax location V_gamma.  Odd orders are exact
    zeros because the moment polynomial itself vanishes."""
    return moment_quad(n, gamma, contour).value


@lru_cache(maxsize=128)
def _by_parts_rows(j: int, k: int) -> Union[tuple, str]:
    """The key of P(z, r) = (-1)^j (d^j 1/Ai)(d^k 1/Ai) Ai^2, r = Ai'/Ai.
    Each factor's terms have ell = k + 1, so each term of the product is
    c z^a r^b / Ai^2, coefficient a of row b.  No row ends in a zero and
    the last row is not empty, so for even j + k the splits (j, k) and
    (k, j) share one key.  A refusal is cached as its OverflowDomain message."""
    sign = -1 if j % 2 else 1
    rows: list[list[float]] = []
    try:
        for t, c in algebra.term_sum_product(
                algebra.inv_ai_derivative(j), algebra.inv_ai_derivative(k)).items():
            assert t.ell - t.k == 2, t
            rows += [[] for _ in range(t.k + 1 - len(rows))]
            rows[t.k] += [0.0] * (t.j + 1 - len(rows[t.k]))
            rows[t.k][t.j] = algebra._float(sign * c)
    except OverflowDomain as exc:
        return str(exc)
    return tuple(map(tuple, rows))


def moment_by_parts(j: int, k: int,
                    contour: Optional[ContourSpec] = None) -> float:
    """E V^{j+k} at canonical gamma via the split integrand
    (-1)^j (d^j 1/Ai)(d^k 1/Ai) = P(z, Ai'/Ai) / Ai^2, an independent route
    to the same number for every split j + k = n, cached like every I.
    The splits cancel, so the Airy bounds often exceed a tight tolerance:
    of the 120 splits with n <= 14, 14 return at the default rel_tol 1e-10
    (all for n = 0, 2, 4, and (5, 1) to (1, 5)), 23 at 1e-8 and 55 at 1e-5,
    and the rest raise NoConvergence.  Every odd split raises at 1e-10: its
    value 0 meets no relative tolerance (ROADMAP item 1, abs_tol, would)."""
    j, k = _as_order(j, "moment order"), _as_order(k, "moment order")
    _as_order(j + k, "moment order j + k")
    rows = _by_parts_rows(j, k)
    if isinstance(rows, str):       # the cached refusal
        raise OverflowDomain(rows)
    return _real(_ai_product_integral(rows, 0, _spec(contour)), 1.0).value


def mean_max_quad(gamma: float = CANONICAL_GAMMA,
                  contour: Optional[ContourSpec] = None) -> QuadResult:
    """E M_gamma = -sqrt(s/2) (1/2 pi i) int z/Ai(z)^2 dz, s = length_scale(gamma)."""
    scale = -math.sqrt(0.5 * length_scale(gamma))
    return _real(_ai_product_integral(_Z_ROWS, 0, _spec(contour)), scale)


def mean_max(gamma: float = CANONICAL_GAMMA,
             contour: Optional[ContourSpec] = None) -> float:
    return mean_max_quad(gamma, contour).value


def char_fn_quad(t: float, contour: Optional[ContourSpec] = None) -> QuadResult:
    """E exp(i t V) at canonical gamma: the mgf at i t on the contour's own
    line; the imaginary part is an error diagnostic."""
    t = _as_real(t, "t must be a finite real")
    return mgf_quad(1j * t, contour=_spec(contour))


def char_fn(t: float, contour: Optional[ContourSpec] = None) -> complex:
    return char_fn_quad(t, contour).value


def mgf_quad(t: complex, contour: Optional[ContourSpec] = None) -> QuadResult:
    """E exp(t V) at canonical gamma for complex t.

    The integrand is 1/(Ai(z) Ai(z + t)) on the contour's line Re z =
    sigma, by default ContourSpec(sigma=default_mgf_sigma(t)).  The shifted
    argument must stay right of the zeros too: sigma + Re t > a_1.
    """
    t = _as_complex(t, "t must be a finite number")
    if contour is None:     # sigma + Re t >= a_1 + 1 on the default line
        contour = ContourSpec(sigma=default_mgf_sigma(t))
    elif contour.sigma + t.real <= airy_zero(1):
        raise ContourTooLeft(
            f"need sigma + Re t > a_1; got sigma = {contour.sigma}, Re t = {t.real}, "
            f"a_1 = {airy_zero(1):.6f}")
    val, err, nodes = _ai_product_integral(((1.0,),), t, contour)
    return QuadResult(val / _TWO_PI, err / _TWO_PI, nodes)


def default_mgf_sigma(t: complex) -> float:
    """The default mgf contour max(0, a_1 + 1 - Re t): both Ai arguments
    then stay right of the zeros with unit margin."""
    return max(0.0, airy_zero(1) + 1.0 - _as_complex(t, "t must be a finite number").real)


def mgf(t: complex, contour: Optional[ContourSpec] = None) -> complex:
    return mgf_quad(t, contour).value


def length_scale(gamma: float) -> float:
    """s with V_gamma distributed as s * V at canonical gamma."""
    gamma = _as_real(gamma, "gamma must be a positive real", positive=True)
    return 2.0 ** (-1.0 / 3.0) * gamma ** (-2.0 / 3.0)


#: x values per block of phase products, so memory does not grow with len(xs)
_X_BLOCK = 128


def density(x: float, gamma: float = CANONICAL_GAMMA, tol: float = 1e-8) -> float:
    """Density of V_gamma at x within absolute error tol (see density_grid)."""
    x = _as_real(x, "x must be a finite real")
    return float(density_grid(np.array([x]), gamma, tol)[0])


def density_grid(xs, gamma: float = CANONICAL_GAMMA,
                 tol: float = 1e-8) -> np.ndarray:
    """Density of V_gamma at every x in xs, each within absolute error tol.

    At canonical scale f(u) = g(u) g(-u) / 2 with
    g(u) = (1/2 pi) int e^{-i t u} hat g(t) dt and hat g(t) = sqrt(2)/Ai(i t),
    read from the sigma = 0 line; then the length-scale change to gamma.
    h starts at the first step of the line integrals (see `_first_step`),
    with the strip half-width -a_1, tol and the aliasing bound of u_max =
    max|u|: a trapezoidal sum in t is 2 pi/h-periodic in u, so with
    pi/h >= 2 u_max the images of g that T_2h adds sit at |u| >= u_max.
    Raises NoConvergence when tol cannot be met within the node budget, and
    also when the Airy-bound floor exceeds the tolerance that the absolute
    tol implies for each factor g: at large gamma with a tight tol, such as
    gamma = 100 (f(0) = 16.3) and tol = 1e-12, which asks g for about 6e-14
    relative.  Raises ValueError for xs that are not finite, and
    OverflowDomain for finite xs whose canonical-scale points
    xs / length_scale(gamma) overflow.
    """
    gamma = _as_real(gamma, "gamma must be a positive real", positive=True)
    tol = _as_real(tol, "tol must lie in [1e-12, 1e-2]")
    if not 1e-12 <= tol <= 1e-2:
        raise ValueError("tol must lie in [1e-12, 1e-2]")
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 1:
        raise ValueError("xs must be one-dimensional")
    if not np.all(np.isfinite(xs)):
        raise ValueError("xs must be finite")
    s = length_scale(gamma)
    with np.errstate(over="ignore"):
        u = xs / s
    if not np.all(np.isfinite(u)):
        raise OverflowDomain(f"xs / length_scale(gamma) at gamma = {gamma!r} "
                             "overflows double precision")

    def integrand(level, h, tab):
        inv, rel = tab[:2]
        ghat = _SQRT2 * inv
        # node -k is the conjugate of node k (see `_node_table`), so the real
        # part of sum_k ghat_k e^{-i k h u} is sum_{k >= 0} A_k cos(k h u) +
        # B_k sin(k h u), A_k = 2 Re ghat_k and B_k = 2 Im ghat_k for k > 0
        k = level.k
        m = k[-1]
        a, b = 2.0 * ghat.real[m:], 2.0 * ghat.imag[m:]
        a[0], b[0] = ghat.real[m], 0.0
        even = 2.0 * level.even[m:]
        wa = np.stack([a, even * a], axis=1) * (h / _TWO_PI)
        wb = np.stack([b, even * b], axis=1) * (h / _TWO_PI)
        t = h * k[m:]
        ca = np.empty((u.size, 2))
        sb = np.empty((u.size, 2))
        for i in range(0, u.size, _X_BLOCK):
            phase = np.outer(u[i:i + _X_BLOCK], t)
            ca[i:i + _X_BLOCK] = np.cos(phase) @ wa
            sb[i:i + _X_BLOCK] = np.sin(phase) @ wb
        g = np.concatenate([ca + sb, ca - sb])       # rows g(u), then g(-u)
        w = np.abs(ghat) / _TWO_PI
        return g[:, 0], g[:, 1], w, w * rel

    # with |g| <= G = h sum |hat g| / 2 pi and both errors below
    # min(1, 2 s tol / (2G + 1)), the error of g(u) g(-u) / (2 s) is below tol
    g, _, _ = _trapezoid((0j,), integrand, tol, _TABLE_NODES,
                         lambda v, mag: min(1.0, 2.0 * s * tol / (2.0 * mag + 1.0)),
                         u_max=float(np.max(np.abs(u), initial=0.0)))
    return 0.5 * g[:u.size] * g[u.size:] / s


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    passed: bool
    lhs: float
    rhs: float
    tol: float

    def describe(self) -> str:
        flag = "ok" if self.passed else "FAIL"
        return (f"{self.name}: {flag}  lhs={self.lhs:.12g} rhs={self.rhs:.12g} "
                f"(tol {self.tol:g})")


def identity_suite(contour: Optional[ContourSpec] = None) -> list[IdentityCheck]:
    """Cross-checks tying independent numerical routes together.  Each
    passes when its deviation, |lhs - rhs| unless given, is at most its tol."""
    spec = _spec(contour)
    checks: list[IdentityCheck] = []

    def check(name, lhs, rhs, tol, deviation=None):
        deviation = abs(lhs - rhs) if deviation is None else deviation
        checks.append(IdentityCheck(name, deviation <= tol, lhs, rhs, tol))

    one = RationalPoly({0: 1})
    q0 = contour_integral_inv_ai2(one, spec)
    check("normalization sigma=0", q0.value, 1.0, 1e-8)
    for sig in (0.5, 1.0):
        q = contour_integral_inv_ai2(one, replace(spec, sigma=sig))
        check(f"contour invariance sigma={sig}", q.value, 1.0,
              max(2.0 * max(q.err_estimate, q0.err_estimate), 1e-12))
    for g in (CANONICAL_GAMMA, 1.0, 2.0):
        check(f"E V^2 = E M / (3 gamma), gamma={g:.6g}",
              moment(2, g, spec), mean_max(g, spec) / (3.0 * g), 1e-6)
    base = moment(2, CANONICAL_GAMMA, spec)
    for g in (0.25, 3.0):
        # the law V_gamma = s V in its exponent form, apart from length_scale
        check(f"scaling invariance n=2, gamma={g}",
              moment(2, g, spec) * 2.0 ** (2.0 / 3.0) * g ** (4.0 / 3.0), base, 1e-10)
    # the product integrand's contour invariance: the cf on the spec's line
    # against the mgf at i on sigma = 0.5
    cf = char_fn(1.0, spec)
    mg = mgf(complex(0.0, 1.0), replace(spec, sigma=0.5))
    check("char_fn(1) = mgf(i) on sigma=0.5", abs(cf), abs(mg), 1e-8, abs(cf - mg))
    return checks

"""Exact symbolic algebra over Airy terms.

The atoms are z^j Ai'(z)^k / Ai(z)^ell, encoded as AiryTerm(j, k, ell), with
exact rational coefficients.  Two operations generate everything: the
derivative rule (using Ai'' = z Ai)

    d/dz [z^j Ai'^k / Ai^ell] = j (j-1,k,ell) + k (j+1,k-1,ell-1)
                                - ell (j,k+1,ell+1)

and the reduction recurrence for contour integrals of terms with ell > k,

    I(j,k,ell) = (j/(ell-1)) I(j-1,k-1,ell-1)
               + ((k-1)/(ell-1)) I(j+1,k-2,ell-2)        (k >= 2)
    I(j,1,ell) = (j/(ell-1)) I(j-1,0,ell-1)
    I(j,k,ell) = 0 whenever j < 0 or k < 0,

which preserves ell - k and terminates at k = 0.  Iterating the derivative
on 1/Ai and reducing the product with a further 1/Ai factor produces the
moment polynomials p_n with p_0 = 1, p_2 = -z/3, p_4 = 7 z^2 / 15, ...

All arithmetic is exact and floats never enter.  The derivatives of 1/Ai
(integer coefficients) and the reduction sweep (_reduce_class) run on
Python ints; Fractions appear only in the public TermSum and RationalPoly
values.  Every sum of those values is formed by _accumulate, which drops
each key whose coefficients sum to 0 (the TermSum and RationalPoly
constructors, TermSum addition and term_sum_product); every order or
power taken from a caller is checked by errors._as_int; and an exact
coefficient becomes a float only through _float, which raises
OverflowDomain past the double range.
"""
from __future__ import annotations

import math
import threading
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from typing import Iterable, Iterator, NamedTuple, Union

from .errors import NotIntegrable, OverflowDomain, _as_int

RationalLike = Union[int, Fraction]


class AiryTerm(NamedTuple):
    """z^j * Ai'(z)^k / Ai(z)^ell."""

    j: int
    k: int
    ell: int


def _as_fraction(c: RationalLike) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int) and not isinstance(c, bool):
        return Fraction(c)
    raise TypeError(f"coefficient must be int or Fraction, got {type(c).__name__}")


def _accumulate(pairs: Iterable[tuple]) -> dict:
    """Sum the coefficients of equal keys, dropping every key whose sum is 0."""
    acc: dict = {}
    for key, c in pairs:
        acc[key] = acc.get(key, 0) + c
    return {key: c for key, c in acc.items() if c}


def _float(c: Fraction) -> float:
    """c rounded to a float; OverflowDomain where it leaves the double range."""
    try:
        return float(c)
    except OverflowError:
        size = c.numerator.bit_length() - c.denominator.bit_length()
        raise OverflowDomain(f"an exact coefficient near 2^{size} overflows "
                             f"double precision") from None


def _as_term(t) -> AiryTerm:
    if not isinstance(t, AiryTerm):
        t = AiryTerm(*t)
    if not all(isinstance(v, int) and not isinstance(v, bool) for v in t):
        raise TypeError("AiryTerm indices must be integers")
    if t.j < 0 or t.k < 0:
        raise ValueError(f"AiryTerm powers j, k must be nonnegative: {t}")
    return t


class TermSum:
    """Finite rational linear combination of AiryTerm atoms.

    Immutable; terms with zero coefficient are dropped at construction, and
    iteration is in a fixed sorted order so results never depend on how the
    sum was assembled.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Union[dict, Iterable[tuple]] = ()):
        items = terms.items() if isinstance(terms, dict) else terms
        self._terms = _accumulate((_as_term(t), _as_fraction(c)) for t, c in items)

    @staticmethod
    def _of(terms: dict) -> "TermSum":
        """Wrap checked atoms with nonzero Fraction coefficients as they are."""
        out = TermSum.__new__(TermSum)
        out._terms = terms
        return out

    def items(self) -> Iterator[tuple[AiryTerm, Fraction]]:
        return iter(sorted(self._terms.items()))

    def coefficient(self, t) -> Fraction:
        return self._terms.get(_as_term(t), Fraction(0))

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TermSum):
            return NotImplemented
        return self._terms == other._terms

    def __add__(self, other: "TermSum") -> "TermSum":
        if not isinstance(other, TermSum):
            return NotImplemented
        return TermSum._of(_accumulate(chain(self._terms.items(), other._terms.items())))

    def __neg__(self) -> "TermSum":
        return self.scale(-1)

    def __sub__(self, other: "TermSum") -> "TermSum":
        return self + (-other)

    def scale(self, c: RationalLike) -> "TermSum":
        c = _as_fraction(c)
        return TermSum._of({} if c == 0 else {t: c * v for t, v in self._terms.items()})

    def shift_ell(self, d: int) -> "TermSum":
        """Multiply every atom by Ai^{-d} (d = 1 appends one 1/Ai factor)."""
        return TermSum._of({AiryTerm(t.j, t.k, t.ell + d): v for t, v in self._terms.items()})

    def __repr__(self) -> str:
        if not self._terms:
            return "TermSum()"
        parts = [f"{c!s}*(j={t.j},k={t.k},ell={t.ell})" for t, c in self.items()]
        return "TermSum[" + " + ".join(parts) + "]"


def _derivative(coeffs: dict) -> dict:
    """d/dz of sum c z^j Ai'^k / Ai^ell, given and returned as
    {(j, k, ell): c} with int or Fraction c, via Ai'' = z Ai."""
    out: defaultdict[tuple[int, int, int], RationalLike] = defaultdict(int)
    for (j, k, ell), c in coeffs.items():
        if j:
            out[j - 1, k, ell] += j * c
        if k:
            out[j + 1, k - 1, ell - 1] += k * c
        if ell:
            out[j, k + 1, ell + 1] -= ell * c
    return out


def term_sum_derivative(s: TermSum) -> TermSum:
    """d/dz of a TermSum, via Ai'' = z Ai."""
    return TermSum(_derivative(s._terms))


def term_sum_product(a: TermSum, b: TermSum) -> TermSum:
    """Pointwise product; atoms multiply by adding exponents."""
    return TermSum._of(_accumulate(
        (AiryTerm(ta.j + tb.j, ta.k + tb.k, ta.ell + tb.ell), ca * cb)
        for ta, ca in a._terms.items() for tb, cb in b._terms.items()))


class _DerivativeCursor:
    """The highest derivative of 1/Ai computed so far, as {(j, k, k + 1): int}.

    A request at or above the cursor steps it forward and one below starts
    again from 1/Ai, so a single order is held at any time.  The returned
    dict is never mutated afterwards.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self.clear()

    def clear(self) -> None:
        with self._lock:
            self._m, self._coeffs = 0, {(0, 0, 1): 1}

    def get(self, m: int) -> dict:
        with self._lock:
            if m < self._m:
                self._m, self._coeffs = 0, {(0, 0, 1): 1}
            while self._m < m:
                self._coeffs = _derivative(self._coeffs)
                self._m += 1
            return self._coeffs


_DERIVATIVES = _DerivativeCursor()


def inv_ai_derivative(m: int) -> TermSum:
    """m-th derivative of 1/Ai as a TermSum.

    Every term has ell = k + 1, 2j + k <= m, integer coefficients, and
    2j + k == m (mod 3); these are checked by the test suite, not assumed
    here.
    """
    return TermSum(_DERIVATIVES.get(_as_int(m, "m must be a nonnegative integer")))


def _reduce_class(d: int, atoms: dict) -> dict[int, Fraction]:
    """Reduce sum c I(j, k, k + d), given as {k: {j: c}}, to {j: coefficient
    of (j, 0, d)}.

    One downward sweep over k: level k is held as integer numerators over
    P_k = prod_{i=k+1}^{kmax} (i + d - 1) (times the lcm of the input
    denominators), so the recurrence's step k -> k-1 adds j b and the step
    k -> k-2 adds (k-1)(k+d-2) b, and level 0 is divided once.
    """
    scale = math.lcm(*(c.denominator for row in atoms.values() for c in row.values()))
    levels: dict[int, dict[int, int]] = {}
    den = 1
    for k in range(max(atoms), -1, -1):
        level = levels.pop(k, {})
        for j, c in atoms.get(k, {}).items():
            level[j] = level.get(j, 0) + c.numerator * (scale // c.denominator) * den
        if k == 0:
            break
        down = levels.setdefault(k - 1, {})
        for j, b in level.items():
            if j:
                down[j - 1] = down.get(j - 1, 0) + j * b
        if k >= 2:
            down, f = levels.setdefault(k - 2, {}), (k - 1) * (k + d - 2)
            for j, b in level.items():
                down[j + 1] = down.get(j + 1, 0) + f * b
        den *= k + d - 1
    return {j: Fraction(b, den * scale) for j, b in level.items() if b}


def reduce_integral(t) -> TermSum:
    """Rewrite the contour integral of one atom as a sum of k = 0 atoms.

    Valid only for ell > k (the boundary terms of the underlying
    integration by parts vanish there); anything else raises NotIntegrable.
    The result preserves ell - k, so atoms with ell = k + 2 land on
    (j, 0, 2), the moment-polynomial normal form.
    """
    return reduce_term_sum(TermSum([(t, 1)]))


def reduce_term_sum(s: TermSum) -> TermSum:
    """reduce_integral applied to every atom of s, class d = ell - k by class."""
    classes: dict[int, dict[int, dict[int, Fraction]]] = {}
    for t, c in s.items():
        if t.ell <= t.k:
            raise NotIntegrable(f"reduction needs ell > k, got {t}")
        classes.setdefault(t.ell - t.k, {}).setdefault(t.k, {})[t.j] = c
    return TermSum({AiryTerm(j, 0, d): c for d, atoms in classes.items()
                    for j, c in _reduce_class(d, atoms).items()})


class RationalPoly:
    """Polynomial in z with Fraction coefficients, stored sparsely."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Union[dict, Iterable[tuple]] = ()):
        items = coeffs.items() if isinstance(coeffs, dict) else coeffs
        self._coeffs = _accumulate(
            (_as_int(p, "power must be a nonnegative integer"), _as_fraction(c))
            for p, c in items)

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def degree(self) -> int:
        """Degree, with the convention deg 0 = -1."""
        return max(self._coeffs) if self._coeffs else -1

    def coefficient(self, p: int) -> Fraction:
        return self._coeffs.get(p, Fraction(0))

    def items(self) -> Iterator[tuple[int, Fraction]]:
        return iter(sorted(self._coeffs.items()))

    def float_coeffs(self) -> list[float]:
        """Dense ascending coefficient list as floats (for quadrature)."""
        if not self._coeffs:
            return [0.0]
        out = [0.0] * (self.degree() + 1)
        for p, c in self._coeffs.items():
            out[p] = _float(c)
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalPoly):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __repr__(self) -> str:
        return f"RationalPoly({self!s})"

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        parts = []
        for p, c in sorted(self._coeffs.items(), reverse=True):
            mag = str(abs(c))
            if p == 0:
                body = mag
            else:
                zpow = "z" if p == 1 else f"z^{p}"
                body = zpow if abs(c) == 1 else f"{mag}*{zpow}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)


def term_sum_to_poly(s: TermSum) -> RationalPoly:
    """Read off a polynomial from a fully reduced sum of (j, 0, 2) atoms."""
    coeffs: dict[int, Fraction] = {}
    for t, c in s.items():
        if t.k != 0 or t.ell != 2:
            raise AssertionError(f"not in (j, 0, 2) normal form: {t}")
        coeffs[t.j] = c
    return RationalPoly(coeffs)


@lru_cache(maxsize=128)
def moment_polynomial(n: int) -> RationalPoly:
    """The polynomial p_n with E V^n = (1/2 pi i) * integral of p_n / Ai^2.

    Built exactly: differentiate 1/Ai n times, multiply by another 1/Ai,
    and reduce the contour integral of each term to the (j, 0, 2) form.
    Odd n yields the zero polynomial.
    """
    n = _as_int(n, "n must be a nonnegative integer")
    atoms: dict[int, dict[int, int]] = {}
    for (j, k, _), c in _DERIVATIVES.get(n).items():
        atoms.setdefault(k, {})[j] = c  # times 1/Ai: the atom (j, k, k + 2)
    return RationalPoly(_reduce_class(2, atoms))


def moment_polynomial_json(n: int) -> dict:
    """JSON-ready exact form: {"n": n, "coeffs": {"j": "num/den"}}."""
    n = _as_int(n, "n must be a nonnegative integer")
    p = moment_polynomial(n)
    return {
        "n": n,
        "coeffs": {str(j): f"{c.numerator}/{c.denominator}" for j, c in p.items()},
    }


def _sinh_gf_coefficients(m_max: int) -> list[Fraction]:
    """E_m = (2m)! [x^{2m}] x/sinh(x) for m = 0..m_max.

    Exact power-series inversion of sinh(x)/x = sum x^{2r}/(2r+1)!, which
    in these units reads sum_{r=0}^{m} C(2m+1, 2r+1) E_{m-r} = [m == 0].
    """
    e = [Fraction(1)]
    for m in range(1, m_max + 1):
        acc = sum(math.comb(2 * m + 1, 2 * r + 1) * e[m - r] for r in range(1, m + 1))
        e.append(-acc / (2 * m + 1))
    return e


def sinh_gf_coefficient(n: int) -> Fraction:
    """n! times the x^n coefficient of x/sinh(x).

    This is the conjectured closed form for the leading coefficient of p_n
    (n even); odd n gives 0.
    """
    n = _as_int(n, "n must be a nonnegative integer")
    return Fraction(0) if n % 2 else _sinh_gf_coefficients(n // 2)[-1]


@dataclass(frozen=True)
class ConjectureRow:
    """Checks for one n: p_n vanishes (odd) / has exact degree n/2 with the
    predicted leading coefficient and mod-3 support pattern (even)."""

    n: int
    poly_is_zero: bool
    degree: int
    degree_ok: bool
    leading: Fraction
    leading_ok: bool
    mod3_ok: bool

    @property
    def ok(self) -> bool:
        return self.degree_ok and self.leading_ok and self.mod3_ok


@dataclass(frozen=True)
class ConjectureReport:
    max_n: int
    rows: tuple[ConjectureRow, ...]

    @property
    def odd_all_zero(self) -> bool:
        return all(r.poly_is_zero for r in self.rows if r.n % 2)

    @property
    def all_ok(self) -> bool:
        return all(r.ok for r in self.rows)

    def failures(self) -> list[int]:
        return [r.n for r in self.rows if not r.ok]


def verify_conjectures(max_n: int) -> ConjectureReport:
    """Exactly test the structural conjectures for every n <= max_n.

    Odd n: p_n = 0.  Even n: deg p_n = n/2 exactly, the leading coefficient
    equals sinh_gf_coefficient(n), and only powers j == n/2 (mod 3) occur.
    """
    max_n = _as_int(max_n, "max_n must be a nonnegative integer")
    sinh = _sinh_gf_coefficients(max_n // 2)
    rows = []
    for n in range(max_n + 1):
        p = moment_polynomial(n)
        even = n % 2 == 0
        half = n // 2 if even else -1      # odd n: p_n = 0, of degree -1
        deg = p.degree()
        lead = p.coefficient(deg)
        rows.append(ConjectureRow(
            n=n, poly_is_zero=p.is_zero, degree=deg, degree_ok=deg == half,
            leading=lead, leading_ok=lead == (sinh[half] if even else 0),
            mod3_ok=all(even and j % 3 == half % 3 for j, _ in p.items())))
    return ConjectureReport(max_n=max_n, rows=tuple(rows))

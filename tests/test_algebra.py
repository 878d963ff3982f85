"""Exact-algebra tests: derivative chain, reduction, moment polynomials.

Two independent oracles: sympy re-derives the 1/Ai derivative chain and the
x/sinh(x) series symbolically, and mpmath integrals of single atoms along the
imaginary axis, frozen in reduction_references.json, confirm the reduction
recurrence numerically.
"""

import hashlib
import json
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chernoff import algebra
from chernoff import (
    AiryTerm,
    NotIntegrable,
    RationalPoly,
    TermSum,
    inv_ai_derivative,
    moment_polynomial,
    moment_polynomial_json,
    reduce_integral,
    reduce_term_sum,
    sinh_gf_coefficient,
    term_sum_derivative,
    term_sum_product,
    term_sum_to_poly,
    verify_conjectures,
)

F = Fraction

# p_n for even n <= 12, frozen as {power: coefficient}
KNOWN_POLYS = {
    0: {0: F(1)},
    2: {1: F(-1, 3)},
    4: {2: F(7, 15)},
    6: {3: F(-31, 21), 0: F(26, 21)},
    8: {4: F(127, 15), 1: F(-196, 9)},
    10: {5: F(-2555, 33), 2: F(13160, 33)},
    12: {6: F(1414477, 1365), 3: F(-2419532, 273), 0: F(1989472, 1365)},
}

# sha256 of json.dumps([moment_polynomial_json(n) for n in range(101)]) and of
# json.dumps([[[list(t), str(c)] for t, c in inv_ai_derivative(m).items()]
# for m in range(61)]), frozen from the term-by-term Fraction implementation
POLYS_0_100_SHA256 = "d83f98a1afef2c4aa1945b1d90aeb592bf8b3d59be766a1f562add8cdce9a559"
DERIVATIVES_0_60_SHA256 = "2549c1a78d5408baa60f79da5dd7d797c2b25439248c5c0d7e66b6af7b01dfe7"


def _cold():
    moment_polynomial.cache_clear()
    algebra._DERIVATIVES.clear()


# ---------------------------------------------------------------- polynomials


@pytest.mark.parametrize("n", sorted(KNOWN_POLYS))
def test_known_polynomials_exact(n):
    assert moment_polynomial(n) == RationalPoly(KNOWN_POLYS[n])


@pytest.mark.parametrize("n", [1, 3, 5, 7, 9, 11, 13])
def test_odd_polynomials_vanish(n):
    p = moment_polynomial(n)
    assert p.is_zero
    assert p.degree() == -1
    assert str(p) == "0"


def test_poly_str():
    assert str(moment_polynomial(2)) == "-1/3*z"
    assert str(moment_polynomial(0)) == "1"
    assert (
        str(moment_polynomial(12))
        == "1414477/1365*z^6 - 2419532/273*z^3 + 1989472/1365"
    )


def test_moment_polynomial_json():
    assert moment_polynomial_json(4) == {"n": 4, "coeffs": {"2": "7/15"}}
    assert moment_polynomial_json(6) == {
        "n": 6,
        "coeffs": {"0": "26/21", "3": "-31/21"},
    }
    assert moment_polynomial_json(3) == {"n": 3, "coeffs": {}}


def test_exact_values_bit_identical():
    def sha(doc):
        return hashlib.sha256(json.dumps(doc).encode()).hexdigest()

    _cold()
    assert sha([moment_polynomial_json(n) for n in range(101)]) == POLYS_0_100_SHA256
    derivs = [[[list(t), str(c)] for t, c in inv_ai_derivative(m).items()]
              for m in range(61)]
    assert sha(derivs) == DERIVATIVES_0_60_SHA256


def test_cold_verify_to_200_memory():
    # one derivative order is held at a time; keeping every order grows
    # about as m^3 (above 100 MB by m = 200)
    _cold()
    tracemalloc.start()
    try:
        rep = verify_conjectures(200)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.all_ok
    assert peak < 16 * 2**20, peak


def test_cold_moment_polynomials_agree_across_threads():
    orders = [range(40), range(39, -1, -1), range(10, 50, 3), [45, 5, 30, 12, 44, 2]]
    expect = {n: moment_polynomial(n) for n in range(50)}
    _cold()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            futures = [pool.submit(lambda ns: [(n, moment_polynomial(n)) for n in ns], ns)
                       for ns in orders]
            results = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for got in results:
        for n, p in got:
            assert p == expect[n], n


@pytest.mark.parametrize("bad", [-1, -4, 2.0, "2", True])
def test_moment_polynomial_rejects(bad):
    for order_of in (moment_polynomial, inv_ai_derivative, sinh_gf_coefficient,
                     verify_conjectures):
        with pytest.raises(ValueError):
            order_of(bad)


# ---------------------------------------------------------------- derivative chain


def test_first_derivatives_by_hand():
    assert inv_ai_derivative(0) == TermSum([(AiryTerm(0, 0, 1), 1)])
    # d/dz 1/Ai = -Ai'/Ai^2
    assert inv_ai_derivative(1) == TermSum([(AiryTerm(0, 1, 2), -1)])
    # d^2/dz^2 1/Ai = 2 Ai'^2/Ai^3 - z/Ai   (uses Ai'' = z Ai)
    assert inv_ai_derivative(2) == TermSum(
        [(AiryTerm(0, 2, 3), 2), (AiryTerm(1, 0, 1), -1)]
    )


@pytest.mark.parametrize("m", range(7))
def test_derivative_chain_against_sympy(m):
    sympy = pytest.importorskip("sympy")
    z = sympy.symbols("z")
    ours = sympy.Integer(0)
    for (j, k, ell), c in inv_ai_derivative(m).items():
        ours += (
            sympy.Rational(c.numerator, c.denominator)
            * z**j
            * sympy.airyaiprime(z) ** k
            / sympy.airyai(z) ** ell
        )
    theirs = sympy.diff(1 / sympy.airyai(z), z, m)
    num, _ = sympy.fraction(sympy.together(ours - theirs))
    assert sympy.expand(num) == 0


@pytest.mark.parametrize("m", range(26))
def test_derivative_chain_structure(m):
    s = inv_ai_derivative(m)
    assert len(s) > 0
    for (j, k, ell), c in s.items():
        assert ell == k + 1
        assert 2 * j + k <= m
        assert (2 * j + k) % 3 == m % 3
        assert c.denominator == 1  # integer coefficients throughout


def test_derivative_rule_single_atom():
    d = term_sum_derivative(TermSum([(AiryTerm(2, 3, 5), 1)]))
    assert d == TermSum(
        [
            (AiryTerm(1, 3, 5), 2),
            (AiryTerm(3, 2, 4), 3),
            (AiryTerm(2, 4, 6), -5),
        ]
    )


# ---------------------------------------------------------------- reduction


# int_{-30}^{30} z^j Ai'(z)^k / Ai(z)^ell dy at z = i y, frozen at 30 digits
# from mpmath quadrature by tests/make_reduction_references.py
REDUCTION_REFS = json.loads(
    (Path(__file__).with_name("reduction_references.json")).read_text())["values"]


def _frozen(term) -> Fraction:
    key = ",".join(map(str, term))
    # a basis term without a frozen value fails, it does not skip
    assert key in REDUCTION_REFS, f"no frozen integral for {key}: rerun make_reduction_references.py"
    return Fraction(REDUCTION_REFS[key])


@pytest.mark.parametrize(
    "atom",
    [(0, 1, 3), (1, 1, 3), (0, 2, 4), (2, 2, 4), (3, 1, 4), (1, 3, 5)],
)
def test_reduction_against_quadrature(atom):
    # independent check: the atom's integral along z = iy against the
    # integrals of its live reduction, in exact rational arithmetic
    rhs = sum((c * _frozen(t) for t, c in reduce_integral(atom).items()), Fraction(0))
    assert abs(_frozen(atom) - rhs) < 1e-18


def test_reduced_form_is_normal():
    for n in range(0, 14, 2):
        red = reduce_term_sum(inv_ai_derivative(n).shift_ell(1))
        assert all(t.k == 0 and t.ell == 2 for t, _ in red.items())


@pytest.mark.parametrize("atom", [(0, 1, 1), (2, 3, 3), (0, 2, 1), (1, 0, 0)])
def test_not_integrable(atom):
    with pytest.raises(NotIntegrable):
        reduce_integral(atom)
    # NotIntegrable doubles as a ValueError for callers that only know stdlib
    assert issubclass(NotIntegrable, ValueError)


small_atoms = st.tuples(
    st.integers(0, 3), st.integers(0, 3), st.integers(1, 3)
).map(lambda t: AiryTerm(t[0], t[1], t[1] + t[2]))


@given(st.lists(st.tuples(small_atoms, st.integers(-9, 9)), max_size=6))
@settings(max_examples=80, deadline=None)
def test_reduction_preserves_class(pairs):
    s = TermSum(pairs)
    red = reduce_term_sum(s)
    classes = {t.ell - t.k for t, _ in s.items()}
    for t, _ in red.items():
        assert t.k == 0
        assert t.ell in classes


def _reference_reduce(j, k, ell):
    """The recurrence atom by atom in Fractions, as a dict of k = 0 atoms."""
    if j < 0 or k < 0:
        return {}
    if k == 0:
        return {(j, 0, ell): F(1)}
    steps = [((j - 1, k - 1, ell - 1), F(j, ell - 1))]
    if k >= 2:
        steps.append(((j + 1, k - 2, ell - 2), F(k - 1, ell - 1)))
    out = {}
    for atom, c in steps:
        for t, v in _reference_reduce(*atom).items():
            out[t] = out.get(t, 0) + c * v
    return out


mixed_atoms = st.tuples(
    st.integers(0, 8), st.integers(0, 6), st.integers(1, 4)
).map(lambda t: AiryTerm(t[0], t[1], t[1] + t[2]))


@given(st.lists(st.tuples(mixed_atoms, st.integers(-50, 50)), max_size=10))
@settings(max_examples=150, deadline=None)
def test_reduction_matches_reference_recurrence(pairs):
    s = TermSum(pairs)
    expect = {}
    for t, c in s.items():
        for u, v in _reference_reduce(*t).items():
            expect[u] = expect.get(u, 0) + c * v
    assert reduce_term_sum(s) == TermSum(expect)


@given(st.lists(st.tuples(small_atoms, st.integers(-9, 9)), max_size=5))
@settings(max_examples=80, deadline=None)
def test_integral_of_derivative_vanishes(pairs):
    # boundary terms vanish on the contour, so d(anything) integrates to zero
    s = TermSum(pairs)
    assert reduce_term_sum(term_sum_derivative(s)) == TermSum()


# ---------------------------------------------------------------- by parts


def test_by_parts_lattice_symbolic():
    # integral of inv^(a) * inv^(b) depends on (a+b, parity of the split)
    for n in range(0, 13, 2):
        pn = moment_polynomial(n)
        for j in range(n + 1):
            prod = term_sum_product(inv_ai_derivative(n - j), inv_ai_derivative(j))
            q = term_sum_to_poly(reduce_term_sum(prod))
            expect = RationalPoly({p: ((-1) ** j) * c for p, c in pn.items()})
            assert q == expect, (n, j)


# ---------------------------------------------------------------- TermSum basics


def test_term_sum_zero_dropping_and_eq():
    a = TermSum([(AiryTerm(0, 0, 1), 1), (AiryTerm(0, 0, 1), -1)])
    assert not a
    assert len(a) == 0
    assert a == TermSum()
    b = TermSum({AiryTerm(1, 0, 2): F(1, 2)})
    assert (b + b).coefficient((1, 0, 2)) == 1
    assert (b - b) == TermSum()
    assert b.scale(0) == TermSum()
    assert (-b).coefficient((1, 0, 2)) == F(-1, 2)


def test_term_sum_validation():
    with pytest.raises(ValueError):
        TermSum([(AiryTerm(-1, 0, 1), 1)])
    with pytest.raises(ValueError):
        TermSum([((0, -2, 1), 1)])
    with pytest.raises(TypeError):
        TermSum([(AiryTerm(0, 0, 1), 0.5)])  # floats never enter
    with pytest.raises(TypeError):
        TermSum([((0.0, 0, 1), 1)])


@given(
    st.lists(
        st.tuples(small_atoms, st.fractions(max_denominator=40)), max_size=8
    )
)
@settings(max_examples=60, deadline=None)
def test_term_sum_order_invariance(pairs):
    assert TermSum(pairs) == TermSum(list(reversed(pairs)))


def test_product_multiplies_atoms():
    a = TermSum([(AiryTerm(1, 2, 3), F(1, 2))])
    b = TermSum([(AiryTerm(2, 0, 1), 4)])
    assert term_sum_product(a, b) == TermSum([(AiryTerm(3, 2, 4), 2)])
    # (x + y)(x - y): the cross terms cancel and leave no zero coefficient
    x, y = AiryTerm(0, 0, 1), AiryTerm(1, 0, 1)
    prod = term_sum_product(TermSum([(x, 1), (y, 1)]), TermSum([(x, 1), (y, -1)]))
    assert len(prod) == 2
    assert prod == TermSum([(AiryTerm(0, 0, 2), 1), (AiryTerm(2, 0, 2), -1)])


def test_shift_ell():
    s = inv_ai_derivative(1).shift_ell(1)
    assert s == TermSum([(AiryTerm(0, 1, 3), -1)])


# ---------------------------------------------------------------- RationalPoly


def test_rational_poly_basics():
    p = RationalPoly({2: F(7, 15)})
    assert p.degree() == 2
    assert p.coefficient(2) == F(7, 15)
    assert p.coefficient(5) == 0
    assert p.float_coeffs() == [0.0, 0.0, 7.0 / 15.0]
    assert RationalPoly().is_zero
    assert RationalPoly().float_coeffs() == [0.0]
    with pytest.raises(ValueError):
        RationalPoly({-1: F(1)})
    with pytest.raises(ValueError):
        RationalPoly({True: F(1)})
    # repeated powers are summed, and a power whose sum is 0 is dropped
    q = RationalPoly([(1, F(1, 3)), (0, 2), (1, F(-1, 3))])
    assert q == RationalPoly({0: 2}) and q.degree() == 0
    assert RationalPoly([(3, 1), (3, -1)]).is_zero


# ---------------------------------------------------------------- conjectures


def test_sinh_series_values():
    # x/sinh x = 1 - x^2/6 + 7x^4/360 - 31x^6/15120 + ...
    assert sinh_gf_coefficient(0) == 1
    assert sinh_gf_coefficient(2) == F(-1, 3)
    assert sinh_gf_coefficient(4) == F(7, 15)
    assert sinh_gf_coefficient(6) == F(-31, 21)
    assert sinh_gf_coefficient(3) == 0


def test_sinh_series_against_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    ser = sympy.series(x / sympy.sinh(x), x, 0, 22).removeO()
    for n in range(0, 21, 2):
        want = sympy.factorial(n) * ser.coeff(x, n)
        got = sinh_gf_coefficient(n)
        assert sympy.Rational(got.numerator, got.denominator) == want


def test_leading_coefficient_matches_table():
    for n, coeffs in KNOWN_POLYS.items():
        if n == 0:
            continue
        assert coeffs[n // 2] == sinh_gf_coefficient(n)


def test_verify_conjectures_small():
    rep = verify_conjectures(12)
    assert rep.max_n == 12
    assert len(rep.rows) == 13
    assert rep.all_ok
    assert rep.odd_all_zero
    assert rep.failures() == []
    even_rows = [r for r in rep.rows if r.n % 2 == 0]
    assert [r.degree for r in even_rows] == [n // 2 for n in range(0, 13, 2)]


def test_verify_conjectures_rejects():
    with pytest.raises(ValueError):
        verify_conjectures(-1)
    with pytest.raises(ValueError):
        verify_conjectures(2.5)


def test_cold_caches_do_not_recurse_by_order():
    def depth():
        frame, n = sys._getframe(), 0
        while frame is not None:
            frame, n = frame.f_back, n + 1
        return n

    _cold()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth() + 30)
    try:
        d80 = inv_ai_derivative(80)
        p40 = moment_polynomial(40)
    finally:
        sys.setrecursionlimit(limit)
    assert d80 == term_sum_derivative(inv_ai_derivative(79))
    assert p40.degree() == 20
    assert p40.coefficient(20) == sinh_gf_coefficient(40)

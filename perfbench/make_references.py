"""Recompute perfbench/references.json with mpmath; never imports chernoff.

Every value is a tanh-sinh quadrature at 30 digits (working precision 40)
of the contour integrands on z = sigma + i y, y in [-40, 40], cut at
every 5 so each piece is smooth.  The moments use the split integrand
(1/Ai)(z) (d/dz)^n (1/Ai)(z), whose derivatives come from the Airy
equation Ai'' = z Ai and the Leibniz rule for 1/Ai, so no moment
polynomial is needed.  Each integral must report an mpmath error below
1e-20, and the script cross-checks the results against each other before
writing (mgf symmetry, E M = 3 gamma E V^2).

Takes about twenty minutes on one core:

    python3 perfbench/make_references.py
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import mpmath as mp

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from perfbench.workloads import (AIRY_POINTS, CF_TS, DENSITY_XS,  # noqa: E402
                                 MGF_TS, MOMENT_ORDERS)

OUT = HERE / "references.json"
DIGITS = 30
PIECES = mp.linspace(-40, 40, 17)

# p_n for n <= 12 as published (numerator/denominator per power of z)
PUBLISHED_POLYS = {
    0: {0: "1"},
    2: {1: "-1/3"},
    4: {2: "7/15"},
    6: {3: "-31/21", 0: "26/21"},
    8: {4: "127/15", 1: "-196/9"},
    10: {5: "-2555/33", 2: "13160/33"},
    12: {6: "1414477/1365", 3: "-2419532/273", 0: "1989472/1365"},
}


def line_integral(f, sigma=0):
    """(1/2 pi i) int f(z) dz along Re z = sigma, as (1/2 pi) int f dy."""
    val, err = mp.quad(lambda y: f(mp.mpc(sigma, y)), PIECES,
                       method="tanh-sinh", error=True)
    if err > mp.mpf(10) ** -20:
        raise RuntimeError(f"quadrature error {err} too large")
    return val / (2 * mp.pi)


def inv_ai_derivatives(z, n):
    """[(1/Ai)^{(k)}(z) for k = 0..n]."""
    a = [mp.airyai(z), mp.airyai(z, 1)]
    for k in range(n - 1):
        a.append(z * a[k] + (k * a[k - 1] if k else 0))
    u = [1 / a[0]]
    for m in range(1, n + 1):
        u.append(-sum(mp.binomial(m, k) * u[k] * a[m - k] for k in range(m)) / a[0])
    return u


def moment(n):
    if n % 2:
        return mp.mpf(0)
    if n == 0:
        return line_integral(lambda z: 1 / mp.airyai(z) ** 2).real

    def f(z):
        u = inv_ai_derivatives(z, n)
        return u[0] * u[n]
    return line_integral(f).real


def mean_max_canonical():
    gamma = 1 / mp.sqrt(2)
    base = line_integral(lambda z: z / mp.airyai(z) ** 2).real
    return -(mp.mpf(2) ** (-mp.mpf(2) / 3)) * gamma ** (-mp.mpf(1) / 3) * base


def cf(t):
    return line_integral(lambda z: 1 / (mp.airyai(z + 1j * t) * mp.airyai(z)))


def mgf(t):
    sigma = max(0, mp.airyaizero(1) + 1 - t)
    return line_integral(lambda z: 1 / (mp.airyai(z + t) * mp.airyai(z)), sigma)


def g(u):
    return line_integral(lambda z: mp.exp(-z * u) * mp.sqrt(2) / mp.airyai(z)).real


def density(x):
    # canonical gamma has length scale 1: f(x) = g(x) g(-x) / 2
    return g(x) * g(-x) / 2


def show(v):
    return mp.nstr(v, DIGITS, min_fixed=-mp.inf, max_fixed=mp.inf)


def main():
    mp.mp.dps = DIGITS + 10
    refs = {"digits": DIGITS, "published_polys": PUBLISHED_POLYS}
    refs["moments"] = {}
    for n in MOMENT_ORDERS:
        refs["moments"][str(n)] = moment(n)
        print("E V^%d" % n, show(refs["moments"][str(n)]), flush=True)
    em = mean_max_canonical()
    assert abs(em - 3 * refs["moments"]["2"] / mp.sqrt(2)) < mp.mpf(10) ** -20
    refs["mean_max"] = em
    refs["cf"] = {}
    for t in CF_TS:
        v = cf(t)
        assert abs(v.imag) < mp.mpf(10) ** -20, (t, v)
        refs["cf"][repr(t)] = v.real
        print("cf", t, show(v.real), flush=True)
    refs["mgf"] = {}
    for t in MGF_TS:
        v = mgf(t)
        assert abs(v.imag) < mp.mpf(10) ** -18 * max(1, abs(v)), (t, v)
        refs["mgf"][repr(t)] = v.real
        print("mgf", t, show(v.real), flush=True)
    for t in MGF_TS:            # V is symmetric, so mgf(-t) = mgf(t)
        if repr(-t) in refs["mgf"]:
            a, b = refs["mgf"][repr(t)], refs["mgf"][repr(-t)]
            assert abs(a - b) < mp.mpf(10) ** -18 * abs(a), (t, a, b)
    refs["density"] = {}
    for x in DENSITY_XS:
        refs["density"][repr(x)] = density(x)
        print("f", x, show(refs["density"][repr(x)]), flush=True)
    refs["airy"] = {}
    for regime, pts in AIRY_POINTS.items():
        refs["airy"][regime] = [[mp.airyai(mp.mpc(re, im)).real,
                                 mp.airyai(mp.mpc(re, im)).imag] for re, im in pts]

    def to_json(v):
        if isinstance(v, dict):
            return {k: to_json(x) for k, x in v.items()}
        if isinstance(v, list):
            return [to_json(x) for x in v]
        if isinstance(v, (mp.mpf, mp.mpc)):
            return show(v)
        return v
    OUT.write_text(json.dumps(to_json(refs), indent=1) + "\n")
    print("wrote", OUT)


if __name__ == "__main__":
    main()

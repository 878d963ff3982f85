"""Recompute tests/reduction_references.json with mpmath; never imports chernoff.

`test_reduction_against_quadrature` checks the reduction recurrence on six
atoms z^j Ai'(z)^k / Ai(z)^ell: the integral of each atom along z = i y
must equal the integral of its reduction, a rational combination of the
basis atoms z^j / Ai(z)^ell.  This script freezes both sides' integrals,

    int_{-30}^{30} z^j Ai'(z)^k / Ai(z)^ell dy,   z = i y,

as tanh-sinh quadratures at 30 digits (working precision 40), cut at
y = -8, 0 and 8.  Beyond |y| = 30 the integrands are below e^{-140}.  Each
integral must report an mpmath error below 1e-32 and an imaginary part
below 1e-32 (the integrands satisfy f(-i y) = conj f(i y), so the
integrals are real), and the normalization int dy / Ai(i y)^2 = 2 pi must
hold before anything is written.

Takes about 30 seconds on one core:

    python3 tests/make_reduction_references.py
"""
from __future__ import annotations

import json
from pathlib import Path

import mpmath as mp

OUT = Path(__file__).resolve().parent / "reduction_references.json"
DIGITS = 30
PIECES = [-30, -8, 0, 8, 30]

#: the atoms under test, then the basis atoms their reductions use
ATOMS = [(0, 1, 3), (1, 1, 3), (0, 2, 4), (2, 2, 4), (3, 1, 4), (1, 3, 5)]
BASIS = [(0, 0, 2), (1, 0, 2), (3, 0, 2), (2, 0, 3)]


def atom_integral(j, k, ell):
    def f(y):
        z = mp.mpc(0, y)
        return z ** j * mp.airyai(z, 1) ** k / mp.airyai(z) ** ell

    val, err = mp.quad(f, PIECES, method="tanh-sinh", error=True)
    tiny = mp.mpf(10) ** -32
    if err > tiny or abs(val.imag) > tiny:
        raise RuntimeError(f"atom {(j, k, ell)}: {val} with quadrature error {err}")
    return val.real


def show(v):
    return mp.nstr(v, DIGITS, min_fixed=-mp.inf, max_fixed=mp.inf)


def main():
    mp.mp.dps = DIGITS + 10
    refs = {}
    for atom in ATOMS + BASIS:
        refs[",".join(map(str, atom))] = v = atom_integral(*atom)
        print(atom, show(v), flush=True)
    assert abs(refs["0,0,2"] - 2 * mp.pi) < mp.mpf(10) ** -DIGITS
    doc = {"digits": DIGITS,
           "integral": "int_{-30}^{30} z^j Ai'(z)^k / Ai(z)^ell dy at z = i y, keyed j,k,ell",
           "values": {k: show(v) for k, v in refs.items()}}
    OUT.write_text(json.dumps(doc, indent=1) + "\n")
    print("wrote", OUT)


if __name__ == "__main__":
    main()

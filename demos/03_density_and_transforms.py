"""Density, characteristic function and MGF of the argmax location."""
import math

import numpy as np

from chernoff import char_fn, density, density_grid, mgf, moment


def main():
    # pointwise density values with a crude terminal plot
    xs = np.arange(-2.4, 2.4001, 0.2)
    fs = density_grid(xs)
    top = fs.max()
    print("density f(x) at canonical gamma:")
    for x, f in zip(xs, fs):
        bar = "#" * int(round(44 * f / top))
        print(f"  {x:+5.1f}  {f:8.5f}  {bar}")

    xs = np.arange(-6.0, 6.0001, 0.01)
    fs = density_grid(xs)
    mass = np.trapezoid(fs, xs)
    second = np.trapezoid(xs * xs * fs, xs)
    print(f"\n  integral of f         = {mass:.12f}")
    print(f"  integral of x^2 f     = {second:.12f}")
    print(f"  moment(2) for compare = {moment(2):.12f}")
    print(f"  f(0) at tol 1e-8 and 1e-10: {density_grid(np.zeros(1))[0]:.12f}, "
          f"{density(0.0, tol=1e-10):.12f}")

    print("\ncharacteristic function (real and even):")
    for t in (0.0, 0.5, 1.0, 2.0, 4.0):
        v = char_fn(t)
        print(f"  cf({t:>3}) = {v.real:+.12f}   |imag| = {abs(v.imag):.1e}")

    print("\nMGF along the real axis (entire; negative t uses a shifted contour):")
    for t in (-3.0, -0.5, 0.5, 3.0):
        print(f"  mgf({t:+.1f}) = {mgf(t).real:.12f}")

    ser = sum(moment(n) * 0.5 ** n / math.factorial(n) for n in range(13))
    print(f"\n  mgf(0.5) vs 12-term moment series: "
          f"{mgf(0.5).real:.12f} vs {ser:.12f}")


if __name__ == "__main__":
    main()

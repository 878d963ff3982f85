"""Moments of the argmax by contour integration, with consistency checks."""
import math

from chernoff import (
    CANONICAL_GAMMA,
    identity_suite,
    mean_max_quad,
    moment,
    moment_by_parts,
    moment_quad,
)


def main():
    g = CANONICAL_GAMMA
    print(f"canonical gamma = 1/sqrt(2) = {g:.15f}\n")

    print("E V^n with quadrature error estimates:")
    for n in range(0, 10, 2):
        q = moment_quad(n)
        print(f"  n={n}:  {q.value:.15f}   err <= {q.err_estimate:.1e} "
              f"({q.panels_used} Airy nodes)")

    q = mean_max_quad()
    print(f"\nE M (expected maximum) = {q.value:.15f}   err <= {q.err_estimate:.1e}")
    print(f"E M / (3 gamma)        = {q.value / (3 * g):.15f}")
    print(f"E V^2                  = {moment(2):.15f}   (must match)")

    # same number through the integration-by-parts lattice
    print("\nE V^4 via every split of the integrand:")
    for j in range(5):
        print(f"  split ({4 - j},{j}): {moment_by_parts(4 - j, j):.15f}")

    print("\nscaling: moment(2, gamma) * (2 gamma^2)^(2/3) is gamma-free:")
    for gamma in (0.25, g, 1.0, 4.0):
        v = moment(2, gamma) * (2.0 * gamma * gamma) ** (2.0 / 3.0)
        print(f"  gamma = {gamma:<10.6g} -> {v:.15f}")

    print("\nbuilt-in identity suite:")
    for check in identity_suite():
        print("  " + check.describe())


if __name__ == "__main__":
    main()

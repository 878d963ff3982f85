"""Exception types shared across the package, and one rule for each kind of
numeric argument, which every public entry point applies: `_as_real`,
`_as_complex` and `_as_int` take any real, number or integral type (numpy
scalars and Fractions too; an integer argument never takes a float) and
return a Python float, complex or int.  Each refuses a bool, a non-number
and any value a float cannot hold finitely (NaN, +-inf, 10**400) with
ValueError.

The exact layer loops over orders, so one bound N = _MAX_ORDER = 500 caps
every order (n, m, max_n and the j + k of a by-parts split), every
polynomial power and the powers j, k of every AiryTerm a caller builds;
`_as_order` applies it through `_as_int`.  The README gives the cold cost
of each exact entry point at N; the costliest, verify_conjectures(N), takes
about 21 s.
"""
import cmath
import math
import numbers
import sys


class ChernoffError(Exception):
    """Base class for all package-specific errors."""


class OverflowDomain(ChernoffError):
    """Requested evaluation would overflow double precision."""


class AccuracyUnreachable(ChernoffError):
    """The requested error target cannot be met in double precision."""


class NotIntegrable(ChernoffError, ValueError):
    """Airy term is not in the domain of the reduction recurrence (ell <= k)."""


class ContourTooLeft(ChernoffError, ValueError):
    """Integration contour does not pass to the right of the Airy zeros."""


class NoConvergence(ChernoffError):
    """Adaptive quadrature failed to reach the requested tolerance."""


class UnknownStatistic(ChernoffError, ValueError):
    """Statistic name not recognised by the Monte Carlo estimator."""


def _convert(v, kind, to):
    """to(v) if v is a non-bool of the numbers ABC kind, else NaN; only for a
    value not of the rule's exact type, as the ABC check costs a warm hit's time."""
    if isinstance(v, bool) or not isinstance(v, kind):
        return math.nan
    try:
        return to(v)
    except OverflowError:           # an int or a Fraction past the float range
        return math.nan


def _as_real(v, message: str, positive: bool = False) -> float:
    """v as a finite float, above 0 if positive; else ValueError(message)."""
    x = v if type(v) is float else _convert(v, numbers.Real, float)
    if not math.isfinite(x) or positive and x <= 0.0:
        raise ValueError(f"{message}, got {v!r}")
    return x


def _as_complex(v, message: str) -> complex:
    """v as a finite complex; else ValueError(message)."""
    x = v if type(v) is complex else _convert(v, numbers.Number, complex)
    if not cmath.isfinite(x):
        raise ValueError(f"{message}, got {v!r}")
    return x


def _as_int(v, message: str, low: int = 0, high: float = sys.float_info.max) -> int:
    """v as an int in [low, high], by default one a float holds; else
    ValueError(message)."""
    x = v if type(v) is int else _convert(v, numbers.Integral, int)
    if not low <= x <= high:
        raise ValueError(f"{message}, got {v!r}")
    return x


#: the largest order, polynomial power or AiryTerm power the exact layer takes
_MAX_ORDER = 500


def _as_order(v, name: str) -> int:
    """v as an int in [0, _MAX_ORDER]; else ValueError naming the bound."""
    return _as_int(v, f"{name} must be a nonnegative integer at most {_MAX_ORDER}",
                   high=_MAX_ORDER)

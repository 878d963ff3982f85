"""Chernoff distribution toolkit.

Exact moment polynomials via symbolic Airy-term reduction, high-accuracy
contour-integral numerics for moments, transforms and the density, and an
independent Monte Carlo oracle.
"""
from .errors import (
    AccuracyUnreachable,
    ChernoffError,
    ContourTooLeft,
    NoConvergence,
    NotIntegrable,
    OverflowDomain,
    UnknownStatistic,
)
from .algebra import (
    AiryTerm,
    ConjectureReport,
    ConjectureRow,
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
# moments before airy, so that numpy is first imported after the larger
# modules are compiled: where no bytecode cache is written, compiling them
# after numpy leaves `import chernoff` holding ~0.6 MB more
from .moments import (
    CANONICAL_GAMMA,
    ContourSpec,
    IdentityCheck,
    QuadResult,
    char_fn,
    char_fn_quad,
    contour_integral_inv_ai2,
    default_contour,
    density,
    density_grid,
    identity_suite,
    length_scale,
    mean_max,
    mean_max_quad,
    mgf,
    mgf_quad,
    moment,
    moment_by_parts,
    moment_quad,
)
from .airy import AiryEval, airy_ai, airy_zero
from .simulate import (
    EstimateResult,
    SampleSet,
    SimConfig,
    discretization_probe,
    estimate,
    load_sample_set,
    save_sample_set,
    simulate,
)

__version__ = "0.1.0"

__all__ = [
    "AiryEval", "airy_ai", "airy_zero",
    "AiryTerm", "TermSum", "RationalPoly",
    "inv_ai_derivative", "term_sum_derivative", "term_sum_product",
    "reduce_integral", "reduce_term_sum", "term_sum_to_poly",
    "moment_polynomial", "moment_polynomial_json", "sinh_gf_coefficient",
    "verify_conjectures", "ConjectureReport", "ConjectureRow",
    "CANONICAL_GAMMA", "ContourSpec", "QuadResult", "IdentityCheck",
    "default_contour", "contour_integral_inv_ai2",
    "moment", "moment_quad", "moment_by_parts",
    "mean_max", "mean_max_quad",
    "char_fn", "char_fn_quad", "mgf", "mgf_quad",
    "density", "density_grid", "length_scale", "identity_suite",
    "SimConfig", "SampleSet", "EstimateResult",
    "simulate", "estimate", "discretization_probe",
    "save_sample_set", "load_sample_set",
    "ChernoffError", "AccuracyUnreachable", "ContourTooLeft",
    "NoConvergence", "NotIntegrable", "OverflowDomain", "UnknownStatistic",
    "__version__",
]

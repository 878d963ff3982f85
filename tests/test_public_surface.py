"""The package's public surface, pinned: every name in `chernoff.__all__`,
the parameter names and defaults of every public function and class, and
the fields of the configuration and result records.  A change that adds,
removes or renames a knob has to change this file, and so declare it."""
import dataclasses
import inspect

import pytest

import chernoff

G = chernoff.CANONICAL_GAMMA
REQUIRED = inspect.Parameter.empty

ALL = [
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

#: (name, default) of each parameter, in order; REQUIRED marks no default
SIGNATURES = {
    "AiryEval": [("ai", REQUIRED), ("ai_prime", REQUIRED), ("abs_error_bound", REQUIRED)],
    "airy_ai": [("z", REQUIRED), ("target_abs_err", 1e-12)],
    "airy_zero": [("n", REQUIRED)],
    "AiryTerm": [("j", REQUIRED), ("k", REQUIRED), ("ell", REQUIRED)],
    "TermSum": [("terms", ())],
    "RationalPoly": [("coeffs", ())],
    "inv_ai_derivative": [("m", REQUIRED)],
    "term_sum_derivative": [("s", REQUIRED)],
    "term_sum_product": [("a", REQUIRED), ("b", REQUIRED)],
    "reduce_integral": [("t", REQUIRED)],
    "reduce_term_sum": [("s", REQUIRED)],
    "term_sum_to_poly": [("s", REQUIRED)],
    "moment_polynomial": [("n", REQUIRED)],
    "moment_polynomial_json": [("n", REQUIRED)],
    "sinh_gf_coefficient": [("n", REQUIRED)],
    "verify_conjectures": [("max_n", REQUIRED)],
    "ConjectureReport": [("max_n", REQUIRED), ("rows", REQUIRED)],
    "ConjectureRow": [("n", REQUIRED), ("poly_is_zero", REQUIRED), ("degree", REQUIRED),
                      ("degree_ok", REQUIRED), ("leading", REQUIRED),
                      ("leading_ok", REQUIRED), ("mod3_ok", REQUIRED)],
    "ContourSpec": [("sigma", 0.0), ("rel_tol", 1e-10)],
    "QuadResult": [("value", REQUIRED), ("err_estimate", REQUIRED), ("panels_used", REQUIRED)],
    "IdentityCheck": [("name", REQUIRED), ("passed", REQUIRED), ("lhs", REQUIRED),
                      ("rhs", REQUIRED), ("tol", REQUIRED)],
    "default_contour": [],
    "contour_integral_inv_ai2": [("poly", REQUIRED), ("contour", None)],
    "moment": [("n", REQUIRED), ("gamma", G), ("contour", None)],
    "moment_quad": [("n", REQUIRED), ("gamma", G), ("contour", None)],
    "moment_by_parts": [("j", REQUIRED), ("k", REQUIRED), ("contour", None)],
    "mean_max": [("gamma", G), ("contour", None)],
    "mean_max_quad": [("gamma", G), ("contour", None)],
    "char_fn": [("t", REQUIRED), ("contour", None)],
    "char_fn_quad": [("t", REQUIRED), ("contour", None)],
    "mgf": [("t", REQUIRED), ("contour", None)],
    "mgf_quad": [("t", REQUIRED), ("contour", None)],
    "density": [("x", REQUIRED), ("gamma", G), ("tol", 1e-8)],
    "density_grid": [("xs", REQUIRED), ("gamma", G), ("tol", 1e-8)],
    "length_scale": [("gamma", REQUIRED)],
    "identity_suite": [("contour", None)],
    "SimConfig": [("gamma", G), ("horizon", 4.0), ("step", 1e-3), ("num_paths", 100_000),
                  ("seed", 0)],
    "SampleSet": [("v", REQUIRED), ("m", REQUIRED), ("w_at_argmax", REQUIRED),
                  ("config", REQUIRED)],
    "EstimateResult": [("value", REQUIRED), ("stderr", REQUIRED), ("num_paths", REQUIRED)],
    "simulate": [("cfg", REQUIRED)],
    "estimate": [("s", REQUIRED), ("statistic", REQUIRED), ("order", None), ("t", None)],
    "discretization_probe": [("cfg", REQUIRED)],
    "save_sample_set": [("s", REQUIRED), ("csv_path", REQUIRED)],
    "load_sample_set": [("csv_path", REQUIRED)],
}

#: the exception types take Exception's arguments; their place in the
#: hierarchy is what a caller catches
EXCEPTIONS = {
    "ChernoffError": (Exception,),
    "AccuracyUnreachable": (chernoff.ChernoffError,),
    "ContourTooLeft": (chernoff.ChernoffError, ValueError),
    "NoConvergence": (chernoff.ChernoffError,),
    "NotIntegrable": (chernoff.ChernoffError, ValueError),
    "OverflowDomain": (chernoff.ChernoffError,),
    "UnknownStatistic": (chernoff.ChernoffError, ValueError),
}

FIELDS = {
    chernoff.ContourSpec: ["sigma", "rel_tol"],
    chernoff.SimConfig: ["gamma", "horizon", "step", "num_paths", "seed"],
    chernoff.QuadResult: ["value", "err_estimate", "panels_used"],
}


def test_all_is_pinned():
    assert chernoff.__all__ == ALL
    assert all(hasattr(chernoff, name) for name in ALL)


def test_every_public_callable_is_pinned():
    callables = {name for name in ALL if callable(getattr(chernoff, name))}
    assert callables == set(SIGNATURES) | set(EXCEPTIONS)


@pytest.mark.parametrize("name", sorted(SIGNATURES))
def test_signature_is_pinned(name):
    params = inspect.signature(getattr(chernoff, name)).parameters.values()
    assert [(p.name, p.default) for p in params] == SIGNATURES[name]
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)


@pytest.mark.parametrize("name", sorted(EXCEPTIONS))
def test_exception_bases_are_pinned(name):
    assert getattr(chernoff, name).__bases__ == EXCEPTIONS[name]


@pytest.mark.parametrize("record", list(FIELDS), ids=lambda r: r.__name__)
def test_record_fields_are_pinned(record):
    assert [f.name for f in dataclasses.fields(record)] == FIELDS[record]

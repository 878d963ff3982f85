"""One contract for every numeric argument of the public API.

Each entry point that takes a number checks it with the rule of its kind
(real, complex or integer) in `chernoff.errors`:

- a numpy scalar or a Fraction gives the bits of the same call on the
  Python int or float it stands for, and results hold Python numbers;
- a bool, a string, None and any value a float cannot hold finitely
  (10**400, NaN, +-inf) raise ValueError, never OverflowError, TypeError or
  AttributeError;
- an integer argument refuses a float or a Fraction even when it is whole.
"""

import dataclasses
import json
from fractions import Fraction

import numpy as np
import pytest

from chernoff import (
    ContourSpec,
    RationalPoly,
    SampleSet,
    SimConfig,
    TermSum,
    airy_ai,
    airy_zero,
    char_fn_quad,
    density,
    density_grid,
    estimate,
    inv_ai_derivative,
    length_scale,
    load_sample_set,
    mean_max_quad,
    mgf_quad,
    moment_by_parts,
    moment_polynomial,
    moment_polynomial_json,
    moment_quad,
    save_sample_set,
    simulate,
    sinh_gf_coefficient,
    verify_conjectures,
)
from chernoff.moments import default_mgf_sigma

SAMPLES = SampleSet(v=np.array([0.5, -1.25, 0.75, 0.0]), m=np.array([1.0, 2.0, 0.5, 0.25]),
                    w_at_argmax=np.array([1.5, 3.0, 0.75, 0.5]), config=SimConfig())

# (entry point and argument, kind, a valid value); every value is exact in float32
ENTRIES = [
    ("moment_polynomial(n)", moment_polynomial, "int", 4),
    ("moment_polynomial_json(n)", moment_polynomial_json, "int", 4),
    ("inv_ai_derivative(m)", inv_ai_derivative, "int", 3),
    ("sinh_gf_coefficient(n)", sinh_gf_coefficient, "int", 6),
    ("verify_conjectures(max_n)", verify_conjectures, "int", 6),
    ("RationalPoly power", lambda v: RationalPoly({v: Fraction(1, 3)}), "int", 2),
    ("ContourSpec(sigma)", lambda v: ContourSpec(sigma=v), "real", 0.5),
    ("ContourSpec(rel_tol)", lambda v: ContourSpec(rel_tol=v), "real", 2.0**-20),
    ("moment_quad(n)", moment_quad, "int", 2),
    ("moment_quad(gamma)", lambda v: moment_quad(2, v), "real", 0.5),
    ("moment_by_parts(j)", lambda v: moment_by_parts(v, 0), "int", 2),
    ("moment_by_parts(k)", lambda v: moment_by_parts(0, v), "int", 2),
    ("mean_max_quad(gamma)", mean_max_quad, "real", 0.5),
    ("char_fn_quad(t)", char_fn_quad, "real", 1.0),
    ("mgf_quad(t)", mgf_quad, "complex", 0.5),
    ("length_scale(gamma)", length_scale, "real", 0.5),
    ("default_mgf_sigma(t)", default_mgf_sigma, "complex", -0.5),
    ("density(x)", density, "real", 0.5),
    ("density(gamma)", lambda v: density(0.5, v), "real", 2.0),
    ("density(tol)", lambda v: density(0.5, tol=v), "real", 2.0**-20),
    ("density_grid(gamma)", lambda v: density_grid([0.0, 1.0], v), "real", 2.0),
    ("density_grid(tol)", lambda v: density_grid([0.0, 1.0], tol=v), "real", 2.0**-20),
    ("airy_ai(z)", airy_ai, "complex", 0.5),
    ("airy_ai(target_abs_err)", lambda v: airy_ai(1.0, v), "real", 2.0**-20),
    ("airy_zero(n)", airy_zero, "int", 3),
    ("SimConfig(gamma)", lambda v: SimConfig(gamma=v), "real", 0.5),
    ("SimConfig(horizon)", lambda v: SimConfig(horizon=v, step=0.5), "real", 4.0),
    ("SimConfig(step)", lambda v: SimConfig(step=v), "real", 0.5),
    ("SimConfig(num_paths)", lambda v: SimConfig(num_paths=v), "int", 8),
    ("SimConfig(seed)", lambda v: SimConfig(seed=v), "int", 7),
    ("estimate(order)", lambda v: estimate(SAMPLES, "v_moment", order=v), "int", 2),
    ("estimate(t)", lambda v: estimate(SAMPLES, "cos_v", t=v), "real", 0.5),
]
IDS = [name for name, *_ in ENTRIES]


def _whole_as_numpy_int(v):
    """A whole real as a numpy integer, which a real argument also takes."""
    return np.int64(v) if float(v).is_integer() else np.float64(v)


# the same value in other number types; each must give the Python value's bits
ALIASES = {
    "int": [np.int64, np.int32, np.uint8],
    "real": [np.float64, np.float32, Fraction, _whole_as_numpy_int],
    "complex": [np.float64, np.float32, Fraction, np.complex128, np.complex64],
}
# refused by every rule
REFUSED = [10**400, float("nan"), float("inf"), float("-inf"), True, np.bool_(True), "1", None]
# refused by one kind only
REFUSED_BY = {
    "int": [2.0, np.float64(2.0), Fraction(2), Fraction(5, 2)],
    "real": [1j, np.complex128(0.5), complex(0.5, 0.0), Fraction(10**400)],
    "complex": [complex(float("nan"), 0.0), complex(0.0, float("inf"))],
}


def _bits(x):
    """A fingerprint that tells apart two results differing in any bit or in
    the type of any number they hold."""
    if isinstance(x, np.ndarray):
        return ("ndarray", x.dtype.str, x.shape, x.tobytes())
    if type(x) is float:
        return ("float", x.hex())
    if type(x) is complex:
        return ("complex", x.real.hex(), x.imag.hex())
    if type(x) in (int, bool, str, Fraction):
        return (type(x).__name__, x)
    if dataclasses.is_dataclass(x):
        return (type(x).__name__,) + tuple(_bits(getattr(x, f.name))
                                           for f in dataclasses.fields(x))
    if isinstance(x, (RationalPoly, TermSum)):
        return (type(x).__name__,) + tuple(_bits(v) for item in x.items() for v in item)
    if isinstance(x, (tuple, list)):
        return tuple(_bits(v) for v in x)
    if isinstance(x, dict):
        return tuple((_bits(k), _bits(v)) for k, v in x.items())
    raise TypeError(f"no fingerprint for {type(x).__name__}")


@pytest.mark.parametrize("name, call, kind, value", ENTRIES, ids=IDS)
def test_other_number_types_give_the_same_bits(name, call, kind, value):
    python = int(value) if kind == "int" else float(value)
    want = _bits(call(python))
    for alias in ALIASES[kind]:
        v = alias(value)
        assert _bits(call(v)) == want, (name, v)


@pytest.mark.parametrize("name, call, kind, value", ENTRIES, ids=IDS)
def test_bad_values_raise_value_error(name, call, kind, value):
    for bad in REFUSED + REFUSED_BY[kind]:
        with pytest.raises(ValueError):
            call(bad)


def test_numpy_scalar_config_round_trips_through_its_sidecar(tmp_path):
    plain = SimConfig(gamma=2.0, horizon=4.0, step=0.5, num_paths=8, seed=3)
    mixed = SimConfig(gamma=np.float64(2.0), horizon=np.int64(4), step=np.float32(0.5),
                      num_paths=np.int64(8), seed=np.uint32(3))
    assert _bits(mixed) == _bits(plain)
    paths = []
    for i, cfg in enumerate((plain, mixed)):
        paths.append(tmp_path / f"s{i}.csv")
        save_sample_set(simulate(cfg), paths[-1])
    back = load_sample_set(paths[1])
    assert back.config == mixed and _bits(back.config) == _bits(plain)
    sidecars = [json.loads(p.with_suffix(".csv.json").read_text()) for p in paths]
    assert sidecars[0] == sidecars[1] == dataclasses.asdict(plain)
    assert paths[0].read_bytes() == paths[1].read_bytes()

"""Seeded request streams, one pass per workload.

A pass is what one user session sends, in order, to a freshly started
library: the next request goes out only after the previous one returned
(closed loop, one caller).  The seed picks parameters inside fixed strata
and the order, so every seed sends the same amount of work of each kind;
that keeps the pass cost steady across seeds while the inputs change.

Every numeric input is drawn from the reference menus below, for which
`references.json` holds frozen mpmath values.
"""
from __future__ import annotations

import math
import random

# --------------------------------------------------------------- menus

CANONICAL_GAMMA = 1.0 / math.sqrt(2.0)

MOMENT_ORDERS = tuple(range(21))
CF_TS = tuple(k / 4 for k in range(1, 49))                      # 0.25 .. 12
MGF_TS = tuple(k / 4 for k in range(-32, 17) if k)              # -8 .. 4
DENSITY_XS = tuple(k / 8 for k in range(25)) + (3.5, 4.0, 4.5, 5.0)


def _ring(radii, angles):
    return [(r * math.cos(a), r * math.sin(a)) for r in radii for a in angles]


_THIRD = 2.0 * math.pi / 3.0

#: fixed point sets that land in each regime of the Airy evaluator:
#: series |z| <= 4.5, overlap 4.5 < |z| <= 9 (both candidates computed),
#: asymptotic |z| > 9 in |arg z| <= 2 pi/3, rotation |z| > 9 beyond it
AIRY_POINTS = {
    "series": _ring((0.5, 1.5, 2.5, 3.5, 4.4),
                    [k * math.pi / 4 for k in range(8)]),
    "overlap": _ring((5.0, 6.0, 7.0, 8.0, 8.9),
                     [k * math.pi / 4 for k in range(8)]),
    "asymptotic": _ring((10.0, 14.0, 18.0, 22.0, 26.0),
                        [-_THIRD + k * _THIRD / 3.5 for k in range(8)]),
    "rotation": _ring((10.0, 14.0, 18.0, 22.0, 26.0),
                      [_THIRD + 0.1 + k * (2.0 * math.pi / 3.0 - 0.2) / 7.0
                       for k in range(8)]),
}

# --------------------------------------------------------------- contour

#: cf points in (0, 8] that the seed cannot answer (a sign change of the cf
#: lies near t = 7.25, so a purely relative tolerance is out of reach);
#: they belong to the tails workload
CF_NEAR_ZERO = (7.25,)

#: counts per kind in one contour pass (100 requests)
CONTOUR_MIX = {"moment_quad": 26, "mean_max_quad": 10, "char_fn_quad": 24,
               "mgf_quad": 16, "density": 24}


def _gamma(rng: random.Random) -> float:
    return math.exp(rng.uniform(math.log(0.25), math.log(4.0)))


def _numbered(reqs: list) -> list:
    return [dict(r, id=i) for i, r in enumerate(reqs)]


def contour_pass(seed: int) -> list:
    """100 in-range quadrature requests at the default contour.

    Every moment order 0..12 is sent twice, so half the moment requests
    repeat an earlier (n, contour) key; mean_max repeats its key nine times.
    cf takes three of the four grid points in each unit interval of (0, 8]
    (all three in (7, 8], which holds CF_NEAR_ZERO),
    mgf two per unit interval of [-5, 3], density four per 0.5-wide band
    of |x| <= 3 with a random sign.
    """
    rng = random.Random(f"contour:{seed}")
    reqs = []
    for n in list(range(13)) * 2:
        reqs.append({"kind": "moment_quad", "args": {"n": n, "gamma": _gamma(rng)}})
    for _ in range(CONTOUR_MIX["mean_max_quad"]):
        reqs.append({"kind": "mean_max_quad", "args": {"gamma": _gamma(rng)}})
    for k in range(8):
        pts = [k + j / 4 for j in range(1, 5) if k + j / 4 not in CF_NEAR_ZERO]
        for t in rng.sample(pts, 3):
            reqs.append({"kind": "char_fn_quad", "args": {"t": t}})
    for k in range(-5, 3):
        pts = [k + j / 4 for j in range(4) if k + j / 4 != 0.0]
        for t in rng.sample(pts, 2):
            reqs.append({"kind": "mgf_quad", "args": {"t": t}})
    for band in range(6):
        pts = [x for x in DENSITY_XS if band * 0.5 <= x < band * 0.5 + 0.5
               or (band == 5 and x == 3.0)]
        for x in rng.sample(pts, 4):
            reqs.append({"kind": "density", "args": {"x": rng.choice((-1, 1)) * x}})
    rng.shuffle(reqs)
    return _numbered(reqs)


# --------------------------------------------------------------- tails

def tails_pass(seed: int) -> list:
    """A handful of requests the seed answers slowly or not at all: high
    moments, cf beyond t = 8 and near its zero, density tails, mgf far
    left, contours with sigma >= 1.5 and a density table at gamma = 100."""
    rng = random.Random(f"tails:{seed}")
    reqs = []
    for n in rng.sample([14, 16, 18, 20], 2):
        reqs.append({"kind": "moment_quad", "args": {"n": n, "gamma": _gamma(rng)}})
    reqs.append({"kind": "char_fn_quad",
                 "args": {"t": rng.choice([t for t in CF_TS if t >= 9.0])}})
    reqs.append({"kind": "char_fn_quad", "args": {"t": rng.choice(CF_NEAR_ZERO)}})
    for x in rng.sample([3.5, 4.0, 4.5, 5.0], 2):
        reqs.append({"kind": "density", "args": {"x": rng.choice((-1, 1)) * x}})
    reqs.append({"kind": "mgf_quad",
                 "args": {"t": rng.choice([t for t in MGF_TS if t <= -6.0])}})
    reqs.append({"kind": "moment_quad",
                 "args": {"n": rng.choice([8, 10, 12]), "gamma": CANONICAL_GAMMA,
                          "sigma": rng.choice([1.5, 2.0, 3.0])}})
    reqs.append({"kind": "char_fn_quad",
                 "args": {"t": rng.choice([t for t in CF_TS if t <= 4.0]),
                          "sigma": rng.choice([2.0, 3.0])}})
    reqs.append({"kind": "density_grid", "args": density_grid_args(100.0, 10.0, 0.005)})
    rng.shuffle(reqs)
    return _numbered(reqs)


def density_grid_args(gamma: float, half_width: float, step: float) -> dict:
    """A table on x in [-half_width, half_width] whose spacing is snapped so
    that x / s lands on multiples of 1/8, where s is the length scale at
    gamma; the density menu then applies at every eighth-integer u."""
    s = 2.0 ** (-1.0 / 3.0) * gamma ** (-2.0 / 3.0)
    r = step / s
    du = max(1, round(8 * r)) / 8 if r >= 1 / 8 else 1 / (8 * round(1 / (8 * r)))
    u_max = math.floor(half_width / s / du) * du
    return {"gamma": gamma, "scale": s, "du": du, "u_max": u_max}


# --------------------------------------------------------------- Monte Carlo

FINE = 1e-3
COARSE = 1e-2
HORIZON = 4.0


def _sim(kind: str, step: float, paths: int, seed: int, **extra) -> dict:
    return {"kind": kind, "args": {"step": step, "horizon": HORIZON,
                                   "paths": paths, "seed": seed, **extra}}


#: paths of the run the package documents: ``SimConfig(num_paths=10_000,
#: step=1e-3)`` in README.md, 40 chunks
DOCUMENTED_PATHS = 10_000


def monte_carlo_pass(seed: int) -> list:
    """23 sampler requests mixing step 1e-3 (16 MB chunk matrix) and 1e-2
    (1.6 MB), with path counts below, at and above the 256-path chunk.

    One request is the documented many-chunk run (10,000 fine paths, about
    60% of the pass).  The other sizes are chosen so that the median
    request is one of six one-chunk fine simulations; the pass's wall
    time is thus led by many chunks and its median latency by one.  Seeds
    are shared where a check needs the same paths twice: prefixes (batch
    independence, up to 40 chunks) and probe-versus-simulate identity.
    """
    rng = random.Random(f"monte_carlo:{seed}")
    a, b, c, d, e, f, g, h, *mids = rng.sample(range(1, 2**31), 12)
    heavy = [
        _sim("simulate", FINE, DOCUMENTED_PATHS, a, prefixes=[600]),
        _sim("simulate", FINE, 600, a, prefixes=[64, 256]),
        _sim("simulate", FINE, 64, a),
        _sim("simulate", FINE, 256, a),
        _sim("simulate", FINE, 256, b),
        *[_sim("simulate", FINE, 256, s) for s in mids],
        _sim("discretization_probe", FINE, 512, b, prefixes=[256]),
        _sim("discretization_probe", FINE, 512, e),
        _sim("simulate", FINE, 600, f),
        _sim("simulate", COARSE, 100, g),
        _sim("simulate", COARSE, 5120, c),
        _sim("discretization_probe", COARSE, 5120, c),
        _sim("discretization_probe", COARSE, 5120, d),
        _sim("simulate", COARSE, 5120, h),
    ]
    rng.shuffle(heavy)
    stats = [("v_moment", {"order": 1}), ("v_moment", {"order": 2}),
             ("v_moment", {"order": 4}), ("m_mean", {}),
             ("w_at_argmax_mean", {}), ("cos_v", {"t": 1.0})]
    after = set(rng.sample(range(len(heavy)), len(stats)))
    reqs = []
    for i, r in enumerate(heavy):
        reqs.append(r)
        if i in after:
            stat, extra = stats.pop()
            reqs.append({"kind": "estimate", "args": {"statistic": stat, **extra}})
    return _numbered(reqs)


# --------------------------------------------------------------- CLI

def cli_pass(seed: int, samples_path: str) -> list:
    """The eight CLI invocations, each in a fresh interpreter.  Scalar
    commands carry the quadrature request whose reference they must meet."""
    def scalar(argv, kind, **args):
        return {"argv": argv + ["--format", "json"], "expect": {"kind": kind, "args": args}}
    return _numbered([{"kind": "cli", "args": a} for a in [
        {"argv": ["polys", "--max-n", "60"]},
        {"argv": ["verify", "--max-n", "100"]},
        scalar(["moment", "--n", "12"], "moment_quad", n=12, gamma=CANONICAL_GAMMA),
        scalar(["cf", "--t", "5"], "char_fn_quad", t=5.0),
        scalar(["mgf", "--t-re", "-3"], "mgf_quad", t=-3.0),
        scalar(["mean-max", "--gamma", "2"], "mean_max_quad", gamma=2.0),
        {"argv": ["density", "--from", "-3", "--to", "3", "--step", "0.001"]},
        {"argv": ["simulate", "--paths", "2000", "--seed", str(seed % 2**31),
                  "--out", samples_path, "--format", "json"]},
    ]])


# --------------------------------------------------------------- layer suite

def airy_requests(repeats: int = 5) -> list:
    return _numbered([{"kind": "airy_ai", "args": {"regime": r, "repeats": repeats}}
                      for r in AIRY_POINTS])


def tails_probe_requests() -> list:
    """Two tail requests that each burn the 4000-panel budget at the seed."""
    return _numbered([
        {"kind": "density", "args": {"x": 3.5}},
        {"kind": "moment_quad", "args": {"n": 14, "gamma": CANONICAL_GAMMA}},
    ])

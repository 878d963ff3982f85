"""Command-line front end.

Subcommands: polys, verify, moment, cf, mgf, density, mean-max, simulate.
Commands only compute: each returns its text (verify also its verdict), and
`main` alone writes it, to --out or stdout (simulate's --out names its
sample file).  Diagnostics go to stderr.  Exit codes: 0 success, 1
verification failure, 2 usage error, 3 numerical failure.  CHERNOFF_RELTOL
overrides the default quadrature relative tolerance.  moment, cf, mgf and
mean-max share `_scalar_text`: JSON, CSV, or plain text ending in `err<=`.
density gives CSV (the default) or JSON.
"""
from __future__ import annotations

import argparse
import cmath
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import algebra, moments
from .simulate import SimConfig, _sidecar, _workers, estimate, save_sample_set
from .simulate import simulate as run_paths
from .errors import AccuracyUnreachable, NoConvergence, OverflowDomain, _as_order

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

_RELTOL_ENV = "CHERNOFF_RELTOL"


class _UsageError(Exception):
    pass


def _contour_from_env(sigma: float = 0.0) -> moments.ContourSpec:
    spec = moments.ContourSpec(sigma=sigma)
    raw = os.environ.get(_RELTOL_ENV)
    if raw is None:
        return spec
    try:
        return dataclasses.replace(spec, rel_tol=float(raw))
    except ValueError as exc:       # not a number, or outside ContourSpec's range
        raise _UsageError(f"{_RELTOL_ENV}={raw!r}: {exc}")


def _check_out(*paths: str) -> None:
    """Refuse, before any work, an output file that cannot be written."""
    for path in paths:
        parent = os.path.dirname(path) or "."
        if (not os.path.basename(path) or os.path.isdir(path) or not os.path.isdir(parent)
                or not os.access(path if os.path.exists(path) else parent, os.W_OK)):
            raise _UsageError(f"cannot write --out {path!r}")


def _scalar_text(args, quantity: str, value: float, err: float,
                 spec: moments.ContourSpec, plain: str, **extra) -> str:
    """One quadrature result in args.format: JSON, CSV, or `plain`
    followed by the error estimate."""
    if args.format == "json":
        return json.dumps({"quantity": quantity, **extra, "value": value,
                           "err_estimate": err, "contour": dataclasses.asdict(spec)})
    if args.format == "csv":
        head = ",".join(["quantity", *extra, "value", "err_estimate"])
        row = ",".join([quantity, *map(str, extra.values()), f"{value:.17g}", f"{err:.3g}"])
        return head + "\n" + row
    return f"{plain}  err<={err:.3g}"


def cmd_polys(args) -> str:
    if args.max_n < 0:
        raise _UsageError("--max-n must be >= 0")
    _as_order(args.max_n, "--max-n")    # before p_0..p_N are built, not after
    orders = range(args.max_n + 1)
    if args.format == "json":
        return json.dumps([algebra.moment_polynomial_json(n) for n in orders])
    if args.format == "csv":
        return "\n".join(["n,power,coefficient"] + [
            f"{n},{p},{c.numerator}/{c.denominator}"
            for n in orders for p, c in algebra.moment_polynomial(n).items()])
    return "\n".join(f"p_{n}(z) = {algebra.moment_polynomial(n)}" for n in orders)


def cmd_verify(args) -> tuple[str, int]:
    if args.max_n < 2:
        raise _UsageError("--max-n must be >= 2")
    spec = _contour_from_env()
    report = algebra.verify_conjectures(args.max_n)
    lines = [f"conjectures up to n = {args.max_n}:"]
    if report.all_ok:
        lines.append(f"  ok: odd vanish, degree = n/2, sinh leading "
                     f"coefficient, mod-3 support ({len(report.rows)} rows)")
    else:
        lines.extend(f"  FAIL n={row.n}: degree {row.degree} (ok={row.degree_ok}), leading "
                     f"{row.leading} (ok={row.leading_ok}), mod3 ok={row.mod3_ok}"
                     for row in report.rows if not row.ok)
    checks = moments.identity_suite(spec)
    lines.append("numeric identities:")
    lines.extend("  " + c.describe() for c in checks)
    ok = report.all_ok and all(c.passed for c in checks)
    lines.append("all checks passed" if ok else "VERIFICATION FAILED")
    return "\n".join(lines), EXIT_OK if ok else EXIT_VERIFY_FAILED


def cmd_moment(args) -> str:
    spec = _contour_from_env()
    qr = moments.moment_quad(args.n, args.gamma, spec)
    return _scalar_text(args, "moment", qr.value, qr.err_estimate, spec,
                        f"E V^{args.n} (gamma={args.gamma:.10g}) = {qr.value:.15g}",
                        n=args.n, gamma=args.gamma)


def _canonical(t, gamma: float):
    """s t, s = length_scale(gamma), as V_gamma = s V; a non-finite t as
    typed, for the library to name.  A finite t whose s t overflows raises."""
    st = moments.length_scale(gamma) * t
    if cmath.isfinite(t) and not cmath.isfinite(st):
        raise OverflowDomain(f"length_scale(gamma) * t at gamma = {gamma!r} "
                             "overflows double precision")
    return st if cmath.isfinite(t) else t


def cmd_cf(args) -> str:
    spec = _contour_from_env()
    qr = moments.char_fn_quad(_canonical(args.t, args.gamma), spec)
    val = qr.value
    return _scalar_text(args, "char_fn", val.real, qr.err_estimate + abs(val.imag), spec,
                        f"cf({args.t:.10g}) (gamma={args.gamma:.10g}) = {val.real:.15g}",
                        t=args.t, gamma=args.gamma)


def cmd_mgf(args) -> str:
    t = complex(args.t_re, args.t_im)
    st = _canonical(t, args.gamma)
    sigma = moments.default_mgf_sigma(st) if args.sigma is None else args.sigma
    spec = _contour_from_env(sigma)
    qr = moments.mgf_quad(st, contour=spec)
    val = qr.value
    return _scalar_text(args, "mgf", val.real, qr.err_estimate, spec,
                        f"mgf({t.real:.10g}{t.imag:+.10g}i) (gamma={args.gamma:.10g}) = "
                        f"{val.real:.15g}{val.imag:+.3g}i",
                        t_re=args.t_re, t_im=args.t_im, gamma=args.gamma, value_im=val.imag)


def cmd_density(args) -> str:
    if not all(map(math.isfinite, (args.x_from, args.x_to, args.step))):
        raise _UsageError("--from, --to and --step must be finite")
    if args.step <= 0 or args.x_to < args.x_from:
        raise _UsageError("need --from <= --to and --step > 0")
    steps = (args.x_to - args.x_from) / args.step + 1e-9
    try:
        n = int(math.floor(steps)) + 1
        xs = args.x_from + args.step * np.arange(n)
    except (OverflowError, MemoryError, ValueError):
        raise _UsageError(f"a grid of {steps + 1:.4g} rows cannot be allocated")
    fs = moments.density_grid(xs, args.gamma, args.tol)
    if args.format == "json":
        return json.dumps({"quantity": "density", "gamma": args.gamma, "tol": args.tol,
                           "x": [float(x) for x in xs], "f": [float(f) for f in fs]})
    return "\n".join(["x,f"] + [f"{x:.17g},{f:.17g}" for x, f in zip(xs, fs)])


def cmd_mean_max(args) -> str:
    spec = _contour_from_env()
    qr = moments.mean_max_quad(args.gamma, spec)
    return _scalar_text(args, "mean_max", qr.value, qr.err_estimate, spec,
                        f"E M (gamma={args.gamma:.10g}) = {qr.value:.15g}",
                        gamma=args.gamma)


def cmd_simulate(args) -> str:
    try:
        cfg = SimConfig(gamma=args.gamma, horizon=args.horizon,
                           step=args.step, num_paths=args.paths, seed=args.seed)
    except ValueError as exc:
        raise _UsageError(str(exc))
    if cfg.num_paths < 2:
        raise _UsageError("--paths must be >= 2 for a standard error")
    _check_out(args.samples, _sidecar(args.samples))
    cols = 2 * cfg.steps_per_side + 1
    for shape, what in (((3, cfg.num_paths), f"a sample set of {cfg.num_paths} paths"),
                        ((2 + 2 * _workers(), cols), f"a grid of {cols} points per path")):
        try:
            # the sample set's three columns, then the sampler's rows of the
            # grid: t, the drift and each worker's two; np.empty touches no
            # page, so this refuses, before any work, what cannot be
            # allocated (numpy raises ValueError past its largest array)
            np.empty(shape)
        except (MemoryError, ValueError):
            raise _UsageError(f"{what} cannot be allocated")
    print(f"simulating {cfg.num_paths} paths "
          f"(N = {cfg.steps_per_side} steps/side) ...", file=sys.stderr)
    samples = run_paths(cfg)
    save_sample_set(samples, args.samples)
    print(f"wrote {args.samples} and {_sidecar(args.samples)}", file=sys.stderr)

    spec = _contour_from_env()
    e_v2, e_v4 = (moments.moment(n, cfg.gamma, spec) for n in (2, 4))
    e_m = moments.mean_max(cfg.gamma, spec)
    rows = [("v_mean", estimate(samples, "v_moment", order=1), 0.0),
            ("v2_mean", estimate(samples, "v_moment", order=2), e_v2),
            ("v4_mean", estimate(samples, "v_moment", order=4), e_v4),
            ("m_mean", estimate(samples, "m_mean"), e_m),
            ("w_at_argmax_mean", estimate(samples, "w_at_argmax_mean"), 4.0 / 3.0 * e_m)]
    if args.format == "json":
        return json.dumps({"quantity": "simulate", "config": dataclasses.asdict(cfg),
                           "out": args.samples,
                           "estimates": {name: {"value": est.value, "stderr": est.stderr,
                                                "analytic": ana}
                                         for name, est, ana in rows}})
    return "\n".join([f"{'statistic':<18} {'estimate':>14} {'stderr':>12} {'analytic':>14}"] + [
        f"{name:<18} {est.value:>14.6f} {est.stderr:>12.2g} {ana:>14.6f}"
        for name, est, ana in rows])


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="chernoff",
        description="Chernoff distribution: exact moment polynomials, "
                    "contour-integral numerics, and Monte Carlo simulation.")
    sub = ap.add_subparsers(dest="command", metavar="command")
    gamma = ("--gamma", dict(type=float, default=moments.CANONICAL_GAMMA))

    def command(name, func, about, *flags, formats=("plain", "json", "csv")):
        """Subcommand `name` running func, with its (flag, keywords) pairs
        in order, then --format (default formats[0]) and --out if formats."""
        p = sub.add_parser(name, help=about)
        p.set_defaults(func=func)
        for flag, kw in flags:
            p.add_argument(flag, **kw)
        if formats:
            p.add_argument("--format", choices=formats, default=formats[0])
            p.add_argument("--out", default=None, help="write output to a file")

    command("polys", cmd_polys, "exact moment polynomials p_0..p_N",
            ("--max-n", dict(type=int, required=True)))
    command("verify", cmd_verify, "exact conjecture checks + numeric identities",
            ("--max-n", dict(type=int, default=30)), formats=())
    command("moment", cmd_moment, "E V^n by contour integration",
            ("--n", dict(type=int, required=True)), gamma)
    command("cf", cmd_cf, "characteristic function E exp(itV)",
            ("--t", dict(type=float, required=True)), gamma)
    command("mgf", cmd_mgf, "moment generating function E exp(tV)",
            ("--t-re", dict(type=float, required=True)),
            ("--t-im", dict(type=float, default=0.0)),
            ("--sigma", dict(type=float, default=None)), gamma)
    command("density", cmd_density, "density table (CSV: x,f)",
            ("--from", dict(dest="x_from", type=float, required=True)),
            ("--to", dict(dest="x_to", type=float, required=True)),
            ("--step", dict(type=float, required=True)), gamma,
            ("--tol", dict(type=float, default=1e-8)), formats=("csv", "json"))
    command("mean-max", cmd_mean_max, "E M, the expected maximum", gamma)
    command("simulate", cmd_simulate, "Monte Carlo oracle; writes CSV + sidecar", gamma,
            ("--horizon", dict(type=float, default=4.0)),
            ("--step", dict(type=float, default=1e-3)),
            ("--paths", dict(type=int, default=10_000)),
            ("--seed", dict(type=int, default=0)),
            ("--out", dict(dest="samples", metavar="OUT", default="chernoff_samples.csv")),
            ("--format", dict(choices=("plain", "json"), default="plain")), formats=())
    return ap


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (None, 0) else EXIT_USAGE
    if getattr(args, "command", None) is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    out = getattr(args, "out", None)
    try:
        if out:
            _check_out(out)
        result = args.func(args)
        text, code = (result, EXIT_OK) if isinstance(result, str) else result
        if out:
            with open(out, "w") as fh:
                print(text, file=fh)
        else:
            print(text)
        return code
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:     # past what the pre-checks refuse
        print(f"usage error: the arrays that {args.command} needs cannot be allocated",
              file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:       # ContourTooLeft, NotIntegrable, UnknownStatistic too
        print(f"invalid arguments: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NoConvergence, AccuracyUnreachable, OverflowDomain) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())

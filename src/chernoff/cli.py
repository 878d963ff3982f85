"""Command-line front end.

Subcommands: polys, verify, moment, cf, mgf, density, mean-max, simulate.
Data goes to stdout, diagnostics to stderr.  Exit codes: 0 success,
1 verification failure, 2 usage error, 3 numerical failure.  The
CHERNOFF_RELTOL environment variable overrides the default quadrature
relative tolerance.  moment, cf, mgf and mean-max share one writer,
`_scalar_output`: JSON, CSV, or plain text ending in `err<=`.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from typing import Optional

import numpy as np

from . import algebra, moments
from .simulate import SimConfig, estimate, save_sample_set
from .simulate import simulate as run_paths
from .errors import AccuracyUnreachable, NoConvergence, OverflowDomain

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


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w") as fh:
            print(text, file=fh)
    else:
        print(text)


def _scalar_output(args, quantity: str, value: float, err: float,
                   spec: moments.ContourSpec, plain: str, **extra) -> int:
    """Write one quadrature result in args.format: JSON, CSV, or `plain`
    followed by the error estimate."""
    if args.format == "json":
        doc = {"quantity": quantity, **extra, "value": value,
               "err_estimate": err, "contour": dataclasses.asdict(spec)}
        _emit(json.dumps(doc), args.out)
    elif args.format == "csv":
        head = ",".join(["quantity", *extra, "value", "err_estimate"])
        row = ",".join([quantity, *map(str, extra.values()), f"{value:.17g}", f"{err:.3g}"])
        _emit(head + "\n" + row, args.out)
    else:
        _emit(f"{plain}  err<={err:.3g}", args.out)
    return EXIT_OK


def cmd_polys(args) -> int:
    if args.max_n < 0:
        raise _UsageError("--max-n must be >= 0")
    if args.format == "json":
        docs = [algebra.moment_polynomial_json(n) for n in range(args.max_n + 1)]
        _emit(json.dumps(docs), args.out)
    elif args.format == "csv":
        lines = ["n,power,coefficient"]
        for n in range(args.max_n + 1):
            for p, c in algebra.moment_polynomial(n).items():
                lines.append(f"{n},{p},{c.numerator}/{c.denominator}")
        _emit("\n".join(lines), args.out)
    else:
        lines = [f"p_{n}(z) = {algebra.moment_polynomial(n)}"
                 for n in range(args.max_n + 1)]
        _emit("\n".join(lines), args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.max_n < 2:
        raise _UsageError("--max-n must be >= 2")
    spec = _contour_from_env()
    report = algebra.verify_conjectures(args.max_n)
    lines = [f"conjectures up to n = {args.max_n}:"]
    if report.all_ok:
        lines.append(f"  ok: odd vanish, degree = n/2, sinh leading "
                     f"coefficient, mod-3 support ({len(report.rows)} rows)")
    else:
        for row in report.rows:
            if row.ok:
                continue
            lines.append(f"  FAIL n={row.n}: degree {row.degree} "
                         f"(ok={row.degree_ok}), leading {row.leading} "
                         f"(ok={row.leading_ok}), mod3 ok={row.mod3_ok}")
    checks = moments.identity_suite(spec)
    lines.append("numeric identities:")
    lines.extend("  " + c.describe() for c in checks)
    ok = report.all_ok and all(c.passed for c in checks)
    lines.append("all checks passed" if ok else "VERIFICATION FAILED")
    print("\n".join(lines))
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def cmd_moment(args) -> int:
    spec = _contour_from_env()
    qr = moments.moment_quad(args.n, args.gamma, spec)
    return _scalar_output(args, "moment", qr.value, qr.err_estimate, spec,
                          f"E V^{args.n} (gamma={args.gamma:.10g}) = {qr.value:.15g}",
                          n=args.n, gamma=args.gamma)


def cmd_cf(args) -> int:
    spec = _contour_from_env()
    # V_gamma = s V, so the cf at gamma is the canonical cf at argument s t
    s = moments.length_scale(args.gamma)
    qr = moments.char_fn_quad(s * args.t, spec)
    val = qr.value
    return _scalar_output(args, "char_fn", val.real, qr.err_estimate + abs(val.imag), spec,
                          f"cf({args.t:.10g}) (gamma={args.gamma:.10g}) = {val.real:.15g}",
                          t=args.t, gamma=args.gamma)


def cmd_mgf(args) -> int:
    t = complex(args.t_re, args.t_im)
    s = moments.length_scale(args.gamma)
    sigma = moments.default_mgf_sigma(s * t) if args.sigma is None else args.sigma
    spec = _contour_from_env(sigma)
    qr = moments.mgf_quad(s * t, contour=spec)
    val = qr.value
    return _scalar_output(args, "mgf", val.real, qr.err_estimate, spec,
                          f"mgf({t}) (gamma={args.gamma:.10g}) = {val.real:.15g}"
                          f"{val.imag:+.3g}i",
                          t_re=args.t_re, t_im=args.t_im, gamma=args.gamma, value_im=val.imag)


def cmd_density(args) -> int:
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
        doc = {"quantity": "density", "gamma": args.gamma, "tol": args.tol,
               "x": [float(x) for x in xs], "f": [float(f) for f in fs]}
        _emit(json.dumps(doc), args.out)
    else:
        lines = ["x,f"]
        lines.extend(f"{x:.17g},{f:.17g}" for x, f in zip(xs, fs))
        _emit("\n".join(lines), args.out)
    return EXIT_OK


def cmd_mean_max(args) -> int:
    spec = _contour_from_env()
    qr = moments.mean_max_quad(args.gamma, spec)
    return _scalar_output(args, "mean_max", qr.value, qr.err_estimate, spec,
                          f"E M (gamma={args.gamma:.10g}) = {qr.value:.15g}",
                          gamma=args.gamma)


def cmd_simulate(args) -> int:
    try:
        cfg = SimConfig(gamma=args.gamma, horizon=args.horizon,
                           step=args.step, num_paths=args.paths, seed=args.seed)
    except ValueError as exc:
        raise _UsageError(str(exc))
    if cfg.num_paths < 2:
        raise _UsageError("--paths must be >= 2 for a standard error")
    _check_out(args.out, args.out + ".json")
    print(f"simulating {cfg.num_paths} paths "
          f"(N = {cfg.steps_per_side} steps/side) ...", file=sys.stderr)
    samples = run_paths(cfg)
    save_sample_set(samples, args.out)
    print(f"wrote {args.out} and {args.out}.json", file=sys.stderr)

    spec = _contour_from_env()
    rows = [
        ("v_mean", estimate(samples, "v_moment", order=1), 0.0),
        ("v2_mean", estimate(samples, "v_moment", order=2),
         moments.moment(2, cfg.gamma, spec)),
        ("v4_mean", estimate(samples, "v_moment", order=4),
         moments.moment(4, cfg.gamma, spec)),
        ("m_mean", estimate(samples, "m_mean"),
         moments.mean_max(cfg.gamma, spec)),
        ("w_at_argmax_mean", estimate(samples, "w_at_argmax_mean"),
         4.0 / 3.0 * moments.mean_max(cfg.gamma, spec)),
    ]
    if args.format == "json":
        doc = {"quantity": "simulate", "config": dataclasses.asdict(cfg),
               "out": args.out,
               "estimates": {name: {"value": est.value, "stderr": est.stderr,
                                    "analytic": ana}
                             for name, est, ana in rows}}
        print(json.dumps(doc))
    else:
        print(f"{'statistic':<18} {'estimate':>14} {'stderr':>12} {'analytic':>14}")
        for name, est, ana in rows:
            print(f"{name:<18} {est.value:>14.6f} {est.stderr:>12.2g} {ana:>14.6f}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="chernoff",
        description="Chernoff distribution: exact moment polynomials, "
                    "contour-integral numerics, and Monte Carlo simulation.")
    sub = ap.add_subparsers(dest="command", metavar="command")
    gamma = ("--gamma", dict(type=float, default=moments.CANONICAL_GAMMA))

    def command(name, func, about, *flags, fmt="plain"):
        """Subcommand `name` running func, with its (flag, keywords) pairs
        in order, then --format (default fmt) and --out unless fmt is None."""
        p = sub.add_parser(name, help=about)
        p.set_defaults(func=func)
        for flag, kw in flags:
            p.add_argument(flag, **kw)
        if fmt:
            p.add_argument("--format", choices=("plain", "json", "csv"), default=fmt)
            p.add_argument("--out", default=None, help="write output to a file")

    command("polys", cmd_polys, "exact moment polynomials p_0..p_N",
            ("--max-n", dict(type=int, required=True)))
    command("verify", cmd_verify, "exact conjecture checks + numeric identities",
            ("--max-n", dict(type=int, default=30)), fmt=None)
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
            ("--tol", dict(type=float, default=1e-8)), fmt="csv")
    command("mean-max", cmd_mean_max, "E M, the expected maximum", gamma)
    command("simulate", cmd_simulate, "Monte Carlo oracle; writes CSV + sidecar", gamma,
            ("--horizon", dict(type=float, default=4.0)),
            ("--step", dict(type=float, default=1e-3)),
            ("--paths", dict(type=int, default=10_000)),
            ("--seed", dict(type=int, default=0)),
            ("--out", dict(default="chernoff_samples.csv")),
            ("--format", dict(choices=("plain", "json"), default="plain")), fmt=None)
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
    try:
        if getattr(args, "out", None):
            _check_out(args.out)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:       # ContourTooLeft, NotIntegrable, UnknownStatistic too
        print(f"invalid arguments: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NoConvergence, AccuracyUnreachable, OverflowDomain) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())

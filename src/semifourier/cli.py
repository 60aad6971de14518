"""Command line interface.

Subcommands
-----------
spectrum   eigenvalues of the first modes
coeffs     classical or ladder expansion coefficients of a catalog function
norms      ladder norms computed by quadrature and by coefficient series
converge   expansion error against the partial sum order
verify     run the structural self-check suites

Each subcommand's handler registers by being defined as ``_cmd_<name>``;
``build_parser`` declares its options.

Exit codes: 0 on success, 2 on invalid configuration or arguments, 3 when a
verify run has failing checks.  Reports are emitted as deterministic JSON
(default) or CSV.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys

import numpy as np

from . import catalog
from .errors import SemiFourierError
from .expansion import _expansion_errors, _rescale, leftdef_coeffs
from .ladder import _check_ladder_index, leftdef_inner, spectral_inner_r
from .quadrature import QuadratureSpec, _norm, l2_inner
from .report import Report, render
from .spectral import SpectralConfig, eigenvalues
from .spectral import eigenvalue  # noqa: F401  perfbench's tracer test patches cli.eigenvalue
from .verify import SUITES, run_suites

__all__ = ["main", "build_parser", "run"]


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--a", type=float, default=0.0, help="left endpoint (default 0)")
    common.add_argument("--b", type=float, default=math.pi, help="right endpoint (default pi)")
    common.add_argument("--k", type=float, default=1.0, help="spectral shift (default 1)")
    common.add_argument("--format", choices=("json", "csv"), default="json", help="output format")
    common.add_argument("--output", default=None, help="write the report to this path instead of stdout")
    quad_flags = argparse.ArgumentParser(add_help=False)  # every subcommand but spectrum integrates
    quad_flags.add_argument("--quad-panels", type=int, default=64, help="quadrature panels (default 64)")
    quad_flags.add_argument("--quad-nodes", type=int, default=10, help="nodes per panel (default 10)")

    parser = argparse.ArgumentParser(
        prog="semifourier",
        description="Anti-periodic Fourier operator: spectrum, norm ladder, expansions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", parents=[common], help="eigenvalues of the first modes")
    p.add_argument("--N", "--modes", dest="trunc", type=int, default=8, help="number of modes")

    p = sub.add_parser("coeffs", parents=[common, quad_flags], help="expansion coefficients")
    p.add_argument("--function", required=True, help="catalog name, e.g. sawtooth or mode:3:sin")
    p.add_argument("--N", "--modes", dest="trunc", type=int, default=8, help="truncation order")
    p.add_argument("--n", type=int, default=None, help="ladder index for rescaled coefficients")
    p.add_argument("--method", choices=("rescale", "direct"), default=None,
                   help="route for ladder coefficients (needs --n; default rescale)")

    p = sub.add_parser("norms", parents=[common, quad_flags], help="norms by quadrature and by series")
    p.add_argument("--function", required=True)
    p.add_argument("--N", "--modes", dest="trunc", type=int, default=200,
                   help="series truncation order")
    p.add_argument("--n", type=int, default=None, help="integer ladder index")
    p.add_argument("--r", type=float, default=None, help="positive real power (series route only)")

    p = sub.add_parser("converge", parents=[common, quad_flags], help="expansion error vs partial sum order")
    p.add_argument("--function", required=True)
    p.add_argument("--N", "--modes", dest="trunc", type=int, default=32, help="largest order")
    p.add_argument("--n", type=int, default=None, help="measure the error in this ladder norm")

    p = sub.add_parser("verify", parents=[common, quad_flags], help="run self-check suites")
    p.add_argument("--suite", action="append", default=None,
                   help="suite name (repeatable); default all. Available: "
                        + ", ".join(sorted(SUITES)))
    p.add_argument("--N", "--modes", dest="count", type=int, default=None,
                   help="number of modes for mode-indexed checks and series suites")
    p.add_argument("--n", dest="n_max", type=int, default=None, help="largest ladder index")
    for sub_parser in sub.choices.values():  # -1e5, -7.8e-05: values, not flags (as in Python 3.13)
        sub_parser._negative_number_matcher = re.compile(r"-\.?\d")
    return parser


def _config(args) -> SpectralConfig:
    return SpectralConfig(args.a, args.b, args.k)


def _quad_spec(args) -> QuadratureSpec:
    return QuadratureSpec(panels=args.quad_panels, nodes_per_panel=args.quad_nodes)


def _emit(report: Report, args) -> None:
    text = render(report, args.format)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise SemiFourierError(f"cannot write report to {args.output}: {exc.strerror or exc}") from None
    else:
        sys.stdout.write(text)


def _check_count(count: int) -> None:
    if count < 1:
        raise SemiFourierError(f"--N must be a positive integer, got {count}")


def _cmd_spectrum(args) -> int:
    cfg = _config(args)
    _check_count(args.trunc)
    table = {"m": np.arange(1, args.trunc + 1), "eigenvalue": eigenvalues(cfg, args.trunc)}
    _emit(Report("spectrum", cfg, {"modes": args.trunc}, table), args)
    return 0


def _cmd_coeffs(args) -> int:
    cfg = _config(args)
    spec = _quad_spec(args)
    entry = catalog.resolve(args.function)
    if args.n is None:
        if args.method is not None:
            raise SemiFourierError("--method chooses the route for ladder coefficients; it needs --n")
        cv = catalog.coeff_vector(entry, args.trunc, cfg, spec)
        params = {"function": args.function, "N": args.trunc}
    elif args.method in (None, "rescale"):
        cv = _rescale(catalog.coeff_vector(entry, args.trunc, cfg, spec), args.n)
        params = {"function": args.function, "N": args.trunc, "n": args.n, "method": "rescale"}
    else:
        f = entry.handle(cfg)
        if f is None:
            raise SemiFourierError(f"{entry.name} has no pointwise handle; use --method rescale")
        cv = leftdef_coeffs(f, args.trunc, args.n, cfg, spec, method="direct")
        params = {"function": args.function, "N": args.trunc, "n": args.n, "method": "direct"}
    table = {"m": np.arange(1, cv.size + 1), "a": cv.cos_coeffs, "b": cv.sin_coeffs}
    _emit(Report("coeffs", cfg, params, table), args)
    return 0


def _cmd_norms(args) -> int:
    cfg = _config(args)
    spec = _quad_spec(args)
    if args.n is not None and args.r is not None:
        raise SemiFourierError("choose either --n or --r, not both")
    if args.n is not None:
        # before the coefficient vector is built; spectral_inner_r would
        # otherwise report --n 0 of a coefficient-only function as a power error
        _check_ladder_index(args.n)
    entry = catalog.resolve(args.function)
    cv = catalog.coeff_vector(entry, args.trunc, cfg, spec)
    rows = []
    if args.r is not None:
        value = _norm(spectral_inner_r(cv, cv, args.r))
        rows.append({"method": "coefficient-series", "r": args.r, "N": args.trunc, "value": value})
        params = {"function": args.function, "r": args.r, "N": args.trunc}
    else:
        n = args.n
        f = entry.handle(cfg)
        if f is not None:
            quad = _norm(l2_inner(f, f, cfg, spec) if n is None else leftdef_inner(f, f, n, cfg, spec))
            rows.append({"method": "definition-quadrature", "n": 0 if n is None else n, "value": quad})
        series = _norm(cv.power_sum() if n is None else spectral_inner_r(cv, cv, n))
        rows.append({"method": "coefficient-series", "n": 0 if n is None else n,
                     "N": args.trunc, "value": series})
        params = {"function": args.function, "n": 0 if n is None else n, "N": args.trunc}
    _emit(Report("norms", cfg, params, rows), args)
    return 0


def _checkpoints(limit: int) -> list[int]:
    points = []
    m = 1
    while m < limit:
        points.append(m)
        m *= 2
    points.append(limit)
    return points


def _cmd_converge(args) -> int:
    cfg = _config(args)
    spec = _quad_spec(args)
    if args.n is not None:
        # before the function is resolved and its coefficient vector built
        _check_ladder_index(args.n)
    entry = catalog.resolve(args.function)
    cv = catalog.coeff_vector(entry, args.trunc, cfg, spec)
    Ms = _checkpoints(args.trunc)
    errors = _expansion_errors(entry.handle(cfg), cv, Ms, args.n, spec)
    table = {"M": np.array(Ms), **dict(zip(("l2_error", "ladder_error"), np.array(errors).T))}
    params = {"function": args.function, "N": args.trunc}
    if args.n is not None:
        params["n"] = args.n
    _emit(Report("converge", cfg, params, table), args)
    return 0


def _cmd_verify(args) -> int:
    cfg = _config(args)
    spec = _quad_spec(args)
    if args.count is not None:
        _check_count(args.count)
    if args.n_max is not None:
        _check_ladder_index(args.n_max)
    names = args.suite if args.suite else list(SUITES)
    if "all" in names:
        names = list(SUITES)
    try:
        report = run_suites(names, cfg, spec,
                            {"modes": args.count, "n_max": args.n_max, "trunc": args.count})
    except KeyError as exc:
        raise SemiFourierError(str(exc.args[0])) from None
    _emit(report, args)
    return 0 if report.summary["fail"] == 0 else 3


# _cmd_<name> registers as the handler of subcommand <name>
_COMMANDS = {name[len("_cmd_"):]: command for name, command in list(globals().items()) if name.startswith("_cmd_")}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser every ``run`` reuses; parse_args leaves a parser as it found it."""
    return build_parser()


def run(argv=None) -> int:
    args = _parser().parse_args(argv)
    return _COMMANDS[args.command](args)


def main(argv=None) -> int:
    try:
        return run(argv)
    except SemiFourierError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command line interface.

Subcommands
-----------
spectrum   eigenvalues of the first modes
coeffs     classical or ladder expansion coefficients of a catalog function
norms      ladder norms computed by quadrature and by coefficient series
converge   expansion error against the partial sum order
verify     run the structural self-check suites

Exit codes: 0 on success, 2 on invalid configuration or arguments, 3 when a
verify run has failing checks.  Reports are emitted as deterministic JSON
(default) or CSV.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import catalog
from .errors import SemiFourierError
from .expansion import expansion_error, leftdef_coeffs
from .ladder import leftdef_norm, spectral_inner_r
from .quadrature import QuadratureSpec
from .report import Report, render
from .spectral import SpectralConfig, eigenvalue
from .verify import SUITES, run_suites

__all__ = ["main", "build_parser", "run"]


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--a", type=float, default=0.0, help="left endpoint (default 0)")
    common.add_argument("--b", type=float, default=math.pi, help="right endpoint (default pi)")
    common.add_argument("--k", type=float, default=1.0, help="spectral shift (default 1)")
    common.add_argument("--quad-panels", type=int, default=64, help="quadrature panels (default 64)")
    common.add_argument("--quad-nodes", type=int, default=10, help="nodes per panel (default 10)")
    common.add_argument("--tol", type=float, default=1e-10, help="quadrature tolerance (default 1e-10)")
    common.add_argument("--format", choices=("json", "csv"), default="json", help="output format")
    common.add_argument("--output", default=None, help="write the report to this path instead of stdout")

    parser = argparse.ArgumentParser(
        prog="semifourier",
        description="Anti-periodic Fourier operator: spectrum, norm ladder, expansions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", parents=[common], help="eigenvalues of the first modes")
    p.add_argument("--N", "--modes", dest="trunc", type=int, default=8, help="number of modes")

    p = sub.add_parser("coeffs", parents=[common], help="expansion coefficients")
    p.add_argument("--function", required=True, help="catalog name, e.g. sawtooth or mode:3:sin")
    p.add_argument("--N", "--modes", dest="trunc", type=int, default=8, help="truncation order")
    p.add_argument("--n", type=int, default=None, help="ladder index for rescaled coefficients")
    p.add_argument("--method", choices=("rescale", "direct"), default="rescale",
                   help="route for ladder coefficients")

    p = sub.add_parser("norms", parents=[common], help="norms by quadrature and by series")
    p.add_argument("--function", required=True)
    p.add_argument("--N", "--modes", dest="trunc", type=int, default=200,
                   help="series truncation order")
    p.add_argument("--n", type=int, default=None, help="integer ladder index")
    p.add_argument("--r", type=float, default=None, help="positive real power (series route only)")

    p = sub.add_parser("converge", parents=[common], help="expansion error vs partial sum order")
    p.add_argument("--function", required=True)
    p.add_argument("--N", "--modes", dest="trunc", type=int, default=32, help="largest order")
    p.add_argument("--n", type=int, default=None, help="measure the error in this ladder norm")

    p = sub.add_parser("verify", parents=[common], help="run self-check suites")
    p.add_argument("--suite", action="append", default=None,
                   help="suite name (repeatable); default all. Available: "
                        + ", ".join(sorted(SUITES)))
    p.add_argument("--N", "--modes", dest="count", type=int, default=None,
                   help="number of modes for mode-indexed checks and series suites")
    p.add_argument("--n", dest="n_max", type=int, default=None, help="largest ladder index")
    return parser


def _config(args) -> SpectralConfig:
    return SpectralConfig(args.a, args.b, args.k)


def _quad_spec(args) -> QuadratureSpec:
    return QuadratureSpec(panels=args.quad_panels, nodes_per_panel=args.quad_nodes, abs_tol=args.tol)


def _emit(report: Report, args) -> None:
    text = render(report, args.format)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_spectrum(args) -> int:
    cfg = _config(args)
    if args.trunc < 1:
        raise SemiFourierError(f"--N must be a positive integer, got {args.trunc}")
    rows = [{"m": m, "eigenvalue": eigenvalue(cfg, m)} for m in range(1, args.trunc + 1)]
    _emit(Report("spectrum", cfg, {"modes": args.trunc}, rows), args)
    return 0


def _cmd_coeffs(args) -> int:
    cfg = _config(args)
    spec = _quad_spec(args)
    entry = catalog.resolve(args.function)
    if args.n is None:
        cv = catalog.coeff_vector(entry, args.trunc, cfg, spec)
        params = {"function": args.function, "N": args.trunc}
    elif args.method == "rescale":
        base = catalog.coeff_vector(entry, args.trunc, cfg, spec)
        lam = np.array([eigenvalue(cfg, m) for m in range(1, base.size + 1)])
        factor = lam ** (args.n / 2.0)
        from .expansion import CoeffVector

        cv = CoeffVector(cfg, factor * base.cos_coeffs, factor * base.sin_coeffs, ladder=args.n)
        params = {"function": args.function, "N": args.trunc, "n": args.n, "method": "rescale"}
    else:
        f = entry.handle(cfg)
        if f is None:
            raise SemiFourierError(f"{entry.name} has no pointwise handle; use --method rescale")
        cv = leftdef_coeffs(f, args.trunc, args.n, cfg, spec, method="direct")
        params = {"function": args.function, "N": args.trunc, "n": args.n, "method": "direct"}
    rows = [
        {"m": m, "a": complex(cv.cos_coeffs[m - 1]), "b": complex(cv.sin_coeffs[m - 1])}
        for m in range(1, cv.size + 1)
    ]
    _emit(Report("coeffs", cfg, params, rows), args)
    return 0


def _cmd_norms(args) -> int:
    cfg = _config(args)
    spec = _quad_spec(args)
    if args.n is not None and args.r is not None:
        raise SemiFourierError("choose either --n or --r, not both")
    entry = catalog.resolve(args.function)
    cv = catalog.coeff_vector(entry, args.trunc, cfg, spec)
    rows = []
    if args.r is not None:
        value = math.sqrt(max(spectral_inner_r(cv, cv, args.r).real, 0.0))
        rows.append({"method": "coefficient-series", "r": args.r, "N": args.trunc, "value": value})
        params = {"function": args.function, "r": args.r, "N": args.trunc}
    else:
        n = args.n
        f = entry.handle(cfg)
        if f is not None:
            if n is None:
                from .quadrature import l2_inner

                quad = math.sqrt(max(l2_inner(f, f, cfg, spec).real, 0.0))
            else:
                quad = leftdef_norm(f, n, cfg, spec)
            rows.append({"method": "definition-quadrature", "n": 0 if n is None else n, "value": quad})
        weight = 0.0 if n is None else float(n)
        series = math.sqrt(max(spectral_inner_r(cv, cv, weight).real, 0.0)) if weight > 0 else math.sqrt(
            max(float(np.sum(np.abs(cv.cos_coeffs) ** 2 + np.abs(cv.sin_coeffs) ** 2)), 0.0)
        )
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
    entry = catalog.resolve(args.function)
    cv = catalog.coeff_vector(entry, args.trunc, cfg, spec)
    f = entry.handle(cfg)
    lam = np.array([eigenvalue(cfg, m) for m in range(1, cv.size + 1)])
    c2 = np.abs(cv.cos_coeffs) ** 2 + np.abs(cv.sin_coeffs) ** 2
    rows = []
    for M in _checkpoints(args.trunc):
        row: dict = {"M": M}
        if f is not None:
            row["l2_error"] = expansion_error(f, cv, M, None, spec)
            if args.n is not None:
                row["ladder_error"] = expansion_error(f, cv, M, args.n, spec)
        else:
            # coefficient-only entry: tail within the stored truncation
            row["l2_error"] = math.sqrt(float(np.sum(c2[M:])))
            if args.n is not None:
                row["ladder_error"] = math.sqrt(float(np.sum(lam[M:] ** args.n * c2[M:])))
        rows.append(row)
    params = {"function": args.function, "N": args.trunc}
    if args.n is not None:
        params["n"] = args.n
    _emit(Report("converge", cfg, params, rows), args)
    return 0


def _cmd_verify(args) -> int:
    cfg = _config(args)
    spec = _quad_spec(args)
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


_COMMANDS = {
    "spectrum": _cmd_spectrum,
    "coeffs": _cmd_coeffs,
    "norms": _cmd_norms,
    "converge": _cmd_converge,
    "verify": _cmd_verify,
}


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


def main(argv=None) -> int:
    try:
        return run(argv)
    except SemiFourierError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface for measures, operators, orbits, and studies.

Subcommands
-----------
measure exponents <file> --window a,b [--scales N]
    Print the scaling-exponent estimate of a stored measure.
operator spectrum <file> --L <half-width> --h <spacing> [--out PATH]
    Discretize a stored potential and write its spectrum CSV.
evolve <file> --tmin T --tmax T --nt N [--out PATH]
    Evolve a stored measure and write the orbit-trace CSV.
classify <file> [--gap-tol TOL] [--atom-tol TOL]
    Print the one-line stability verdict of a stored measure.
study <config> [--jobs N] [--out DIR]
    Run a configured study, write its report, print the summary.
    ``--jobs`` is accepted and ignored (N must be >= 1); rows always run
    in config order.

Exit codes: 0 means every asserted contract passed, 1 means a checked
contract was violated, 2 means a usage or configuration error.  Tables
on stdout are CSV in the dialect of the written files: a fixed column
order, one header line, one row.  An ``--out`` path that cannot be a
cell of that row (a comma, double quote or line break in it) is a usage
error.  Stderr carries only diagnostics.  Window values accept plain
decimals and power tokens ("1e-6", "2^-2048").  The SEMISTAB_OUTDIR
environment variable sets the default output directory.
"""

from __future__ import annotations

import argparse
import encodings.ascii  # noqa: F401  (preloaded, see below)
import gc
import os
import sys

import numpy.random  # noqa: F401  (preloaded, see below)

from .errors import DomainError, InvariantViolation, ResourceCapError, csv_cell, csv_text
from .experiments import (
    OUTPUT_DIR_ENV,
    load_study_config,
    parse_scale_window,
    resolve_output_dir,
    run_study,
    write_report,
)
from .measures import load_measure, scaling_exponents
from .operators import _cython_lapack, discretize, load_potential, spectrum_to_csv
from .semigroup import (
    DEFAULT_ATOM_TOL,
    DEFAULT_GAP_TOL,
    classify_stability,
    evolve_norms,
    orbit_to_csv,
)

# Load here, before the freeze below, what the commands would otherwise import in
# their run time: LAPACK's cython_lapack extension, which every 1-D and banded
# solve calls through ctypes (operators._lapack), numpy.random, which the studies
# draw from, and the codec of the ASCII files they read and write.  The extension
# is loaded from its file, without scipy.linalg's Python layer, whose array-API
# shim would import numpy.f2py, numpy.testing and numpy.ma; were it to import
# scipy.linalg itself, a run would only be slower.  scipy.linalg and scipy.sparse
# load only at a 2-D lambda_max or resolvent (ARPACK, SuperLU).
_cython_lapack()

# The CLI owns its process: the numpy/scipy graph loaded above lives until exit,
# so keep it out of every later collection, the ones at interpreter exit included.
gc.freeze()

__all__ = ["build_parser", "main"]


def _out_path(out, name: str) -> str:
    """``--out``, else ``name`` in $SEMISTAB_OUTDIR or "."; the stdout row prints
    it as a cell, so a path that cannot be one is a usage error before any solve."""
    path = out or os.path.join(os.environ.get(OUTPUT_DIR_ENV) or ".", name)
    try:
        return csv_cell(path)
    except InvariantViolation:
        raise DomainError(f"output path {path!r} holds a comma, double quote or line break, "
                          f"so it cannot be a CSV cell") from None


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------


def _cmd_measure_exponents(args) -> int:
    mu = load_measure(args.file)
    est = scaling_exponents(mu, log_window=parse_scale_window(args.window),
                            n_scales=args.scales)
    sys.stdout.write(csv_text(("d_minus", "d_plus", "n_scales", "log_eps_min", "log_eps_max"),
                              [(est.d_minus, est.d_plus, est.n_scales, *est.log_scale_range)]))
    return 0


def _cmd_operator_spectrum(args) -> int:
    out = _out_path(args.out, "spectrum.csv")
    H = discretize(load_potential(args.file), args.L, args.h)
    spectrum_to_csv(H, out)
    sys.stdout.write(csv_text(("spectrum_csv", "n_eigenvalues", "lambda_max"),
                              [(out, H.N, H.eigenvalues[0])]))
    return 0


def _cmd_evolve(args) -> int:
    out = _out_path(args.out, "orbit.csv")
    trace = evolve_norms(load_measure(args.file), args.tmin, args.tmax, args.nt)
    orbit_to_csv(trace, out)
    sys.stdout.write(csv_text(("orbit_csv", "n_t", "t_min", "t_max"),
                              [(out, trace.n_t, trace.t[0], trace.t[-1])]))
    return 0


def _cmd_classify(args) -> int:
    mu = load_measure(args.file)
    verdict = classify_stability(mu, gap_tol=args.gap_tol, atom_tol=args.atom_tol)
    print(verdict.describe())
    return 0


def _cmd_study(args) -> int:
    if args.jobs < 1:
        raise DomainError(f"--jobs must be >= 1, got {args.jobs}")
    config = load_study_config(args.config)
    report = run_study(config)
    out_dir = args.out if args.out else resolve_output_dir(config)
    write_report(report, out_dir)
    sys.stdout.write(report.summary_text())
    print(f"report written to {out_dir}", file=sys.stderr)
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semistab",
        description="Stability diagnostics for contraction semigroups: "
        "spectral measures, Dirichlet-box operators, orbit decay, studies.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p_measure = sub.add_parser("measure", help="diagnostics of a stored measure")
    msub = p_measure.add_subparsers(dest="subcommand", required=True, metavar="subcommand")
    p_exp = msub.add_parser("exponents", help="scaling exponents at 0")
    p_exp.add_argument("file", help="measure descriptor file")
    p_exp.add_argument(
        "--window",
        required=True,
        help="eps_min,eps_max scale tokens (plain decimal or base^exponent)",
    )
    p_exp.add_argument("--scales", type=int, default=20, help="grid size (default 20)")
    p_exp.set_defaults(func=_cmd_measure_exponents)

    p_operator = sub.add_parser("operator", help="discretized-operator utilities")
    osub = p_operator.add_subparsers(dest="subcommand", required=True, metavar="subcommand")
    p_spec = osub.add_parser("spectrum", help="write the spectrum CSV of a potential")
    p_spec.add_argument("file", help="potential descriptor file")
    p_spec.add_argument("--L", type=float, required=True, help="box half-width")
    p_spec.add_argument("--h", type=float, required=True, help="grid spacing")
    p_spec.add_argument("--out", help="output CSV path (default spectrum.csv)")
    p_spec.set_defaults(func=_cmd_operator_spectrum)

    p_evolve = sub.add_parser("evolve", help="write an orbit-trace CSV for a measure")
    p_evolve.add_argument("file", help="measure descriptor file")
    p_evolve.add_argument("--tmin", type=float, required=True, help="first time")
    p_evolve.add_argument("--tmax", type=float, required=True, help="last time")
    p_evolve.add_argument("--nt", type=int, required=True, help="grid size")
    p_evolve.add_argument("--out", help="output CSV path (default orbit.csv)")
    p_evolve.set_defaults(func=_cmd_evolve)

    p_classify = sub.add_parser("classify", help="print the stability verdict of a measure")
    p_classify.add_argument("file", help="measure descriptor file")
    p_classify.add_argument(
        "--gap-tol", type=float, default=DEFAULT_GAP_TOL,
        help=f"spectral-gap tolerance (default {DEFAULT_GAP_TOL!r})",
    )
    p_classify.add_argument(
        "--atom-tol", type=float, default=DEFAULT_ATOM_TOL,
        help=f"mass-at-zero tolerance (default {DEFAULT_ATOM_TOL!r})",
    )
    p_classify.set_defaults(func=_cmd_classify)

    p_study = sub.add_parser("study", help="run a configured study and write its report")
    p_study.add_argument("config", help="study config file (INI)")
    p_study.add_argument("--jobs", type=int, default=1,
                         help="accepted and ignored; rows run in config order (default 1)")
    p_study.add_argument("--out", help="report directory (default from config or environment)")
    p_study.set_defaults(func=_cmd_study)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already wrote usage/help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (DomainError, ResourceCapError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: not enough memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"contract violation: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

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
on stdout use a fixed column order with one header line; stderr
carries only diagnostics.  Window values accept plain decimals and
power tokens ("1e-6", "2^-2048").  The SEMISTAB_OUTDIR environment
variable sets the default output directory.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import DomainError, InvariantViolation, ResourceCapError
from .experiments import (
    OUTPUT_DIR_ENV,
    load_study_config,
    parse_scale_window,
    resolve_output_dir,
    run_study,
    write_report,
)
from .measures import load_measure, scaling_exponents
from .operators import discretize, load_potential, spectrum_to_csv
from .semigroup import (
    DEFAULT_ATOM_TOL,
    DEFAULT_GAP_TOL,
    classify_stability,
    evolve_norms,
    orbit_to_csv,
)

__all__ = ["build_parser", "main"]


def _default_outdir() -> str:
    return os.environ.get(OUTPUT_DIR_ENV) or "."


def _ensure_parent(path: str) -> None:
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------


def _cmd_measure_exponents(args) -> int:
    mu = load_measure(args.file)
    est = scaling_exponents(mu, log_window=parse_scale_window(args.window),
                            n_scales=args.scales)
    print("d_minus,d_plus,n_scales,log_eps_min,log_eps_max")
    print(
        f"{float(est.d_minus)!r},{float(est.d_plus)!r},{est.n_scales},"
        f"{float(est.log_scale_range[0])!r},{float(est.log_scale_range[1])!r}"
    )
    return 0


def _cmd_operator_spectrum(args) -> int:
    V = load_potential(args.file)
    H = discretize(V, args.L, args.h)
    out = args.out or os.path.join(_default_outdir(), "spectrum.csv")
    _ensure_parent(out)
    spectrum_to_csv(H, out)
    print("spectrum_csv,n_eigenvalues,lambda_max")
    print(f"{out},{H.N},{float(H.eigenvalues[0])!r}")
    return 0


def _cmd_evolve(args) -> int:
    mu = load_measure(args.file)
    trace = evolve_norms(mu, args.tmin, args.tmax, args.nt)
    out = args.out or os.path.join(_default_outdir(), "orbit.csv")
    _ensure_parent(out)
    orbit_to_csv(trace, out)
    print("orbit_csv,n_t,t_min,t_max")
    print(f"{out},{trace.n_t},{float(trace.t[0])!r},{float(trace.t[-1])!r}")
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

"""Config-driven numerical studies with CSV artifacts and PASS/FAIL verdicts.

The five study kinds exercise the library end to end:

- ``approximation``: metric distances and resolvent gaps along a
  truncation or shift sequence of a potential, with the top eigenvalue
  of each discretized step.
- ``gap-vs-box``: top eigenvalue of a compactly supported well as the
  Dirichlet box grows, closed by a flagged, never-computed limit row.
- ``exponent-table``: measured scaling and orbit-decay exponents versus
  their closed forms for profile and power-law measures.
- ``gdelta-witness``: a lacunary measure probed for slow-vs-fast orbit
  oscillation; the witness measure itself is emitted next to the report.
- ``section3-bounds``: randomized sweeps of the orbit-norm decay bounds
  plus the single-atom equality witness.

A study is described by an INI config (one ``[study]`` section plus
kind-specific sections), runs deterministically from its seed, and
writes a directory of CSV tables, a normalized config echo, and a
plain-text summary with one PASS/FAIL line per verdict.  From Python,
``study(kind, seed=..., **keys)`` takes the same keys as keywords and
runs them through the same INI text.  All random
inputs are drawn up front in config order, so re-runs produce
byte-identical CSVs.  Each table is declared once, by its row inputs and
a row function returning ``{column: cell}``; the CSV header, the
verdicts and ``spot_check``, which re-derives randomly chosen report
cells straight from the library operations, all read those columns.
"""

from __future__ import annotations

import configparser
import datetime
import math
import numbers
import os
import platform
from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy

from .errors import DomainError, InvariantViolation, PreconditionError, read_ascii
from .measures import (
    AtomicMeasure,
    lacunary_measure,
    measure_to_text,
    monomial_profile_measure,
    power_law_measure,
    scaling_exponents,
)
from .operators import (
    Potential,
    discretize,
    metric_d,
    potential_from_text,
    potential_to_text,
    resolvent_gap,
    shift_potential,
    truncate_potential,
)
from .semigroup import (
    BetaDescriptor,
    classify_stability,
    decay_exponents,
    evolve_norms,
    gdelta_probe,
    range_bound_check,
    shifted_range_bound_check,
)

__all__ = [
    "STUDY_KINDS",
    "OUTPUT_DIR_ENV",
    "StudyConfig",
    "ReportTable",
    "VerdictLine",
    "StudyReport",
    "SpotCheck",
    "parse_scale_token",
    "parse_scale_window",
    "parse_study_config",
    "load_study_config",
    "resolve_output_dir",
    "run_study",
    "write_report",
    "spot_check",
    "study",
]

#: Environment variable naming the default output directory for reports.
OUTPUT_DIR_ENV = "SEMISTAB_OUTDIR"

_RESOLVENT_SLACK = 1e-9
_GAP_MONOTONE_SLACK = 1e-12


# ---------------------------------------------------------------------------
# scale tokens
# ---------------------------------------------------------------------------


def parse_scale_token(token: str) -> float:
    """Natural log of the positive scale a config token denotes.

    Plain decimals ("1e-6", "0.25") cover the double-precision range;
    power forms ("2^-2048", "10^-700") reach the log-domain scales the
    measure types support far below it.
    """
    tok = str(token).strip()
    if not tok:
        raise DomainError("empty scale token")
    if "^" in tok:
        base_s, _, exp_s = tok.partition("^")
        try:
            base = float(base_s)
            exponent = float(exp_s)
        except ValueError:
            raise DomainError(f"cannot parse scale token {tok!r}") from None
        if not (base > 0.0 and math.isfinite(base) and math.isfinite(exponent)):
            raise DomainError(f"scale token {tok!r} needs a positive finite base and exponent")
        return exponent * math.log(base)
    try:
        val = float(tok)
    except ValueError:
        raise DomainError(f"cannot parse scale token {tok!r}") from None
    if not (val > 0.0 and math.isfinite(val)):
        raise DomainError(f"scale {tok!r} must be positive and finite")
    return math.log(val)


def parse_scale_window(text: str) -> tuple:
    """Natural logs of a window's two comma-separated scale tokens."""
    tokens = [tok for tok in text.split(",") if tok.strip()]
    if len(tokens) != 2:
        raise DomainError(f"a scale window needs two comma-separated scales, got {text!r}")
    return parse_scale_token(tokens[0]), parse_scale_token(tokens[1])


# ---------------------------------------------------------------------------
# study configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StudyConfig:
    """Parsed study description: kind, seed, and raw key-value sections."""

    kind: str
    seed: int
    output_dir: str | None
    sections: dict

    def __post_init__(self) -> None:
        _kind(self.kind)
        if int(self.seed) != self.seed or self.seed < 0:
            raise DomainError("seed must be an integer >= 0")

    def echo_text(self) -> str:
        """Normalized INI text: the config as parsed, one key per line."""
        lines = []
        for name, opts in self.sections.items():
            lines.append(f"[{name}]")
            for key, val in opts.items():
                lines.append(f"{key} = {val}")
            lines.append("")
        return "\n".join(lines)


def parse_study_config(text: str) -> StudyConfig:
    """Parse INI text into a StudyConfig; malformed input raises DomainError."""
    cp = configparser.ConfigParser(interpolation=None, delimiters=("=",))
    cp.optionxform = str
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise DomainError(f"malformed study config: {exc}") from None
    return _study_config({name: dict(cp[name]) for name in cp.sections()})


def _study_config(sections: dict) -> StudyConfig:
    """StudyConfig of INI sections (key -> text), its [study] kind and seed checked."""
    _require("study" in sections, "study config needs a [study] section")
    study = sections["study"]
    return StudyConfig(
        kind=_read_key("study", "kind", _Key("a study kind", str, str), study),
        seed=_read_key("study", "seed", _int(0, 0), study),
        output_dir=study.get("output_dir"),
        sections=sections,
    )


def load_study_config(path) -> StudyConfig:
    return parse_study_config(read_ascii(path))


def resolve_output_dir(config: StudyConfig) -> str:
    """Report directory: config value, else $SEMISTAB_OUTDIR, else study-out."""
    if config.output_dir:
        return config.output_dir
    return os.environ.get(OUTPUT_DIR_ENV) or "study-out"


# ---------------------------------------------------------------------------
# key tables: every study key is declared once, in ``_KINDS``
# ---------------------------------------------------------------------------

_REQUIRED = object()
_STUDY_KEYS = ("kind", "seed", "output_dir")


@dataclass(frozen=True)
class _Key:
    """One study key: how its INI text parses and prints, its default, its check.

    A key whose text fails ``parse`` (ValueError or KeyError) or whose
    value fails ``valid`` "must be ``need``".  ``show`` prints a ``study``
    keyword as INI text without rounding it, so the keyword meets the same
    parse and check as that text; a missing key plans as
    ``parse(show(default))``.
    """

    need: str
    parse: Callable
    show: Callable
    default: object = _REQUIRED
    valid: Callable = lambda value: True


def _show_real(value) -> str:
    """A number as the INI text of its float; any other value as its ``str``,
    which the key's parse then reads (or rejects) as INI text."""
    return repr(float(value)) if isinstance(value, numbers.Real) else str(value)


def _real(default=_REQUIRED, need="a finite number", valid=lambda v: True) -> _Key:
    return _Key(need, float, _show_real, default, lambda v: math.isfinite(v) and valid(v))


def _pos(default=_REQUIRED) -> _Key:
    return _real(default, "a positive number", lambda v: v > 0.0)


def _int(minimum: int, default=_REQUIRED) -> _Key:
    return _Key(f"an integer >= {minimum}", int, str, default,
                lambda v: v >= minimum)


def _show_list(show_item: Callable) -> Callable:
    """Print a list keyword as comma-separated INI text; a str, or any value
    that is not iterable, prints as its ``str`` for the key's parse to read."""
    return lambda vals: (", ".join(map(show_item, vals))
                         if isinstance(vals, Iterable) and not isinstance(vals, str) else str(vals))


def _reals(default=_REQUIRED, need="a comma-separated number list", valid=lambda vs: True):
    return _Key(need, lambda text: tuple(float(tok) for tok in text.split(",") if tok.strip()),
                _show_list(_show_real), default,
                lambda vals: all(map(math.isfinite, vals)) and valid(vals))


def _pair(default) -> _Key:
    return _reals(default, "two times 0 < t_min < t_max",
                  lambda vals: len(vals) == 2 and 0.0 < vals[0] < vals[1])


def _window(default) -> _Key:
    """Two scale tokens, planned as their natural logs; ``study`` may pass floats."""
    return _Key("two scale tokens", parse_scale_window, _show_list(_show_real), default)


def _indices(text: str) -> list:
    lo, dots, hi = text.partition("..")
    vals = (list(range(int(lo), int(hi) + 1)) if dots
            else [int(tok) for tok in text.split(",") if tok.strip()])
    if not vals or vals[0] < 1 or any(b <= a for a, b in zip(vals, vals[1:])):
        raise ValueError(text)
    return vals


def _require(ok, message: str) -> None:
    if not ok:
        raise DomainError(message)


def _kind(name: str) -> "_Kind":
    _require(name in _KINDS,
             f"unknown study kind {name!r}; expected one of {', '.join(STUDY_KINDS)}")
    return _KINDS[name]


def _read_key(secname: str, key: str, spec: _Key, sec: dict):
    _require(key in sec or spec.default is not _REQUIRED, f"[{secname}] needs a value for {key}")
    raw = sec[key].strip() if key in sec else spec.show(spec.default)
    try:
        value = spec.parse(raw)
        if spec.valid(value):
            return value
    except (ValueError, KeyError):
        pass
    raise DomainError(f"[{secname}] {key} must be {spec.need}, got {raw!r}")


def _plan(config: StudyConfig) -> dict:
    """Typed, checked value of every key of the config's kind, defaults filled in.

    Unknown sections and keys raise DomainError.  A ``[potential]``
    section is checked by the potential descriptor parser instead.
    """
    kind = _KINDS[config.kind]
    tables = {"study": _STUDY_KEYS, **kind.sections}
    for name, sec in config.sections.items():
        if not (name == "potential" and kind.potential):
            _require(name in tables, f"a {config.kind} study has no [{name}] section")
            unknown = [key for key in sec if key not in tables[name]]
            _require(not unknown, f"[{name}] has unknown keys {unknown} in a {config.kind} study")
    plan = {
        key: _read_key(name, key, spec, config.sections.get(name, {}))
        for name, table in kind.sections.items()
        for key, spec in table.items()
    }
    if kind.potential:
        _require("potential" in config.sections,
                 f"a {config.kind} study needs a [potential] section")
        plan["potential"] = _potential_from_section(config.sections["potential"])
    kind.check(plan)
    return plan


# -- potential <-> config section --------------------------------------------


def _potential_from_section(sec: dict) -> Potential:
    fields = {"nu": "1", **sec}
    return potential_from_text("\n".join(["potential"] + [f"{k}={v}" for k, v in fields.items()]))


def _potential_section_dict(V: Potential) -> dict:
    return dict(item.split("=", 1) for item in potential_to_text(V).split()[1:])


# ---------------------------------------------------------------------------
# report model
# ---------------------------------------------------------------------------


def _format_cell(cell) -> str:
    if isinstance(cell, str):
        if "," in cell or "\n" in cell:
            raise InvariantViolation(f"table cell {cell!r} would break the CSV shape")
        return cell
    if isinstance(cell, (bool, np.bool_)):
        raise InvariantViolation("boolean table cells are not part of the format")
    if isinstance(cell, (int, np.integer)):
        return str(int(cell))
    if isinstance(cell, (float, np.floating)):
        val = float(cell)
        if math.isnan(val):
            raise InvariantViolation("NaN cell in a report table; failures must be tagged strings")
        return repr(val)
    raise InvariantViolation(f"unsupported table cell type {type(cell).__name__}")


@dataclass(frozen=True)
class ReportTable:
    """One CSV artifact: a name, a fixed header, and homogeneous rows."""

    name: str
    header: tuple
    rows: list

    def to_csv_text(self) -> str:
        lines = [",".join(self.header)]
        for row in self.rows:
            if len(row) != len(self.header):
                raise InvariantViolation(
                    f"table {self.name!r} row with {len(row)} cells under "
                    f"{len(self.header)} columns"
                )
            lines.append(",".join(_format_cell(cell) for cell in row))
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class VerdictLine:
    """One summary assertion: PASS/FAIL plus a short evidence string."""

    name: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"{tag} {self.name}" + (f" {self.detail}" if self.detail else "")


@dataclass
class StudyReport:
    """In-memory study result: tables, verdicts, notes, and provenance."""

    kind: str
    tables: list
    verdicts: list
    notes: list
    config: StudyConfig
    provenance: dict
    artifacts: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def table(self, name: str) -> ReportTable:
        for tab in self.tables:
            if tab.name == name:
                return tab
        raise DomainError(f"report has no table named {name!r}")

    def summary_text(self) -> str:
        lines = [
            f"study: {self.kind}",
            f"seed: {self.config.seed}",
        ]
        for key in ("semistab", "python", "numpy", "scipy", "generated"):
            lines.append(f"{key}: {self.provenance[key]}")
        lines.append("tables: " + ", ".join(f"{t.name}.csv" for t in self.tables))
        if self.artifacts:
            lines.append("artifacts: " + ", ".join(sorted(self.artifacts)))
        for note in self.notes:
            lines.append(f"note: {note}")
        for verdict in self.verdicts:
            lines.append(verdict.line())
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines) + "\n"


def _provenance() -> dict:
    from . import __version__

    return {
        "semistab": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "generated": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


def write_report(report: StudyReport, out_dir=None) -> dict:
    """Write config echo, CSV tables, artifacts, and summary; return paths."""
    target = out_dir if out_dir is not None else resolve_output_dir(report.config)
    os.makedirs(target, exist_ok=True)
    paths = {}

    def _emit(name: str, text: str) -> None:
        path = os.path.join(target, name)
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)
        paths[name] = path

    _emit("config.echo.ini", report.config.echo_text())
    for tab in report.tables:
        _emit(f"{tab.name}.csv", tab.to_csv_text())
    for name in sorted(report.artifacts):
        _emit(name, report.artifacts[name])
    _emit("summary.txt", report.summary_text())
    return paths


# ---------------------------------------------------------------------------
# study tables: each declared once by its row inputs and its row
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Table:
    """One report table.

    ``items(plan, seed)`` lists the row inputs in config order; every
    random draw and every operator the rows share is made there.
    ``row(plan, item)`` returns one row as ``{column: cell}``, so the
    header is the columns of the first row.
    """

    name: str
    items: Callable
    row: Callable


def _report_table(name: str, rows: list) -> ReportTable:
    header = tuple(rows[0])
    for row in rows:
        if tuple(row) != header:
            raise InvariantViolation(f"table {name!r}: row columns {tuple(row)} differ "
                                     f"from the header {header}")
    return ReportTable(name, header, [tuple(row.values()) for row in rows])


# -- approximation -------------------------------------------------------------


def _approximation_items(plan: dict, seed: int) -> list:
    H = discretize(plan["potential"], plan["L"], plan["h"])
    rng = np.random.default_rng(seed)
    probes = []
    for _ in range(plan["n_probes"]):
        u = rng.uniform(-1.0, 1.0, H.N)
        u /= np.linalg.norm(u)
        probes.append(u)
    return [(index, H, probes) for index in plan["indices"]]


def _approximation_row(plan: dict, item: tuple) -> dict:
    index, H, probes = item
    V = plan["potential"]
    Vk = (truncate_potential if plan["seq_kind"] == "truncation" else shift_potential)(V, index)
    Hk = discretize(Vk, plan["L"], plan["h"])
    row = {"index": index, "metric_d": float(metric_d(Vk, V, J=plan["metric_J"])),
           "lambda_max": float(Hk.lambda_max)}
    if plan["seq_kind"] == "shift":
        row["shift_cap"] = -float(V.a_bound) / (index + 1.0)
    for p, u in enumerate(probes, 1):
        row[f"lhs_{p}"], row[f"rhs_{p}"] = resolvent_gap(Hk, H, u)
    return row


def _judge_approximation(plan: dict, tables: dict):
    rows = tables["approximation"]
    metric = [row["metric_d"] for row in rows]
    worst_gap = max(row[f"lhs_{p}"] - row[f"rhs_{p}"]
                    for row in rows for p in range(1, plan["n_probes"] + 1))
    verdicts = [
        VerdictLine(
            "resolvent-domination",
            worst_gap <= _RESOLVENT_SLACK,
            f"max lhs-rhs {_format_cell(float(worst_gap))}",
        ),
        VerdictLine(
            "metric-nonincreasing",
            all(b <= a for a, b in zip(metric, metric[1:])),
            f"first {_format_cell(metric[0])} last {_format_cell(metric[-1])}",
        ),
    ]
    if plan["seq_kind"] == "truncation":
        verdicts.append(
            VerdictLine(
                "metric-threshold",
                metric[-1] < plan["metric_tol"],
                f"metric {_format_cell(metric[-1])} at index {plan['indices'][-1]} "
                f"(tol {_format_cell(plan['metric_tol'])})",
            )
        )
    else:
        worst = max(row["lambda_max"] - row["shift_cap"] for row in rows)
        verdicts.append(
            VerdictLine(
                "shift-gap-bound",
                worst <= 0.0,
                f"max lambda_max excess over -a/(l+1) {_format_cell(float(worst))}",
            )
        )
    return verdicts, [], {}


# -- gap-vs-box ----------------------------------------------------------------


def _check_compact_support(V: Potential, radius: float) -> None:
    rng = np.random.default_rng(202020)
    n = 512
    with np.errstate(over="ignore"):  # radii past the double range sample as inf
        r = radius * rng.uniform(1.0, 2.0, n)
    if V.nu == 1:
        pts = np.where(rng.uniform(size=n) < 0.5, -r, r)
    else:
        theta = rng.uniform(0.0, 2.0 * math.pi, n)
        pts = np.column_stack([r * np.cos(theta), r * np.sin(theta)])
    worst = float(np.max(np.abs(V.eval(pts))))
    if worst > 1e-12:
        raise PreconditionError(
            "gap-vs-box needs a potential vanishing outside a bounded set; "
            f"found |V| = {worst!r} beyond |x| = {radius!r}"
        )


def _box_row(plan: dict, L: float) -> dict:
    if L == math.inf:  # box sizes are finite, so this is the flagged limit row
        return {"L": "inf", "lambda_max": "extrapolated", "gap": "extrapolated"}
    lam = float(discretize(plan["potential"], L, plan["h"]).lambda_max)
    return {"L": float(L), "lambda_max": lam, "gap": max(0.0, -lam)}


def _judge_box(plan: dict, tables: dict):
    abs_lam = [abs(row["lambda_max"]) for row in tables["gap-vs-box"][:-1]]
    verdicts = [
        VerdictLine(
            "gap-nonincreasing",
            all(b <= a + _GAP_MONOTONE_SLACK for a, b in zip(abs_lam, abs_lam[1:])),
            f"|lambda_max| from {_format_cell(abs_lam[0])} to {_format_cell(abs_lam[-1])}",
        )
    ]
    return verdicts, ["the final row is extrapolated, never computed"], {}


# -- exponent-table ------------------------------------------------------------


def _exponent_items(plan: dict, seed: int) -> list:
    return [("delta", d) for d in plan["delta_list"]] + [("gamma", g) for g in plan["gamma_list"]]


def _exponent_row(plan: dict, item: tuple) -> dict:
    family, value = item
    if family == "delta":
        mu = monomial_profile_measure(value)
        analytic = 2.0 * value + 1.0
    else:
        mu = power_law_measure(value)
        analytic = float(value)
    est = scaling_exponents(mu, log_window=plan["scale_window"], n_scales=plan["n_scales"])
    trace = evolve_norms(mu, plan["time_window"][0], plan["time_window"][1], plan["n_times"])
    dec = decay_exponents(trace, tail_fraction=plan["tail_fraction"])
    return {
        "family": family,
        "parameter": float(value),
        "analytic": analytic,
        "d_minus": est.d_minus,
        "d_plus": est.d_plus,
        "decay_liminf": dec.liminf_est,
        "decay_limsup": dec.limsup_est,
        "err_d_minus": abs(est.d_minus - analytic),
        "err_d_plus": abs(est.d_plus - analytic),
        "err_decay_liminf": abs(dec.liminf_est + analytic),
        "err_decay_limsup": abs(dec.limsup_est + analytic),
    }


def _judge_exponents(plan: dict, tables: dict):
    rows = tables["exponent-table"]
    worst_scaling = max(max(row["err_d_minus"], row["err_d_plus"]) for row in rows)
    worst_decay = max(max(row["err_decay_liminf"], row["err_decay_limsup"]) for row in rows)
    verdicts = [
        VerdictLine(
            "scaling-accuracy",
            worst_scaling <= plan["scaling_tol"],
            f"max |d - analytic| {_format_cell(float(worst_scaling))} "
            f"(tol {_format_cell(plan['scaling_tol'])})",
        ),
        VerdictLine(
            "decay-accuracy",
            worst_decay <= plan["decay_tol"],
            f"max |decay + analytic| {_format_cell(float(worst_decay))} "
            f"(tol {_format_cell(plan['decay_tol'])})",
        ),
    ]
    return verdicts, [], {}


# -- gdelta-witness ------------------------------------------------------------


def _lacunary(plan: dict) -> AtomicMeasure:
    return lacunary_measure(plan["scale_base"], plan["exponents"], plan["n_atoms"])


def _gdelta_row(plan: dict, mu: AtomicMeasure) -> dict:
    beta = BetaDescriptor(p=plan["beta_p"], poly_degree=plan["beta_poly_degree"])
    verdict = classify_stability(mu)
    est = scaling_exponents(mu, log_window=plan["scale_window"], n_scales=plan["n_scales"])
    probe = gdelta_probe(
        mu,
        plan["alpha_exponent"],
        beta=beta,
        horizon=plan["horizon"],
        n_t=plan["n_t"],
    )
    established = (
        verdict.classification == "StableNotExponential"
        and est.d_minus <= plan["d_minus_max"]
        and est.d_plus >= plan["d_plus_min"]
        and probe.log_max_alpha_weighted >= plan["alpha_min_log"]
        and probe.log_min_beta_weighted <= plan["beta_max_log"]
    )
    return {
        "scale_base": plan["scale_base"],
        "exponents": ";".join(repr(float(e)) for e in plan["exponents"]),
        "n_atoms": plan["n_atoms"],
        "classification": verdict.classification,
        "d_minus": est.d_minus,
        "d_plus": est.d_plus,
        "ratio_min": float(np.min(est.ratios)),
        "ratio_max": float(np.max(est.ratios)),
        "log_max_alpha_weighted": probe.log_max_alpha_weighted,
        "argmax_t": probe.argmax_t,
        "log_min_beta_weighted": probe.log_min_beta_weighted,
        "argmin_t": probe.argmin_t,
        "alpha_exponent": plan["alpha_exponent"],
        "beta": beta.describe(),
        "horizon_min": plan["horizon"][0],
        "horizon_max": plan["horizon"][1],
        "n_t": plan["n_t"],
        "witness": "established" if established else "none",
    }


def _judge_witness(plan: dict, tables: dict):
    (row,) = tables["gdelta-witness"]
    established = row["witness"] == "established"
    verdicts = [
        VerdictLine(
            "classification",
            row["classification"] == "StableNotExponential",
            row["classification"],
        ),
        VerdictLine(
            "witness-expectation",
            established == plan["expect_witness"],
            f"established={established} expected={plan['expect_witness']}",
        ),
    ]
    notes = [
        "witness: oscillation witness established"
        if established
        else "witness: no oscillation witness"
    ]
    return verdicts, notes, {"witness.measure": measure_to_text(_lacunary(plan))}


# -- section3-bounds (orbit-norm decay bound sweep) ----------------------------


def _section3_instances(plan: dict, seed: int) -> list:
    rng = np.random.default_rng(seed)
    instances = []
    for i in range(plan["n_measures"]):
        pos = rng.uniform(plan["position_lo"], plan["position_hi"], plan["n_atoms"])
        wts = rng.uniform(0.05, 1.0, plan["n_atoms"])
        instances.append(("plain", i, 0.0, pos, wts))
    for a in plan["shifts"]:
        for i in range(plan["n_shifted"]):
            pos = rng.uniform(plan["position_lo"], -a, plan["n_atoms"])
            wts = rng.uniform(0.05, 1.0, plan["n_atoms"])
            instances.append(("shifted", i, float(a), pos, wts))
    return instances


def _section3_row(plan: dict, instance: tuple) -> dict:
    family, index, a, pos, wts = instance
    mu = AtomicMeasure.from_points(pos, wts)
    t_min, t_max = plan["t_window"]
    # plain instances carry a = 0.0, where the shifted bound is the plain one
    val = shifted_range_bound_check(
        mu, a, t_min=t_min, t_max=t_max, n_t=plan["n_t"], bound_scale=plan["bound_scale"]
    )
    return {
        "family": family,
        "index": index,
        "shift": float(a),
        "max_violation": float(val),
        "worst_t": val.worst_t,
        "norm_x": val.norm_x,
        "tol": val.tol,
        "status": "ok" if val.passed else "violated",
    }


def _equality_row(plan: dict, pos: float) -> dict:
    mu = AtomicMeasure.from_points([pos], [1.0])
    t_star = 1.0 / abs(pos)
    val = range_bound_check(mu, t_grid=np.array([t_star]), bound_scale=plan["bound_scale"])
    gap = abs(float(val))
    return {
        "position": float(pos),
        "t_star": float(t_star),
        "gap": gap,
        "norm_x": val.norm_x,
        "tol": val.tol,
        "status": "ok" if gap <= val.tol else "violated",
    }


def _check_section3_bounds(plan: dict) -> None:
    _require(plan["position_lo"] < plan["position_hi"] <= 0.0
             and all(plan["position_lo"] < -a for a in plan["shifts"]),
             "[bounds] needs position_lo < position_hi <= 0 and position_lo < -a for every shift a")
    # weights lie below 1, so ||x|| < sqrt(n_atoms) and the bound is largest at t_min
    t_min = plan["t_window"][0]
    _require(math.isfinite(plan["bound_scale"] * math.sqrt(plan["n_atoms"]) / (math.e * t_min)),
             f"[bounds] t_window starts at {t_min!r}, where the bound ||x|| e^(-ta)/(e t) "
             f"is not finite")


def _judge_section3_bounds(plan: dict, tables: dict):
    rows, (eq,) = tables["section3-bounds"], tables["equality-witness"]
    verdicts, notes = [], []
    for name, family in (("plain-bound", "plain"), ("shifted-bound", "shifted")):
        fam = [row for row in rows if row["family"] == family]
        if not fam:
            notes.append(f"{name}: no {family} instances, so no verdict")
            continue
        excess = max(row["max_violation"] - row["tol"] for row in fam)
        bad = sum(1 for row in fam if row["status"] == "violated")
        verdicts.append(
            VerdictLine(
                name,
                bad == 0,
                f"{bad} of {len(fam)} instances violated; worst excess "
                f"{_format_cell(float(excess))}",
            )
        )
    verdicts.append(
        VerdictLine(
            "equality-witness",
            eq["status"] == "ok",
            f"gap {_format_cell(eq['gap'])} at t {_format_cell(eq['t_star'])}",
        )
    )
    return verdicts, notes, {}


# ---------------------------------------------------------------------------
# the study kinds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Kind:
    """One study kind: its key tables, report tables, verdicts and cross-key check.

    ``sections`` maps each section to its ``{key: _Key}`` table in echo
    order; ``tables`` are its ``_Table``s in report order;
    ``judge(plan, tables)`` reads the cells of ``{table name: [row]}`` by
    column and returns verdicts, notes and artifacts; ``check(plan)`` raises on
    key combinations no single key can judge.
    """

    sections: dict
    tables: tuple
    judge: Callable
    check: Callable = lambda plan: None
    potential: bool = False  # the config also holds a [potential] descriptor section


_KINDS = {
    "approximation": _Kind(
        {"approximation": {
            "seq_kind": _Key("truncation or shift", str, str,
                             valid=lambda v: v in ("truncation", "shift")),
            "indices": _Key("a range lo..hi or an increasing list of integers >= 1",
                            _indices, _show_list(str)),
            "L": _pos(),
            "h": _pos(),
            "n_probes": _int(1, 3),
            "metric_J": _int(4, 20),
            "metric_tol": _pos(1e-3),
        }},
        (_Table("approximation", _approximation_items, _approximation_row),),
        _judge_approximation,
        potential=True,
    ),
    "gap-vs-box": _Kind(
        {"box": {
            "L_list": _reals(need="two or more strictly increasing positive box sizes",
                             valid=lambda Ls: len(Ls) >= 2 and Ls[0] > 0.0
                             and all(b > a for a, b in zip(Ls, Ls[1:]))),
            "h": _pos(),
        }},
        (_Table("gap-vs-box", lambda plan, seed: [*plan["L_list"], math.inf], _box_row),),
        _judge_box,
        check=lambda plan: _check_compact_support(plan["potential"], max(plan["L_list"])),
        potential=True,
    ),
    "exponent-table": _Kind(
        {"exponents": {
            "delta_list": _reals((), "profile exponents in (1/2, 1)",
                                 lambda ds: all(0.5 < d < 1.0 for d in ds)),
            "gamma_list": _reals((), "positive power-law exponents",
                                 lambda gs: all(g > 0.0 for g in gs)),
            "scale_window": _window(("1e-6", "1e-1")),
            "time_window": _pair((10.0, 1e6)),
            "n_scales": _int(2, 200),
            "n_times": _int(2, 400),
            "scaling_tol": _pos(1e-3),
            "decay_tol": _pos(0.05),
            "tail_fraction": _pos(0.8),
        }},
        (_Table("exponent-table", _exponent_items, _exponent_row),),
        _judge_exponents,
        check=lambda plan: _require(plan["delta_list"] or plan["gamma_list"],
                                    "[exponents] needs at least one delta or gamma value"),
    ),
    "gdelta-witness": _Kind(
        {
            "lacunary": {
                "scale_base": _pos(0.5),
                "exponents": _reals((0.5, 4.0)),
                "n_atoms": _int(1, 12),
            },
            "witness": {
                "alpha_exponent": _pos(0.7),
                "beta_p": _pos(0.1),
                "beta_poly_degree": _int(0, 0),
                "horizon": _reals((10.0, 1e12), "two times 0 < t_min < t_max, two decades apart",
                                  lambda vals: len(vals) == 2 and 0.0 < vals[0]
                                  and vals[1] / vals[0] >= 1e2),
                "n_t": _int(2, 4001),
                "scale_window": _window(("2^-2048", "2^-1")),
                "n_scales": _int(2, 240),
                "d_minus_max": _pos(0.7),
                "d_plus_min": _pos(3.0),
                "alpha_min_log": _real(6.9),
                "beta_max_log": _real(-6.9),
                "expect_witness": _Key(
                    "a boolean", lambda text: configparser.ConfigParser.BOOLEAN_STATES[text.lower()],
                    lambda v: str(bool(v)).lower() if isinstance(v, (bool, np.bool_)) else str(v),
                    True),
            },
        },
        (_Table("gdelta-witness", lambda plan, seed: [_lacunary(plan)], _gdelta_row),),
        _judge_witness,
    ),
    "section3-bounds": _Kind(
        {
            "bounds": {
                "n_measures": _int(1, 100),
                "n_atoms": _int(1, 20),
                "position_lo": _real(-10.0),
                "position_hi": _real(0.0),
                "t_window": _pair((1e-2, 1e3)),
                "n_t": _int(1, 200),
                "shifts": _reals((0.5, 1.0, 2.0), "shift levels >= 0",
                                 lambda shifts: all(a >= 0.0 for a in shifts)),
                "n_shifted": _int(0, 50),
                "equality_position": _real(-2.7, "a negative number", lambda v: v < 0.0),
            },
            # test hook: ``study`` writes it only when set away from the default
            "hooks": {"bound_scale": _pos(1.0)},
        },
        (_Table("section3-bounds", _section3_instances, _section3_row),
         _Table("equality-witness", lambda plan, seed: [plan["equality_position"]],
                _equality_row)),
        _judge_section3_bounds,
        check=_check_section3_bounds,
    ),
}

STUDY_KINDS = tuple(_KINDS)


# ---------------------------------------------------------------------------
# dispatch, the library entry, spot checks
# ---------------------------------------------------------------------------


def run_study(config: StudyConfig) -> StudyReport:
    """Run a configured study; its rows are computed in config order."""
    kind, plan = _KINDS[config.kind], _plan(config)
    rows = {tab.name: [tab.row(plan, item) for item in tab.items(plan, config.seed)]
            for tab in kind.tables}
    tables = [_report_table(name, table_rows) for name, table_rows in rows.items()]
    verdicts, notes, artifacts = kind.judge(plan, rows)
    return StudyReport(
        kind=config.kind,
        tables=tables,
        verdicts=verdicts,
        notes=notes,
        config=config,
        provenance=_provenance(),
        artifacts=artifacts,
    )


def study(kind: str, *, seed: int = 0, **keys) -> StudyReport:
    """Run a study of ``kind`` whose keywords are its INI keys.

    The kinds with a ``[potential]`` section also take ``potential`` (a
    Potential).  An omitted key takes its default.  The keys are printed
    as INI text through the kind's key tables and run by ``run_study``,
    so the config echo reproduces the call, and a keyword its INI text
    would not accept (``n_t=2.7``, ``n_t="abc"``, ``seed=None``) raises
    the same DomainError.
    """
    record = _kind(kind)
    sections = {"study": {"kind": kind, "seed": str(seed)}}
    if record.potential and "potential" in keys:
        sections["potential"] = _potential_section_dict(keys.pop("potential"))
    for name, table in record.sections.items():
        sec = {}
        for key, spec in table.items():
            value = keys.pop(key, spec.default)
            if value is not _REQUIRED and not (name == "hooks" and value == spec.default):
                sec[key] = spec.show(value)
        if sec:
            sections[name] = sec
    if keys:
        raise TypeError(f"a {kind} study takes no keyword {sorted(keys)[0]!r}")
    return run_study(_study_config(sections))


# -- spot checks --------------------------------------------------------------


@dataclass(frozen=True)
class SpotCheck:
    """One re-derived report cell: reported vs recomputed value."""

    table: str
    row: int
    column: str
    reported: float
    recomputed: float
    matches: bool


def spot_check(report: StudyReport, n_cells: int = 5, seed: int = 0) -> list:
    """Re-derive ``n_cells`` random numeric report cells from the config.

    Each chosen row is rebuilt through its table's ``items`` and ``row``.
    Every cell must reproduce bit-for-bit; a mismatch means the report
    and the library operations disagree.
    """
    cells = [
        (tab.name, ri, column, cell)
        for tab in report.tables
        for ri, row in enumerate(tab.rows)
        for column, cell in zip(tab.header, row)
        if isinstance(cell, float)
    ]
    if not cells:
        return []
    config = report.config
    plan = _plan(config)
    tables = {tab.name: tab for tab in _KINDS[config.kind].tables}
    rng = np.random.default_rng(seed)
    chosen = rng.choice(len(cells), size=min(n_cells, len(cells)), replace=False)
    items, fresh_rows, results = {}, {}, []
    for flat in sorted(int(i) for i in chosen):
        name, ri, column, reported = cells[flat]
        if name not in items:
            items[name] = tables[name].items(plan, config.seed)
        if (name, ri) not in fresh_rows:
            fresh_rows[name, ri] = tables[name].row(plan, items[name][ri])
        recomputed = fresh_rows[name, ri][column]
        results.append(
            SpotCheck(
                table=name,
                row=ri,
                column=column,
                reported=float(reported),
                recomputed=float(recomputed),
                matches=_format_cell(reported) == _format_cell(recomputed),
            )
        )
    return results

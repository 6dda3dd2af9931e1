"""Orbit evolution, decay-exponent estimation, stability classification,
decay bounds, and oscillation probes for contraction semigroups.

Everything here works in the spectral picture: a vector's orbit norm is
the Laplace transform of its spectral measure, ``||e^{tA}x||^2 =
integral exp(2 t lambda) dmu_x(lambda)``, evaluated in log domain so
horizons like t = 10^12 stay representable.  Orbit traces and the
oscillation probes read it from the measure's ``log_laplace``.  The range
bounds read its (lambda + a)^2 moment for a whole list of measures at
once: ``shifted_range_bound_checks`` checks every measure as the
one-measure form does, then stacks the atomic ones by atom count into
one kernel that runs in cache-sized, bounded-memory blocks.  Each
generated time grid is geometric and needs 0 < t_min < t_max.
Decay exponents are estimated from two-point slopes of ln ||e^{tA}x||^2
against ln t; stability is read off the spectral gap; the range bounds
``||e^{tA}Ax|| <= ||x||/(e t)`` and their shifted refinement are checked
on time grids; and weighted-orbit probes exhibit orbits that decay
slower than any prescribed polynomial along one time sequence yet
faster than polynomially along another.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, InvariantViolation, PreconditionError, write_csv
from .measures import AtomicMeasure, DensityMeasure, _log_laplace_stack
from .operators import DiscretizedOperator

__all__ = [
    "DEFAULT_ATOM_TOL",
    "DEFAULT_GAP_TOL",
    "RATIO_FLOOR",
    "OrbitTrace",
    "evolve_norms",
    "DecayExponentEstimate",
    "decay_exponents",
    "StabilityVerdict",
    "classify_stability",
    "check_fn_membership",
    "BoundCheckValue",
    "range_bound_check",
    "shifted_range_bound_check",
    "shifted_range_bound_checks",
    "BetaDescriptor",
    "GdeltaProbeResult",
    "gdelta_probe",
    "orbit_to_csv",
    "format_number",
]

DEFAULT_GAP_TOL = 1e-8
DEFAULT_ATOM_TOL = 1e-12
RATIO_FLOOR = -50.0
# (measure, t) values per block of the list bound check, so its Python floats for
# math.exp stay few: 16,384-value blocks raised the sweep's traced peak from 1.20
# to 2.04 MB
_CHECK_ELEMENTS = 2048


def format_number(x: float) -> str:
    """Integer-style text for integral floats, full-precision repr otherwise."""
    x = float(x)
    if math.isfinite(x) and x == math.floor(x) and abs(x) < 1e16:
        return str(int(x))
    return repr(x)


def _geomgrid(t_min, t_max, n_t, min_points: int) -> np.ndarray:
    """``n_t`` geometric times from t_min to t_max, the one check of a time
    window: 0 < t_min < t_max, both finite, and an integer n_t >= min_points."""
    if not 0.0 < t_min < t_max < math.inf:
        raise DomainError(f"need times 0 < t_min < t_max, both finite, got {t_min!r}, {t_max!r}")
    if not (isinstance(n_t, numbers.Real) and math.isfinite(n_t) and int(n_t) == n_t >= min_points):
        raise DomainError(f"n_t must be an integer >= {min_points}, got {n_t!r}")
    return np.geomspace(t_min, t_max, int(n_t))


# ---------------------------------------------------------------------------
# orbit traces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OrbitTrace:
    """ln ||e^{tA}x||^2 on a geometric time grid.

    ``log_mass`` is ln ||x||^2, the t -> 0 limit of ``log_norm_sq``;
    the values must be nonincreasing (contraction) and never exceed it.
    """

    t: np.ndarray
    log_norm_sq: np.ndarray
    log_mass: float

    def __post_init__(self) -> None:
        t = np.asarray(self.t, dtype=float)
        vals = np.asarray(self.log_norm_sq, dtype=float)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "log_norm_sq", vals)
        if t.ndim != 1 or t.size < 2 or vals.shape != t.shape:
            raise DomainError("trace needs matching 1-D grids with at least 2 points")
        if not math.isfinite(self.log_mass):
            raise DomainError("log_mass must be finite")
        if not (np.all(np.isfinite(t)) and np.all(t > 0.0)):
            raise DomainError("times must be finite and positive")
        if np.any(np.diff(t) <= 0.0):
            raise DomainError("times must be strictly increasing")
        if np.any(~np.isfinite(vals)):
            raise InvariantViolation("log orbit norms must be finite")
        slack = 1e-9 * (1.0 + np.abs(vals[:-1]))
        if np.any(np.diff(vals) > slack):
            raise InvariantViolation("orbit norms must be nonincreasing (contraction)")
        cap = self.log_mass + 1e-9 * (1.0 + abs(self.log_mass))
        if np.any(vals > cap):
            raise InvariantViolation("orbit norms must not exceed the initial norm")
        t.setflags(write=False)
        vals.setflags(write=False)

    @property
    def n_t(self) -> int:
        return int(self.t.size)

    def ratios(self) -> np.ndarray:
        """ln ||e^{tA}x||^2 / ln t per node (+-inf where ln t = 0)."""
        with np.errstate(divide="ignore", invalid="ignore"):
            return self.log_norm_sq / np.log(self.t)


def evolve_norms(mu, t_min: float, t_max: float, n_t: int) -> OrbitTrace:
    """Evaluate ln ||e^{tA}x||^2 on a geometric grid of ``n_t`` >= 2 times,
    0 < t_min < t_max.

    Exact for atomic measures up to log-sum-exp rounding; the measure's
    kernel is chunked, so million-point scans stay in bounded memory.
    """
    ts = _geomgrid(t_min, t_max, n_t, 2)
    return OrbitTrace(t=ts, log_norm_sq=mu.log_laplace(ts), log_mass=float(mu.log_mass))


def orbit_to_csv(trace: OrbitTrace, path) -> None:
    """Write a trace as CSV (t, log_norm_sq, ratio), streamed in blocks of rows
    by ``write_csv``; ratio is 'undefined' at t = 1."""
    rows = ((t, v, r if math.log(t) != 0.0 else "undefined")
            for t, v, r in zip(trace.t.tolist(), trace.log_norm_sq.tolist(),
                               trace.ratios().tolist()))
    write_csv(path, ("t", "log_norm_sq", "ratio"), rows)


# ---------------------------------------------------------------------------
# decay exponents
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DecayExponentEstimate:
    """Finite-horizon estimates of the polynomial decay exponents.

    ``liminf_est``/``limsup_est`` are the min/max two-point slopes of
    ln ||e^{tA}x||^2 against ln t over the tail window; a min slope at
    or below ``floor`` is reported as -inf with ``below_floor`` set
    (the orbit decays faster than any polynomial the window can
    resolve).  ``per_time_ratios`` carries the raw per-node ratio
    sequence over the same window.
    """

    liminf_est: float
    limsup_est: float
    tail_fraction: float
    t_window: tuple
    per_time_ratios: tuple
    slopes: tuple
    below_floor: bool
    floor: float

    def __post_init__(self) -> None:
        if not self.liminf_est <= self.limsup_est:
            raise InvariantViolation("liminf estimate must not exceed limsup estimate")
        if not self.limsup_est <= 0.0:
            raise InvariantViolation("limsup estimate must be <= 0 for a contraction")


def _tail_start(n_t: int, tail_fraction: float) -> int:
    """Index of the first of the ``n_t`` times in a ``tail_fraction`` tail."""
    return int(math.ceil((1.0 - tail_fraction) * (n_t - 1)))


def decay_exponents(trace: OrbitTrace, tail_fraction: float = 0.8,
                    floor: float = RATIO_FLOOR) -> DecayExponentEstimate:
    """Estimate liminf/limsup of ln ||e^{tA}x||^2 / ln t from a trace tail."""
    if not 0.0 < tail_fraction <= 1.0:
        raise DomainError("tail_fraction must be in (0, 1]")
    if not floor < 0.0:
        raise DomainError("floor must be negative")
    t = trace.t
    if t[-1] / t[0] < 1e2:
        raise DomainError("trace must span at least two decades of time")
    i0 = _tail_start(trace.n_t, tail_fraction)
    if trace.n_t - i0 < 2:
        raise DomainError("tail window is degenerate")
    tail_t = t[i0:]
    tail_v = trace.log_norm_sq[i0:]
    slopes = np.diff(tail_v) / np.diff(np.log(tail_t))
    min_slope = float(np.min(slopes))
    max_slope = float(np.max(slopes))
    below = min_slope <= floor
    # flat orbits can produce +1e-16-ish slopes from log-sum-exp rounding
    liminf_est = -math.inf if below else min(min_slope, 0.0)
    limsup_est = min(max_slope, 0.0)
    ratios = trace.ratios()[i0:]
    return DecayExponentEstimate(
        liminf_est=liminf_est,
        limsup_est=limsup_est,
        tail_fraction=float(tail_fraction),
        t_window=(float(tail_t[0]), float(tail_t[-1])),
        per_time_ratios=tuple(zip(tail_t.tolist(), ratios.tolist())),
        slopes=tuple(slopes.tolist()),
        below_floor=below,
        floor=float(floor),
    )


# ---------------------------------------------------------------------------
# stability classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StabilityVerdict:
    """Stability class with the spectral evidence attached.

    ``gap`` is the distance from 0 to the top of the spectrum/support;
    ``rate`` equals the gap and is present iff exponentially stable
    (these models satisfy ||e^{tA}|| = e^{-t gap}); ``mass_at_zero``
    is the weight of the atom at 0 when one exists.
    """

    classification: str
    gap: float
    rate: Optional[float]
    mass_at_zero: float
    gap_tol: float
    atom_tol: float

    def __post_init__(self) -> None:
        if self.classification == "ExponentiallyStable":
            if self.rate is None or not self.rate > 0.0:
                raise InvariantViolation("exponential stability requires a positive rate")
        elif self.rate is not None:
            raise InvariantViolation("rate is only present for exponential stability")

    def describe(self) -> str:
        parts = [self.classification, f"gap={format_number(self.gap)}"]
        if self.rate is not None:
            parts.append(f"rate={format_number(self.rate)}")
        parts.append(f"gap_tol={format_number(self.gap_tol)}")
        parts.append(f"atom_tol={format_number(self.atom_tol)}")
        return " ".join(parts)


def _spectral_top(subject, atom_tol: float) -> tuple:
    """(lam_top, mass_at_zero) for a measure or discretized operator.

    lam_top is the top of the spectrum/support (a value <= 0);
    mass_at_zero > 0 only when an atom sits at 0 (for operators: an
    eigenvalue within atom_tol of 0, which freezes its eigenvector,
    reported with unit weight).
    """
    if isinstance(subject, AtomicMeasure) and np.isneginf(subject.log_s[0]):
        return 0.0, float(np.exp(subject.log_w[0]))
    if isinstance(subject, (AtomicMeasure, DensityMeasure)):
        return -float(subject.s_lo), 0.0
    if isinstance(subject, DiscretizedOperator):
        lam_top = subject.lambda_max
        return lam_top, 1.0 if lam_top > -atom_tol else 0.0
    raise DomainError(f"cannot classify a {type(subject).__name__}")


def classify_stability(subject, gap_tol: float = DEFAULT_GAP_TOL,
                       atom_tol: float = DEFAULT_ATOM_TOL) -> StabilityVerdict:
    """Trichotomy by the spectral gap: an atom at 0 (weight above
    atom_tol) is NotStable; a gap above gap_tol is ExponentiallyStable
    with rate = gap; anything else is StableNotExponential.  An infinite
    tolerance would rule a class out for every subject, so both are finite."""
    if not (0.0 < gap_tol < math.inf and 0.0 < atom_tol < math.inf):
        raise DomainError(f"tolerances must be positive and finite, got gap_tol={gap_tol!r}, "
                          f"atom_tol={atom_tol!r}")
    lam_top, mass_at_zero = _spectral_top(subject, atom_tol)
    gap = max(0.0, -lam_top)
    if mass_at_zero > atom_tol:
        classification, rate = "NotStable", None
    elif gap > gap_tol:
        classification, rate = "ExponentiallyStable", gap
    else:
        classification, rate = "StableNotExponential", None
    return StabilityVerdict(
        classification=classification, gap=gap, rate=rate,
        mass_at_zero=mass_at_zero, gap_tol=float(gap_tol), atom_tol=float(atom_tol),
    )


def check_fn_membership(subject, n: int) -> bool:
    """Whether sup_t e^{t/n} ||e^{tA}|| <= 1, i.e. the top of the
    spectrum is at or below -1/n."""
    if int(n) != n or n < 1:
        raise DomainError("n must be an integer >= 1")
    lam_top, _ = _spectral_top(subject, DEFAULT_ATOM_TOL)
    return bool(lam_top <= -1.0 / int(n))


# ---------------------------------------------------------------------------
# range decay bounds
# ---------------------------------------------------------------------------


class BoundCheckValue(float):
    """Max bound violation as a float, with the evidence attached."""

    def __new__(cls, value: float, worst_t: float, norm_x: float, tol: float, n_t: int):
        obj = super().__new__(cls, value)
        obj.worst_t = float(worst_t)
        obj.norm_x = float(norm_x)
        obj.tol = float(tol)
        obj.n_t = int(n_t)
        return obj

    @property
    def passed(self) -> bool:
        return float(self) <= self.tol


def _time_grid(t_grid, t_min, t_max, n_t) -> np.ndarray:
    if t_grid is None:
        return _geomgrid(t_min, t_max, n_t, 1)
    ts = np.asarray(t_grid, dtype=float)
    if ts.ndim != 1 or ts.size < 1:
        raise DomainError("t_grid must be a nonempty 1-D array")
    if not (np.all(np.isfinite(ts)) and np.all(ts > 0.0)):
        raise DomainError("times must be finite and positive")
    return ts


def range_bound_check(mu_x, t_grid=None, *, t_min: float = 1e-2, t_max: float = 1e3,
                      n_t: int = 200, bound_scale: float = 1.0) -> BoundCheckValue:
    """Max over the grid of ||e^{tA}Ax|| - ||x||/(e t) for mu_x = measure of x.

    The bound holds for every negative self-adjoint generator, so the
    returned max should not exceed 1e-12 ||x|| (the ``tol`` attribute).
    ``bound_scale`` deliberately rescales the bound; values below 1
    exist so harnesses can prove the checker detects violations.  This
    is shifted_range_bound_checks for one measure at a = 0.
    """
    return shifted_range_bound_checks([mu_x], [0.0], t_grid, t_min=t_min, t_max=t_max,
                                      n_t=n_t, bound_scale=bound_scale)[0]


def shifted_range_bound_check(mu_x, a: float, t_grid=None, *, t_min: float = 1e-2,
                              t_max: float = 1e3, n_t: int = 200,
                              bound_scale: float = 1.0) -> BoundCheckValue:
    """Max over the grid of ||e^{tA}(A + a)x|| - ||x|| e^{-t a}/(e t).

    Requires the support of mu_x inside (-inf, -a] and a bound that is
    finite at every time (at subnormal times 1/(e t) overflows, and an
    infinite bound would pass vacuously); range_bound_check is the case
    a = 0.  This is shifted_range_bound_checks for one measure.
    """
    return shifted_range_bound_checks([mu_x], [a], t_grid, t_min=t_min, t_max=t_max,
                                      n_t=n_t, bound_scale=bound_scale)[0]


def shifted_range_bound_checks(mus, shifts, t_grid=None, *, t_min: float = 1e-2,
                               t_max: float = 1e3, n_t: int = 200,
                               bound_scale: float = 1.0) -> list:
    """shifted_range_bound_check of each measure ``mus[m]`` at its shift level
    ``shifts[m]``, on one time grid: a list of BoundCheckValue.

    Every measure meets the one-measure checks of its shift, type and
    support (a finite a >= 0, an atomic or density measure, the support in
    (-inf, -a]) before any orbit norm is taken.  The orbit moments of all
    the atomic measures then come from one stacked kernel call per atom
    count, so each value is bit for bit that of the one-measure check.  The
    measures are checked in blocks of rows of ``_CHECK_ELEMENTS`` values:
    their bounds, violations and worst times are array ops, and a block
    whose bound is not finite somewhere is refused at its first such
    measure's first such t.  The orbit norms stay ``math.exp``, applied
    element by element, as numpy's vectorized exp rounds differently: on
    an AVX-512 host it differs from glibc's in 46,152 of 10^6 doubles drawn
    from [-700, 700], and would move the last bits of the CSV cells.
    """
    mus, shifts = list(mus), list(shifts)
    if len(mus) != len(shifts):
        raise DomainError(f"need one shift level per measure, got {len(shifts)} for "
                          f"{len(mus)} measures")
    for mu_x, a in zip(mus, shifts):
        if not (a >= 0.0 and math.isfinite(a)):
            raise DomainError("shift level a must be finite and >= 0")
        if not isinstance(mu_x, (AtomicMeasure, DensityMeasure)):
            raise DomainError(f"cannot bound-check a {type(mu_x).__name__}")
        if mu_x.s_lo < a:
            raise DomainError("measure must be supported in (-inf, -a]")
    ts = _time_grid(t_grid, t_min, t_max, n_t)
    moments = _log_laplace_stack(mus, ts, shifts)
    norms = [math.sqrt(mu_x.mass) for mu_x in mus]
    scales = bound_scale * np.array(norms)
    a = np.array(shifts, dtype=float)[:, None]
    rows = max(1, _CHECK_ELEMENTS // ts.size)
    checks = []
    for m in range(0, len(mus), rows):
        with np.errstate(over="ignore", invalid="ignore"):
            rhs = scales[m : m + rows, None] * np.exp(-ts * a[m : m + rows]) / (math.e * ts)
        bad = ~np.isfinite(rhs)
        if np.any(bad):  # name the first offending measure's first such t
            raise DomainError(f"the bound ||x|| e^(-ta)/(e t) is not finite at "
                              f"t = {float(ts[np.argwhere(bad)[0, 1]])!r}")
        # orbit norms of (A + a)x, flushed to 0.0 where the log value underflows
        log_moment = moments[m : m + rows]
        half = np.where(log_moment > -1400.0, 0.5 * log_moment, -np.inf).ravel()
        lhs = np.fromiter(map(math.exp, half.tolist()), float, half.size)
        violations = lhs.reshape(rhs.shape) - rhs
        worst = np.argmax(violations, axis=1)
        for norm_x, value, worst_t in zip(norms[m : m + rows],
                                          violations[np.arange(worst.size), worst].tolist(),
                                          ts[worst].tolist()):
            checks.append(BoundCheckValue(value, worst_t=worst_t, norm_x=norm_x,
                                          tol=1e-12 * norm_x, n_t=ts.size))
    return checks


# ---------------------------------------------------------------------------
# weighted-orbit oscillation probes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BetaDescriptor:
    """Sub-exponential weight t^poly_degree * exp(t^p) with 0 < p < 1.

    Every member satisfies beta(t) e^{-t eps} -> 0 for each eps > 0 and
    is evaluable in log domain: ln beta(t) = poly_degree ln t + t^p.
    """

    p: float = 0.5
    poly_degree: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.p < 1.0:
            raise DomainError("exponent p must lie in (0, 1)")
        if int(self.poly_degree) != self.poly_degree or self.poly_degree < 0:
            raise DomainError("poly_degree must be an integer >= 0")

    def log_weight(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        return self.poly_degree * np.log(t) + t ** self.p

    def describe(self) -> str:
        if self.poly_degree:
            return f"t^{self.poly_degree}*exp(t^{format_number(self.p)})"
        return f"exp(t^{format_number(self.p)})"


@dataclass(frozen=True)
class GdeltaProbeResult:
    """Extremes of the alpha- and beta-weighted orbit norms (log domain).

    A large ``log_max_alpha_weighted`` together with a very negative
    ``log_min_beta_weighted`` witnesses an orbit that outruns the polynomial
    weight along one time sequence yet is crushed by the
    sub-exponential weight along another.
    """

    log_max_alpha_weighted: float
    log_min_beta_weighted: float
    argmax_t: float
    argmin_t: float
    alpha_exponent: float
    beta: BetaDescriptor
    horizon: tuple
    n_t: int


def gdelta_probe(mu, alpha_exponent: float, beta: BetaDescriptor = BetaDescriptor(0.5),
                 horizon: tuple = (10.0, 1e12), n_t: int = 2001) -> GdeltaProbeResult:
    """Scan max of t^alpha ||e^{tA}x|| and min of beta(t) ||e^{tA}x||.

    Requires a StableNotExponential measure: exponentially stable
    orbits make both weights trivial, unstable ones never decay.
    Extremes are taken over the whole grid and keep the first attaining
    node.
    """
    if not alpha_exponent > 0.0:
        raise DomainError("alpha exponent must be positive")
    t_min, t_max = float(horizon[0]), float(horizon[1])
    ts = _geomgrid(t_min, t_max, n_t, 2)
    if t_max / t_min < 1e2:
        raise DomainError("horizon must span at least two decades")
    verdict = classify_stability(mu)
    if verdict.classification != "StableNotExponential":
        raise PreconditionError(
            f"probe needs a StableNotExponential measure, got {verdict.classification}"
        )
    half_log_norm = 0.5 * mu.log_laplace(ts)
    log_alpha = alpha_exponent * np.log(ts) + half_log_norm
    log_beta = beta.log_weight(ts) + half_log_norm
    j = int(np.argmax(log_alpha))
    k = int(np.argmin(log_beta))
    return GdeltaProbeResult(
        log_max_alpha_weighted=float(log_alpha[j]),
        log_min_beta_weighted=float(log_beta[k]),
        argmax_t=float(ts[j]),
        argmin_t=float(ts[k]),
        alpha_exponent=float(alpha_exponent),
        beta=beta,
        horizon=(t_min, t_max),
        n_t=int(n_t),
    )

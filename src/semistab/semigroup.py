"""Orbit evolution, decay-exponent estimation, stability classification,
decay bounds, and oscillation probes for contraction semigroups.

Everything here works in the spectral picture: a vector's orbit norm is
the Laplace transform of its spectral measure, ``||e^{tA}x||^2 =
integral exp(2 t lambda) dmu_x(lambda)``, evaluated in log domain so
horizons like t = 10^12 stay representable.  Orbit traces and the
oscillation probes read it from the measure's ``log_laplace``.  The range
bounds read its (lambda + a)^2 moment for a whole list of measures at
once: ``shifted_range_bound_checks`` checks every measure as the
one-measure form does, then takes the moments on a coarse subgrid and
only on the cells between coarse times whose log-convexity bound can
reach a measure's maximum, each a stacked-kernel call.  Each generated
time grid is geometric and needs 0 < t_min < t_max.
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
        if not (self.gap >= 0.0 and self.mass_at_zero >= 0.0):  # nan fails
            raise InvariantViolation(f"gap {self.gap!r} and mass at 0 {self.mass_at_zero!r} "
                                     f"must be numbers >= 0")
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
    gap = 0.0 if lam_top >= 0.0 else -lam_top  # a nan top stays nan
    if not mass_at_zero <= atom_tol:
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
    (-inf, -a]) before any orbit norm is taken.  Then every bound ``rhs`` =
    ||x|| e^(-ta)/(e t) is taken, in blocks of rows of ``_CHECK_ELEMENTS``
    values, and a block whose bound is not finite somewhere is refused at
    its first such measure's first such t, still before any moment.  The
    orbit norms ``lhs`` = exp(ln L / 2), with L(t) = integral (lambda + a)^2
    e^(2 t lambda) dmu, stay ``math.exp``, applied element by element, as
    numpy's vectorized exp rounds differently: on an AVX-512 host it differs
    from glibc's in 46,152 of 10^6 doubles drawn from [-700, 700], and would
    move the last bits of the CSV cells.  They read 0.0 where ln L <= -1400.

    Only the times that can hold a measure's maximum violation ``lhs - rhs``
    are evaluated, and every field is still bit for bit the full-grid scan's.
    The times are sorted (stably) and cut into cells of about sqrt(T) times:
    every such time and the last are the coarse times, evaluated for every
    measure.  ``best`` is a measure's largest violation found so far, at
    the least grid index that reaches it.  For a time t_i strictly inside
    the cell t0 < t1, theta = (t_i - t0)/(t1 - t0):

    * ln L is convex in t, as the log of a Laplace transform (Hoelder).  The
      kernel evaluates F(t) = ln sum_k exp(c_k - t d_k) for fixed doubles c_k
      and d_k >= 0, the log-sum-exp of affine functions of t, which is
      convex as well; a density's integral is convex up to its quadrature's
      error.  So ln L(t_i) <= ln L(t0) + theta (ln L(t1) - ln L(t0)), the
      chord, up to the roundings of the three values and of the chord.
    * delta = eps (1 + |ln L(t0)| + |ln L(t1)|) covers those roundings.
      Atomic: eps = 1e-9, and each kernel value is within about 8 ulp of
      max(|c_k|, t d_k), with |c_k| at most about 2200 for an atom and a
      weight inside the double range: 2e-12 + 2e-15 |ln L| at most, a
      100-fold margin (the tests measure under 1e-6 of delta).  Density:
      eps = 1e-5, ten times the 1e-6 relative error estimate the quadrature
      may return (it asks for ``_QUAD_RELTOL`` = 1e-12).
    * Where chord + delta <= -1400, lhs_i is the flushed 0.0, so the
      violation is 0.0 - rhs_i without its moment (not -rhs_i, which is
      -0.0 at rhs_i = 0.0).  Elsewhere lhs_i <= ub_i = exp((chord + delta)/2)
      (1 + 1e-12), the factor covering np.exp against math.exp, each within
      an ulp.
    * A measure takes the cell's moments only if ``ub_i - rhs_i < best``
      fails at some time i of it that is not flushed.  Rounded subtraction is
      monotone, so every other time has lhs_i - rhs_i < best <= the maximum:
      it neither reaches nor ties the maximum, and the least grid index
      reaching the maximum is the full scan's argmax.  Each value taken is
      the full scan's too, as a (measure, t) value of the stacked kernel
      depends on no other measure or time.
    * A bound that is not finite keeps its cell: an endpoint at
      ln L = -inf (a single atom exactly at -a, whose moment is 0, or
      2 d t overflowing at t1 alone, where the inner moments need not be
      0) gives a nan chord, and a repeated time a cell of zero width and a
      nan theta.  A grid of at most three times is all coarse.

    Each kept cell is one stacked kernel call, on the cell's inner times and
    the measures that keep it.  The default section3-bounds sweep (250
    measures of 20 atoms, 200 times) takes its 16 coarse times alone: 8% of
    the full grid's kernel terms.
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
    norms = [math.sqrt(mu_x.mass) for mu_x in mus]
    scales = bound_scale * np.array(norms)[:, None]
    a = np.array(shifts, dtype=float)[:, None]

    def bounds(rows=slice(None), cols=slice(None)):  # one expression, so the same bits
        with np.errstate(over="ignore", invalid="ignore"):
            return scales[rows] * np.exp(-ts[cols] * a[rows]) / (math.e * ts[cols])

    block = max(1, _CHECK_ELEMENTS // ts.size)
    for m in range(0, len(mus), block):
        bad = ~np.isfinite(bounds(slice(m, m + block)))
        if np.any(bad):  # name the first offending measure's first such t
            raise DomainError(f"the bound ||x|| e^(-ta)/(e t) is not finite at "
                              f"t = {float(ts[np.argwhere(bad)[0, 1]])!r}")
    # cells of about sqrt(T) times: a measure takes T/s coarse moments and the
    # few cells of s times near its maximum
    order = np.argsort(ts, kind="stable")
    ends = np.r_[np.arange(0, ts.size - 1, max(1, math.isqrt(ts.size))), ts.size - 1]
    best, worst = np.full(len(mus), -np.inf), np.zeros(len(mus), dtype=np.intp)

    def merge(rows, violations, cols):  # each row's max, at its least grid index
        value = np.max(violations, axis=1)
        index = np.min(np.where(violations == value[:, None], cols, cols.max()), axis=1)
        wins = (value > best[rows]) | ((value == best[rows]) & (index < worst[rows]))
        best[rows[wins]], worst[rows[wins]] = value[wins], index[wins]

    everyone = np.arange(len(mus))
    log_ends = _log_laplace_stack(mus, ts[order[ends]], shifts)
    merge(everyone, _orbit_norms(log_ends) - bounds(cols=order[ends]), order[ends])
    slack = np.array([1e-9 if isinstance(mu_x, AtomicMeasure) else 1e-5 for mu_x in mus])[:, None]
    with np.errstate(all="ignore"):  # a bound that is inf or nan keeps its cell
        rise = log_ends[:, 1:] - log_ends[:, :-1]
        base = log_ends[:, :-1] + slack * (1.0 + np.abs(log_ends[:, :-1]) + np.abs(log_ends[:, 1:]))
    for k in range(ends.size - 1):
        inner = order[ends[k] + 1 : ends[k + 1]]
        if inner.size == 0:
            continue
        t0, t1 = ts[order[ends[k]]], ts[order[ends[k + 1]]]
        rhs = bounds(cols=inner)
        with np.errstate(all="ignore"):
            log_cap = base[:, k : k + 1] + (ts[inner] - t0) / (t1 - t0) * rise[:, k : k + 1]
            flushed = log_cap <= -1400.0
            # a bound on each violation, and where lhs is flushed the violation itself:
            # 0.0 - rhs, as the full scan has it (not -rhs, which is -0.0 at rhs = 0.0)
            cap = np.where(flushed, 0.0, np.exp(0.5 * log_cap) * (1.0 + 1e-12)) - rhs
            reach = ~(cap < best[:, None])
        rows = np.flatnonzero(np.any(reach, axis=1))
        if rows.size == 0:
            continue
        unknown = np.any(reach[rows] & ~flushed[rows], axis=1)
        merge(rows[~unknown], cap[rows[~unknown]], inner)
        keep = rows[unknown]
        if keep.size:
            log_moment = _log_laplace_stack([mus[m] for m in keep], ts[inner],
                                            [shifts[m] for m in keep])
            merge(keep, _orbit_norms(log_moment) - rhs[keep], inner)
    return [BoundCheckValue(value, worst_t=worst_t, norm_x=norm_x, tol=1e-12 * norm_x,
                            n_t=ts.size)
            for norm_x, value, worst_t in zip(norms, best.tolist(), ts[worst].tolist())]


def _orbit_norms(log_moment: np.ndarray) -> np.ndarray:
    """exp(v / 2) of each log moment v, by ``math.exp`` in blocks of
    ``_CHECK_ELEMENTS`` values, flushed to 0.0 where v is not above -1400."""
    half = np.where(log_moment > -1400.0, 0.5 * log_moment, -np.inf).ravel()
    out = np.empty(half.size)
    for j in range(0, half.size, _CHECK_ELEMENTS):
        out[j : j + _CHECK_ELEMENTS] = list(map(math.exp, half[j : j + _CHECK_ELEMENTS].tolist()))
    return out.reshape(log_moment.shape)


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

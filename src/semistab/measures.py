"""Finite positive Borel measures on the closed left half-line (-inf, 0].

These measures act as spectral measures of negative self-adjoint
operators: the squared orbit norm of the generated contraction
semigroup is the Laplace transform

    ||exp(tA) x||^2 = integral exp(2 t lambda) dmu(lambda),

and the small-ball behaviour of mu near 0 controls the polynomial
decay of that transform.  Everything numerically delicate (atoms with
|position| far below the smallest positive double, weights as small as
exp(-20000)) is carried in natural-log coordinates throughout.

Two concrete representations are provided:

* :class:`AtomicMeasure` -- finitely many atoms, stored as
  ``(ln |position|, ln weight)`` pairs.
* :class:`DensityMeasure` -- an absolutely continuous part in the distance
  coordinate ``s = |lambda|``, given by its edge power and smooth factor
  alone: the density at ``s`` is ``sig**alg_power * smooth_factor(sig)``
  with ``sig = s - s_lo`` the distance from the inner edge.

Atoms have one Laplace kernel, ``_atomic_log_transform``, which works on
a stack of measures with the same atom count: one logsumexp row per
(measure, t), taken in cache-sized blocks of at most ``_CHUNK_ELEMENTS``
(measure, t, atom) terms, so any stack and any t grid run in bounded
memory.  A block is whole measures, or a t-range of one measure, its
doubled distances ``2 s`` broadcast against t into an (atoms, rows) array
whose longer axis is laid contiguous: with more rows than atoms (the
section3 sweep's blocks are 20 atoms by 800 rows) the max, the count of
maxima, the masking and exp run elementwise along contiguous rows.  It
keeps the bits of a row-by-row logsumexp: max and the count are exact in
any order, each elementwise op rounds per element, and each row's sum is
still taken along its contiguous atoms, through one transposed copy where
the rows were contiguous, so numpy's pairwise summation groups it alike.
``_log_laplace_stack`` groups a list of measures by atom count for it, and
``log_laplace`` and ``log_laplace_moment`` are its stack of one.

Densities have one log-domain integral, ``_log_integral``: the mass, a
ball mass of a density of no family and each t of the Laplace transform
are one call of it.  Its quadrature takes the endpoint-weighted rule only
at a singular edge and the plain adaptive rule otherwise, and refuses a
negative integral, the mark of a density negative between the points its
construction checks.  Every transform refuses a negative, NaN or infinite t.

Each density family (power law, monomial profile, uniform, sampled) is
declared once, in its constructor: the family's name, parameters, closed-form
log ball mass and exact mass ride on the measure as one private record,
which ``to_text``, ``log_ball_mass`` and ``mass`` read.  The tests check each
closed form and exact mass against the integral.  The linear-scale
accessors are the exp of the log quantities, through one overflow-safe
helper; only a family that states its exact mass (uniform, monomial
profile, power law) reports that in place of ``exp(log_mass)``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import KW_ONLY, dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DomainError, InvariantViolation, read_ascii, read_descriptor, write_ascii

__all__ = [
    "AtomicMeasure",
    "DensityMeasure",
    "ScalingExponentEstimate",
    "scaling_exponents",
    "lacunary_measure",
    "power_law_measure",
    "monomial_profile_measure",
    "uniform_measure",
    "sampled_density_measure",
    "measure_from_text",
    "save_measure",
    "load_measure",
]

# exp() overflows above ~709.78; atom moduli beyond that are not representable
_LOG_S_CAP = 709.0
# exp(-x) underflows to 0.0 for x > ~745; quadrature tail cut uses this
_TAIL_EXPONENT = 745.0
_QUAD_RELTOL = 1e-12
_QUAD_LIMIT = 200
# (measure, t, atom) terms per logsumexp block of the atomic Laplace kernel: a
# block of doubles is 128 KiB, so the block and its temporaries stay in cache.
# A block is an (atoms, rows) array with its longer axis contiguous, as numpy
# loops along the contiguous axis: against atoms-contiguous blocks, rows-
# contiguous ones took 38% less time at 20 atoms (819-row blocks), 16% less at
# 129 (127 rows), 6% more at 500 (32 rows), 27% more at 1000 and 2.6 times as
# long at 4000.  Either order gives the same bits (see the module docstring)
_CHUNK_ELEMENTS = 16_384


def _logsumexp(a: np.ndarray) -> np.ndarray:
    """ln sum exp(a) down each column of an (n, R) array, overwriting ``a``: R
    values, by scipy.special.logsumexp's algorithm (scipy 1.17) applied to
    each column, bit for bit, without importing scipy.special.

    The maxima are summed apart, as their count m, and the rest enter
    through ``log1p``: ``log1p(s / m) + ln m + max`` with s the sum of
    ``exp(a - max)`` over the other entries.  That is finite wherever the
    max is, as the log1p argument is at most n - 1; the other columns (all
    entries -inf, or an inf or nan entry) take ``ln sum exp(a)``.  Each sum
    runs along its column made contiguous (``a.T``, copied unless it already
    is), so numpy's pairwise summation groups it as it groups a 1-D array
    of the column.  Every other step is exact or elementwise, so ``a`` may
    be laid out in either order.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = np.max(a, axis=0)
        bad = ~np.isfinite(a_max)
        if np.any(bad):
            fallback = np.log(np.sum(np.exp(np.ascontiguousarray(a[:, bad].T)), axis=-1))
        top = a == a_max
        m = np.sum(top, axis=0, dtype=float)
        a -= a_max
        np.exp(a, out=a)
        np.copyto(a, 0.0, where=top)  # the maxima's exp(0) = 1 leave the sum: they are m
        s = np.sum(np.ascontiguousarray(a.T), axis=-1)
        out = np.log1p(np.where(s == 0, s, s / m)) + np.log(m) + a_max
        if np.any(bad):
            out[bad] = fallback
    return out


def _as_1d(values) -> tuple:
    """(values as a 1-D float array, whether the input was a scalar)."""
    arr = np.asarray(values, dtype=float)
    return np.atleast_1d(arr), arr.ndim == 0


def _times(t) -> tuple:
    """``_as_1d(t)`` for a Laplace transform, which takes only the semigroup's
    times: it refuses a negative, NaN or infinite t (-0.0 is 0)."""
    t_arr, scalar = _as_1d(t)
    if not np.all(np.isfinite(t_arr) & (t_arr >= 0.0)):
        raise DomainError("Laplace transform times t must be finite and >= 0")
    return t_arr, scalar


def _as_scalar_or_array(values: np.ndarray, scalar_input: bool):
    return float(values[0]) if scalar_input else values


# ---------------------------------------------------------------------------
# atomic measures
# ---------------------------------------------------------------------------


def _atoms(log_s: np.ndarray, log_w: np.ndarray) -> list:
    """Per row of (M, n) arrays of ln |position| and ln weight: the checked
    atoms of one measure as read-only ``(log_s, log_w, prefix)``, ordered by
    increasing log_s, exact duplicates merged by adding their weights, and
    ``prefix`` the running ln of the mass.  Rows run together along axis 1;
    a row with duplicates is merged on its own."""
    if np.any(np.isnan(log_s)) or np.any(log_s > _LOG_S_CAP):
        raise DomainError(
            "atom positions must satisfy |position| <= exp(709) and not be NaN"
        )
    if not np.all(np.isfinite(log_w)):
        raise DomainError("atom log-weights must be finite (weights > 0)")
    order = np.argsort(log_s, axis=1, kind="stable")
    log_s = np.take_along_axis(log_s, order, axis=1)
    log_w = np.take_along_axis(log_w, order, axis=1)
    prefix = np.logaddexp.accumulate(log_w, axis=1)
    for arr in (log_s, log_w, prefix):
        arr.setflags(write=False)
    rows = list(zip(log_s, log_w, prefix))
    for m in np.flatnonzero(np.any(log_s[:, 1:] == log_s[:, :-1], axis=1)):
        starts = np.flatnonzero(np.r_[True, log_s[m, 1:] != log_s[m, :-1]])
        merged = np.logaddexp.reduceat(log_w[m], starts)
        rows[m] = (log_s[m, starts], merged, np.logaddexp.accumulate(merged))
        for arr in rows[m]:
            arr.setflags(write=False)
    return rows


def _linear(log_val: float) -> float:
    """exp(log_val) on linear scale: inf past the double range, and 0.0 at or
    below -745, where exp would be subnormal or 0."""
    if not log_val > -_TAIL_EXPONENT:
        return 0.0
    try:
        return math.exp(log_val)
    except OverflowError:
        return math.inf


class _Measure:
    """The linear-scale accessors both representations read off their logs."""

    @property
    def mass(self) -> float:
        return _linear(self.log_mass)

    def ball_mass(self, eps: float) -> float:
        """mu({|lambda| < eps}) for eps > 0, as exp(log_ball_mass(ln eps))."""
        if not eps > 0.0:
            raise DomainError("ball radius must be positive")
        return _linear(float(self.log_ball_mass(math.log(eps))))


@dataclass(frozen=True)
class AtomicMeasure(_Measure):
    """Purely atomic finite measure on (-inf, 0] in log coordinates.

    Atoms are stored as ``(log_s, log_w)`` with ``s = |position|``, so
    positions far below the double-precision range (|position| around
    1e-2000 and smaller) stay exactly representable.  ``log_s = -inf``
    encodes an atom at 0.  Atoms are ordered by increasing ``log_s``,
    i.e. closest to 0 first; construction merges exact duplicates by
    adding their weights.
    """

    log_s: np.ndarray
    log_w: np.ndarray

    def __post_init__(self) -> None:
        log_s = np.array(self.log_s, dtype=float).ravel()
        log_w = np.array(self.log_w, dtype=float).ravel()
        if log_s.size == 0:
            raise DomainError("an atomic measure needs at least one atom")
        if log_s.shape != log_w.shape:
            raise DomainError("log_s and log_w must have the same length")
        self._set_atoms(*_atoms(log_s[None], log_w[None])[0])

    def _set_atoms(self, log_s: np.ndarray, log_w: np.ndarray, prefix: np.ndarray) -> None:
        object.__setattr__(self, "log_s", log_s)
        object.__setattr__(self, "log_w", log_w)
        object.__setattr__(self, "_prefix", prefix)

    # -- constructors -------------------------------------------------

    @classmethod
    def from_points(cls, positions: Sequence[float], weights: Sequence[float]) -> "AtomicMeasure":
        """Build from linear-scale atom positions (<= 0) and weights (> 0)."""
        pos = np.asarray(positions, dtype=float).ravel()
        wts = np.asarray(weights, dtype=float).ravel()
        return cls.stack_from_points(pos[None], wts[None])[0]

    @classmethod
    def stack_from_points(cls, positions, weights) -> list:
        """One measure per row of (M, n) arrays of linear-scale atom positions
        (<= 0) and weights (> 0), each checked, sorted and merged as
        ``from_points`` does; ``from_points`` is the stack of one."""
        pos = np.asarray(positions, dtype=float)
        wts = np.asarray(weights, dtype=float)
        if pos.ndim != 2 or pos.shape != wts.shape:
            raise DomainError("positions and weights must have the same length")
        if pos.shape[1] == 0:
            raise DomainError("an atomic measure needs at least one atom")
        if np.any(~np.isfinite(pos)) or np.any(pos > 0.0):
            raise DomainError("positions must be finite and <= 0")
        if np.any(~np.isfinite(wts)) or np.any(wts <= 0.0):
            raise DomainError("weights must be finite and > 0")
        with np.errstate(divide="ignore"):
            log_s = np.log(-pos)
        measures = []
        for atoms in _atoms(log_s, np.log(wts)):
            mu = object.__new__(cls)
            mu._set_atoms(*atoms)
            measures.append(mu)
        return measures

    # -- basic quantities ----------------------------------------------

    @property
    def n_atoms(self) -> int:
        return int(self.log_s.size)

    @property
    def s_lo(self) -> float:
        """Distance from 0 to the nearest atom (0.0 for an atom at 0)."""
        return float(np.exp(self.log_s[0]))

    @property
    def log_mass(self) -> float:
        return float(self._prefix[-1])

    @property
    def positions(self) -> np.ndarray:
        """Atom positions on linear scale (underflow to -0.0 is possible)."""
        return -np.exp(self.log_s)

    @property
    def weights(self) -> np.ndarray:
        """Atom weights on linear scale (may underflow for extreme atoms)."""
        return np.exp(self.log_w)

    # -- measure operations ---------------------------------------------

    def log_ball_mass(self, log_eps):
        """ln mu({|lambda| < eps}) for ln(eps) given; -inf for empty balls.

        Vectorized over ``log_eps``.  The ball is open, so an atom with
        ``log_s == log_eps`` is excluded.
        """
        arr, scalar = _as_1d(log_eps)
        if np.any(np.isnan(arr)):
            raise DomainError("log ball radius must not be NaN")
        idx = np.searchsorted(self.log_s, arr, side="left")
        out = np.where(idx > 0, self._prefix[np.maximum(idx - 1, 0)], -np.inf)
        return _as_scalar_or_array(out, scalar)

    def log_laplace(self, t):
        """ln of integral exp(2 t lambda) dmu(lambda); vectorized over t."""
        t_arr, scalar = _times(t)
        return _as_scalar_or_array(_log_laplace_stack([self], t_arr)[0], scalar)

    def log_laplace_moment(self, t, shift: float = 0.0):
        """ln of integral (lambda + shift)^2 exp(2 t lambda) dmu(lambda); vectorized over t."""
        t_arr, scalar = _times(t)
        return _as_scalar_or_array(_log_laplace_stack([self], t_arr, [shift])[0], scalar)

    # -- serialization ----------------------------------------------------

    def to_text(self) -> str:
        lines = [f"atomic n={self.n_atoms} coords=log mass={self.mass!r}"]
        for ls, lw in zip(self.log_s, self.log_w):
            lines.append(f"{float(ls)!r} {float(lw)!r}")
        return "\n".join(lines) + "\n"


def _atomic_log_transform(log_s: np.ndarray, log_coef: np.ndarray, t: np.ndarray) -> np.ndarray:
    """ln sum_k exp(log_coef[m, k] - 2 t_j s[m, k]) for a stack of M measures
    of n atoms each, given as (M, n) arrays: an (M, T) array.

    The M T logsumexp rows, in (measure, t) order, run in blocks of at most
    ``_CHUNK_ELEMENTS`` terms: whole measures when a measure's T rows fit,
    else t-ranges of one measure.  Memory stays bounded, and no value
    depends on the block size or on the other measures of the stack.  A
    stack is never padded to a common atom count: padding would change how
    numpy groups each row's sum, and so its last bits.
    """
    rows = max(1, _CHUNK_ELEMENTS // log_s.shape[1])
    t_rows = min(t.size, rows) or 1  # t per block
    m_rows = max(1, rows // t_rows)  # measures per block
    # the distance is doubled, not t: 2 s stays finite (s <= e^709) where 2 t
    # overflows past 9e307, so an atom at 0 gives 0 t = 0, never 0 inf = nan;
    # sub-double moduli round to 0.0, which is exact here
    two_s = 2.0 * np.exp(log_s)
    out = np.empty((log_s.shape[0], t.size))
    for m in range(0, out.shape[0], m_rows):
        for j in range(0, t.size, t_rows):
            out[m : m + m_rows, j : j + t_rows] = _block_log_transform(
                two_s[m : m + m_rows], log_coef[m : m + m_rows], t[j : j + t_rows])
    return out


def _block_log_transform(two_s: np.ndarray, log_coef: np.ndarray, t: np.ndarray) -> np.ndarray:
    """One block of ``_atomic_log_transform``: ln sum_k exp(log_coef[m, k] -
    t[j] two_s[m, k]) for (mb, n) arrays ``two_s`` and ``log_coef``, an
    (mb, T) array, reduced from one (n, mb T) array of terms.  Its longer
    axis is laid contiguous, so numpy's loops run along it: the rows when
    there are more rows than atoms, else the atoms."""
    (mb, n), n_t = two_s.shape, t.size
    terms = (np.empty((n, mb, n_t)) if mb * n_t >= n
             else np.empty((mb, n_t, n)).transpose(2, 0, 1))
    with np.errstate(over="ignore"):  # 2 s t = inf is an exact zero term
        np.multiply(two_s.T[:, :, None], t, out=terms)
        np.subtract(log_coef.T[:, :, None], terms, out=terms)
    return _logsumexp(terms.reshape(n, mb * n_t)).reshape(mb, n_t)


def _log_laplace_stack(mus: Sequence, t: np.ndarray, shifts: Optional[Sequence[float]] = None):
    """Row m: ``mus[m].log_laplace(t)``, or with ``shifts`` its
    ``log_laplace_moment(t, shifts[m])``; an (M, T) array for a 1-D ``t``.

    The atomic measures run through one ``_atomic_log_transform`` call per
    atom count; each density takes its own quadratures.
    """
    parts, groups = [], {}  # parts: (row indices, their rows)
    for m, mu in enumerate(mus):
        if isinstance(mu, AtomicMeasure):
            groups.setdefault(mu.n_atoms, []).append(m)
        else:
            row = mu.log_laplace(t) if shifts is None else mu.log_laplace_moment(t, shifts[m])
            parts.append(([m], row))
    for idx in groups.values():
        log_s = np.stack([mus[m].log_s for m in idx])
        log_coef = np.stack([mus[m].log_w for m in idx])
        if shifts is not None:
            a = np.array([float(shifts[m]) for m in idx])[:, None]
            with np.errstate(divide="ignore"):
                log_coef = log_coef + np.where(a == 0.0, 2.0 * log_s,
                                               2.0 * np.log(np.abs(a - np.exp(log_s))))
        parts.append((idx, _atomic_log_transform(log_s, log_coef, t)))
    if len(parts) == 1:  # one stack holds every measure, in order: no copy needed
        return parts[0][1].reshape(len(mus), t.size)
    out = np.empty((len(mus), t.size))
    for idx, rows in parts:
        out[idx] = rows
    return out


# ---------------------------------------------------------------------------
# density measures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DensityMeasure(_Measure):
    """Absolutely continuous measure in the distance coordinate s = |lambda|.

    The support is an interval ``[s_lo, s_hi]`` with ``0 <= s_lo < s_hi``.
    The density with respect to ds at ``s = s_lo + sig`` is
    ``sig**alg_power * smooth_factor(sig)``; ``smooth_factor`` is required,
    keyword-only like every field after ``s_hi``, and read one float offset
    at a time.  A singular factor (``alg_power < 0``) routes all quadrature
    through the endpoint-weighted rule; a vanishing one is a factor of the
    integrand of the plain adaptive rule.  Construction refuses a
    ``smooth_factor`` that is not finite, or below ``-1e-12`` times its
    largest magnitude, at 32 offsets.

    The quadrature sees the density only at its nodes and at ``quad_breaks``,
    so a feature narrower than the nodes' spacing must be given as a break.
    ``1 + 254 exp(-((s - 0.3)/1e-3)^2)`` on [0, 1] builds with mass 1.0, its
    peak missed; with ``quad_breaks=[0.3]`` its mass matches the erf closed
    form 1.450203278130001 to 2e-15.

    ``log_mass``, ln of the total mass, is integrated once on construction,
    and ``log_ball_mass`` integrates the density.  A measure built by one of
    the family constructors (``power_law_measure`` and the rest) carries its
    family's record, ``_family = (kind, params, log_ball, exact_mass)``: the
    family's name and parameters, which ``to_text`` writes, its closed-form
    log ball mass, which ``log_ball_mass`` and ``ball_mass`` then read in
    place of the integral, and its exact linear mass or None, which ``mass``
    then returns in place of ``exp(log_mass)`` (a few ulp off).  The closed
    forms are checked against the integral in the tests, not on construction.
    """

    s_lo: float
    s_hi: float
    _: KW_ONLY
    smooth_factor: Callable[[float], float]
    alg_power: float = 0.0
    quad_breaks: Optional[np.ndarray] = None

    _family = None  # not a field: only the family constructors set it

    def __post_init__(self) -> None:
        if not (0.0 <= self.s_lo < self.s_hi < math.inf):
            raise DomainError("support must satisfy 0 <= s_lo < s_hi < inf")
        if not self.alg_power > -1.0:
            raise DomainError("alg_power must be > -1 for an integrable edge")
        width = self.s_hi - self.s_lo
        sig = width * np.linspace(0.07, 0.93, 32)
        vals = np.array([float(self.smooth_factor(x)) for x in sig.tolist()])
        # sig**alg_power > 0, so the density's sign is h's; h may round below 0
        # by 1e-12 of its largest value, whatever its scale
        if not np.all(np.isfinite(vals) & (vals >= -1e-12 * np.max(np.abs(vals)))):
            raise InvariantViolation("density must be finite and nonnegative on the support")
        log_mass = self._log_integral(width, math.log(width), 1.0)
        if not math.isfinite(log_mass):
            raise InvariantViolation("total mass must be finite and positive")
        object.__setattr__(self, "log_mass", log_mass)

    @property
    def kind(self) -> str:
        """The family's name, or ``density`` for a density of no family."""
        return "density" if self._family is None else self._family[0]

    @property
    def mass(self) -> float:
        exact = None if self._family is None else self._family[3]
        return _linear(self.log_mass) if exact is None else exact

    # -- quadrature core ---------------------------------------------------

    def _points(self, scale: float, upper: float):
        """The density's breaks as u = (s - s_lo) / scale inside (0, upper), or None."""
        if self.quad_breaks is None:
            return None
        # scale 0.0 or subnormal: no break inside
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            inner = (self.quad_breaks - self.s_lo) / scale
        inner = inner[(inner > 0.0) & (inner < upper)]
        return inner if inner.size else None

    def _log_integral(self, scale: float, log_scale: float, upper: float,
                      weighted: Callable[[float, float], float] = lambda u, h: h) -> float:
        """(alg + 1) ln scale + ln integral_0^upper u^alg weighted(u, h(scale u)) du,
        the one integral behind every density quantity (``weighted(u, h)`` is h
        times a weight in u).  ln scale is passed apart from scale, so a scale
        below double range (0.0) keeps its log; h(scale u) is then h(0).
        """
        smooth = self.smooth_factor
        f = lambda u: weighted(u, float(smooth(scale * u)))
        val = self._quad(f, upper, self._points(scale, upper))
        with np.errstate(divide="ignore"):
            return (self.alg_power + 1.0) * log_scale + float(np.log(val))

    def _quad(self, f: Callable[[float], float], upper: float, points) -> float:
        """integral_0^upper sig^alg f(sig) dsig, alg = alg_power.  A singular
        edge (alg < 0) takes the endpoint-weighted rule; otherwise sig^alg is a
        factor of the integrand, which the plain rule integrates with ``points``
        as breaks."""
        # imported at its only use: scipy.integrate (with scipy.optimize,
        # scipy.spatial and scipy.fft behind it) would otherwise slow every
        # start, and runs without a density never need it
        from scipy import integrate

        alg = self.alg_power
        rule = dict(weight="alg", wvar=(alg, 0.0)) if alg < 0.0 else dict(points=points)
        g = f if alg <= 0.0 else lambda u: u ** alg * f(u)
        # roundoff warnings on extreme-decay integrands are expected; accuracy
        # is policed through the returned error estimate instead
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", integrate.IntegrationWarning)
            try:
                val, err = integrate.quad(g, 0.0, upper, epsabs=0.0, epsrel=_QUAD_RELTOL,
                                          limit=_QUAD_LIMIT, **rule)
            except OverflowError:  # u^alg past the double range, refused below
                val = err = math.inf
        if not math.isfinite(val) or (val != 0.0 and abs(err) > 1e-6 * abs(val)):
            raise InvariantViolation(
                f"quadrature did not converge (value {val!r}, error estimate {err!r})"
            )
        if val < 0.0:  # its log would be NaN
            raise InvariantViolation(f"the density integrates to {val!r} < 0: it is "
                                     f"negative on part of the support")
        return float(val)

    # -- measure operations ---------------------------------------------

    def log_ball_mass(self, log_eps):
        arr, scalar = _as_1d(log_eps)
        if np.any(np.isnan(arr)):
            raise DomainError("log ball radius must not be NaN")
        if self._family is not None:
            out = np.asarray(self._family[2](arr), dtype=float)
        else:
            out = np.array([self._log_ball_mass_by_quad(float(le)) for le in arr])
        return _as_scalar_or_array(out, scalar)

    def _log_ball_mass_by_quad(self, le: float) -> float:
        """ln of the mass of [s_lo, eps), eps = exp(le): the integral over
        sig = r u, u in [0, 1], with r = eps - s_lo and ln r = le when s_lo = 0."""
        r = float(np.exp(le)) - self.s_lo
        if r >= self.s_hi - self.s_lo:
            return self.log_mass
        if self.s_lo == 0.0:
            return self._log_integral(r, le, 1.0)
        return self._log_integral(r, math.log(r), 1.0) if r > 0.0 else -math.inf

    def log_laplace(self, t):
        """ln integral exp(2 t lambda) dmu; vectorized over t."""
        return self._log_transform(t, None)

    def log_laplace_moment(self, t, shift: float = 0.0):
        """ln integral (lambda + shift)^2 exp(2 t lambda) dmu; vectorized over t."""
        return self._log_transform(t, shift)

    def _log_transform(self, t, moment_shift: Optional[float]):
        """One integral per t, over u = sig / scale in [0, U], with
        scale = min(1/(2t), s_hi - s_lo) and U = min((s_hi - s_lo) / scale, 745).

        The integrand u^alg h(scale u) e^{-2 t scale u} then decays at rate at
        most 1 over a range of at least 1, so it neither underflows nor
        overflows; e^{-2 t s_lo} is carried in log.  A moment's factor
        (c - scale u)^2, c = shift - s_lo, is divided by m^2 with
        m = max(|c|, scale), which keeps it in [0, (1 + U)^2].
        """
        t_arr, scalar = _times(t)
        width = self.s_hi - self.s_lo
        out = np.empty(t_arr.shape)
        for i, ti in enumerate(t_arr.tolist()):
            if 2.0 * ti * width > 1.0:
                scale, rate, log_scale = 0.5 / ti, 1.0, -math.log(2.0) - math.log(ti)
            else:
                scale, rate, log_scale = width, 2.0 * ti * width, math.log(width)
            log_front = -(ti * (2.0 * self.s_lo))  # 2 t overflows past 9e307
            if moment_shift is None:
                weighted = lambda u, h: h * math.exp(-rate * u)
            else:
                c = moment_shift - self.s_lo
                m = max(abs(c), scale)
                a, b = c / m, scale / m
                weighted = lambda u, h: h * (a - b * u) ** 2 * math.exp(-rate * u)
                log_front += 2.0 * math.log(m)
            upper = min(width / scale, _TAIL_EXPONENT)
            out[i] = log_front + self._log_integral(scale, log_scale, upper, weighted)
        return _as_scalar_or_array(out, scalar)

    # -- serialization ----------------------------------------------------

    def to_text(self) -> str:
        if self._family is None:
            raise DomainError(f"a density of kind {self.kind!r} has no measure file format; "
                              f"only the families {sorted(set(_FAMILIES) - {'atomic'})} do")
        kind, params = self._family[:2]
        lines = [f"density kind={kind} support={self.s_lo!r},{self.s_hi!r} mass={self.mass!r}"]
        if kind == "sampled-density":
            lines.append(f"n={len(params['grid'])}")
            for s, v in zip(params["grid"], params["values"]):
                lines.append(f"{float(s)!r} {float(v)!r}")
        else:
            for key, val in sorted(params.items()):
                lines.append(f"{key}={float(val)!r}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# constructors for the standard density families
# ---------------------------------------------------------------------------


def _family_measure(family: tuple, **fields) -> DensityMeasure:
    """The density of ``fields`` carrying ``family``, its record
    ``(kind, params, log_ball, exact_mass)`` (see :class:`DensityMeasure`)."""
    mu = DensityMeasure(**fields)
    object.__setattr__(mu, "_family", family)
    return mu


def power_law_measure(gamma: float) -> DensityMeasure:
    """Measure on [0, 1] with the exact ball-mass law mu(B(0,eps)) = eps**gamma.

    The density is gamma * s**(gamma-1); the closed-form log ball mass
    gamma * min(ln eps, 0) is exact at every scale.
    """
    if not (gamma > 0.0 and math.isfinite(gamma)):
        raise DomainError("gamma must be positive and finite")
    g = float(gamma)
    # the density is held as g s^alg with alg = g - 1 rounded, so its mass is
    # g / (alg + 1), not the stated 1, where that rounding moves alg + 1 off g
    # (below about 6e-5 by more than 1e-12 g); gamma <= 2^-54 rounds alg to -1
    if abs((g - 1.0) + 1.0 - g) > 1e-12 * g:
        raise DomainError(f"gamma={g!r} is too small: its edge power gamma - 1 rounds to "
                          f"{g - 1.0!r}, which moves the mass by more than 1e-12")
    return _family_measure(
        ("power-law", {"gamma": g},
         lambda le: g * np.minimum(np.asarray(le, dtype=float), 0.0), 1.0),
        s_lo=0.0,
        s_hi=1.0,
        alg_power=g - 1.0,
        smooth_factor=lambda sig: g,
    )


def monomial_profile_measure(delta: float) -> DensityMeasure:
    """Measure with density s**(2 delta) on [0, 1].

    This is the spectral measure of the vector with profile y**delta
    (restricted to [0, 1]) under the multiplication generator
    ``(Mu)(y) = -y u(y)``; the ball mass is eps**(2 delta + 1) / (2 delta + 1)
    for eps <= 1.
    """
    if not (delta > 0.0 and math.isfinite(delta)):
        raise DomainError("delta must be positive and finite")
    d = float(delta)
    p = 2.0 * d + 1.0
    return _family_measure(
        ("monomial-profile", {"delta": d}, lambda le: p * np.minimum(le, 0.0) - math.log(p),
         1.0 / p),
        s_lo=0.0,
        s_hi=1.0,
        alg_power=2.0 * d,
        smooth_factor=lambda sig: 1.0,
    )


def uniform_measure(s_lo: float, s_hi: float, height: float = 1.0) -> DensityMeasure:
    """Constant density ``height`` on [s_lo, s_hi] in the distance coordinate."""
    if height <= 0.0 or not math.isfinite(height):
        raise DomainError("height must be positive and finite")
    lo, hi, h = float(s_lo), float(s_hi), float(height)

    def _log_ball(le):
        le = np.asarray(le, dtype=float)
        if lo == 0.0:
            # ln(h eps) in log space, so radii below double range keep their mass
            return math.log(h) + np.minimum(le, math.log(hi))
        with np.errstate(divide="ignore"):
            return np.log(h * np.maximum(np.minimum(np.exp(le), hi) - lo, 0.0))

    return _family_measure(("uniform", {"height": h}, _log_ball, h * (hi - lo)), s_lo=lo, s_hi=hi,
                           smooth_factor=lambda sig: h)


def sampled_density_measure(s_grid: Sequence[float], values: Sequence[float]) -> DensityMeasure:
    """Piecewise-linear density through the given (s, value) samples."""
    grid = np.asarray(s_grid, dtype=float).ravel()
    vals = np.asarray(values, dtype=float).ravel()
    if grid.size != vals.size or grid.size < 2:
        raise DomainError("need matching sample arrays with at least 2 points")
    if np.any(np.diff(grid) <= 0.0):
        raise DomainError("sample grid must be strictly increasing")
    if grid[0] < 0.0:
        raise DomainError("sample grid must lie in s >= 0")
    if np.any(vals < 0.0) or np.any(~np.isfinite(vals)):
        raise InvariantViolation("density samples must be finite and nonnegative")
    # cumulative trapezoid at the nodes = exact integral of the interpolant
    with np.errstate(over="ignore"):
        cum = np.concatenate([[0.0], np.cumsum(0.5 * (vals[1:] + vals[:-1]) * np.diff(grid))])
    if not math.isfinite(cum[-1]):
        raise InvariantViolation("density samples must have a finite total mass")

    def _ball(eps: float) -> float:
        if eps <= grid[0]:
            return 0.0
        if eps >= grid[-1]:
            return float(cum[-1])
        j = int(np.searchsorted(grid, eps, side="right") - 1)
        ds = eps - grid[j]
        v_eps = vals[j] + (vals[j + 1] - vals[j]) * ds / (grid[j + 1] - grid[j])
        return float(cum[j] + 0.5 * (vals[j] + v_eps) * ds)

    def _log_ball(le):
        le = np.asarray(le, dtype=float)
        with np.errstate(divide="ignore"):
            out = np.log([_ball(eps) for eps in np.exp(le).ravel()]).reshape(le.shape)
            if grid[0] == 0.0:
                # mass eps (v0 + slope eps / 2) on the first segment, in log
                # space so radii below double range keep their mass
                slope = (vals[1] - vals[0]) / grid[1]
                edge = (le + np.log(vals[0] + 0.5 * slope * np.exp(le)) if vals[0] > 0.0
                        else 2.0 * le + np.log(0.5 * slope))
                out = np.where(le < math.log(grid[1]), edge, out)
        return out

    # the quadratures read the density at sig = s - grid[0]: at large t they see
    # only sig ~ 1/t, which grid[0] + sig would round away
    offsets = grid - grid[0]
    return _family_measure(
        ("sampled-density", {"grid": grid, "values": vals}, _log_ball, None),
        s_lo=float(grid[0]),
        s_hi=float(grid[-1]),
        smooth_factor=lambda sig: np.interp(sig, offsets, vals),
        quad_breaks=grid,
    )


def lacunary_measure(scale_base: float, exponents: Sequence[float], n_atoms: int) -> AtomicMeasure:
    """Atomic measure with super-geometrically spaced atoms accumulating at 0.

    Atoms sit at positions ``-(b ** 2**k)`` for ``k = 1..n_atoms`` with
    ``b = scale_base``; atom ``k`` gets raw weight ``|position_k| ** e_k``
    and the weights are normalized to total mass 1.  An ``exponents``
    list shorter than ``n_atoms`` is repeated cyclically.  All
    arithmetic happens in the log domain, so the construction is exact
    far beyond double-precision range (the acceptance-scale instance
    has |position| down to 2**-4096).
    """
    if not (0.0 < scale_base < 1.0):
        raise DomainError("scale_base must lie in (0, 1)")
    if n_atoms < 1:
        raise DomainError("n_atoms must be >= 1")
    if n_atoms > 900:
        raise DomainError("n_atoms above 900 exceeds the exponent range of 2.0**k")
    exps = np.asarray(exponents, dtype=float).ravel()
    if exps.size == 0:
        raise DomainError("exponents must be a nonempty list")
    if np.any(exps <= 0.0) or np.any(~np.isfinite(exps)):
        raise DomainError("exponents must be positive and finite")
    exps = np.resize(exps, n_atoms)
    ks = np.arange(1, n_atoms + 1, dtype=float)
    log_s = (2.0 ** ks) * math.log(scale_base)
    log_w = exps * log_s
    log_w = log_w - _logsumexp(log_w[:, None].copy())[0]
    return AtomicMeasure(log_s=log_s, log_w=log_w)


# ---------------------------------------------------------------------------
# scaling exponents at 0
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScalingExponentEstimate:
    """Finite-window estimate of the scaling exponents of mu at 0.

    ``d_minus``/``d_plus`` are the min/max of the two-point log-log
    increments of the ball mass between consecutive scales of the
    geometric grid; increments cancel constant prefactors in the
    ball-mass law exactly, which per-scale ratios do not.  The raw
    per-scale ratios ``ln mu(B(0,eps_j)) / ln eps_j`` are kept in
    ``ratios`` (and as ``per_scale_ratios`` pairs) so callers can
    inspect convergence.  Scales with an empty ball contribute +inf to
    both estimates and to their ratio; ``convention_branch`` records
    whether that convention fired anywhere in the window.
    """

    d_minus: float
    d_plus: float
    log_scale_range: tuple
    n_scales: int
    log_eps: np.ndarray
    log_ball: np.ndarray
    slopes: np.ndarray
    ratios: np.ndarray
    convention_branch: bool

    def __post_init__(self) -> None:
        if not self.d_minus <= self.d_plus:
            raise InvariantViolation("d_minus must not exceed d_plus")
        for arr in (self.log_eps, self.log_ball, self.slopes, self.ratios):
            np.asarray(arr).setflags(write=False)

    @property
    def per_scale_ratios(self):
        """List of (eps_j, ratio_j); eps_j underflows to 0.0 below 1e-308."""
        return [(float(np.exp(le)), float(r)) for le, r in zip(self.log_eps, self.ratios)]


def scaling_exponents(
    mu,
    eps_min: Optional[float] = None,
    eps_max: Optional[float] = None,
    n_scales: int = 20,
    *,
    log_window: Optional[tuple] = None,
) -> ScalingExponentEstimate:
    """Estimate the lower/upper scaling exponents of ``mu`` at 0.

    The window may be given on linear scale (``0 < eps_min < eps_max < 1``)
    or, for scales below double-precision range, directly as natural
    logs via ``log_window=(ln eps_min, ln eps_max)``.
    """
    if int(n_scales) != n_scales or n_scales < 2:
        raise DomainError("n_scales must be an integer >= 2")
    n_scales = int(n_scales)
    if log_window is not None:
        lmin, lmax = float(log_window[0]), float(log_window[1])
        if not (lmin < lmax < 0.0) or not math.isfinite(lmin):
            raise DomainError("log window must satisfy -inf < lmin < lmax < 0")
    else:
        if eps_min is None or eps_max is None:
            raise DomainError("either a linear window or log_window is required")
        if not (0.0 < eps_min < eps_max < 1.0):
            raise DomainError("window must satisfy 0 < eps_min < eps_max < 1")
        lmin, lmax = math.log(eps_min), math.log(eps_max)
    log_eps = np.linspace(lmin, lmax, n_scales)
    log_ball = np.atleast_1d(np.asarray(mu.log_ball_mass(log_eps), dtype=float))
    ratios = log_ball / log_eps  # log_eps < 0; -inf/neg = +inf, no NaN
    with np.errstate(invalid="ignore"):
        slopes = np.diff(log_ball) / np.diff(log_eps)
    slopes = np.where(np.isnan(slopes), np.inf, slopes)  # empty-to-empty scales
    return ScalingExponentEstimate(
        d_minus=float(np.min(slopes)),
        d_plus=float(np.max(slopes)),
        log_scale_range=(lmin, lmax),
        n_scales=n_scales,
        log_eps=log_eps,
        log_ball=log_ball,
        slopes=slopes,
        ratios=ratios,
        convention_branch=bool(np.any(np.isneginf(log_ball))),
    )


# ---------------------------------------------------------------------------
# plain-text serialization
# ---------------------------------------------------------------------------


def _number(text: str, what: str, cast=float):
    try:
        return cast(text)
    except ValueError:
        raise DomainError(f"{what} must be a number, got {text!r}") from None


def _field(entries: dict, key: str, cast=float):
    """entries[key] parsed by ``cast``; DomainError when missing or malformed."""
    if key not in entries:
        raise DomainError(f"the measure needs its {key}= line or header entry")
    return _number(entries[key], key, cast)


def _pairs(entries: dict, rows: Sequence[str], what: str) -> tuple:
    """Two float columns from the ``n`` rows of two numbers each."""
    n = _field(entries, "n", int)
    if len(rows) != n:
        raise DomainError(f"expected {n} {what} lines, found {len(rows)}")
    cols = np.empty((2, n))
    for i, line in enumerate(rows):
        parts = line.split()
        if len(parts) != 2:
            raise DomainError(f"malformed {what} line: {line!r}")
        cols[:, i] = [_number(part, f"{what} line {line!r}") for part in parts]
    return cols[0], cols[1]


def _support(text: str) -> tuple:
    lo, comma, hi = text.partition(",")
    if not comma:
        raise DomainError(f"support must read lo,hi, got {text!r}")
    return _number(lo, "support"), _number(hi, "support")


_DENSITY = {"kind", "support", "mass"}
#: each measure family: the entries it takes, and its constructor from them and the rows
_FAMILIES = {
    "atomic": ({"n", "coords", "mass"}, lambda e, rows: AtomicMeasure(*_pairs(e, rows, "atom"))),
    "power-law": (_DENSITY | {"gamma"}, lambda e, rows: power_law_measure(_field(e, "gamma"))),
    "monomial-profile": (_DENSITY | {"delta"},
                         lambda e, rows: monomial_profile_measure(_field(e, "delta"))),
    "uniform": (_DENSITY | {"height"}, lambda e, rows: uniform_measure(
        *_support(_field(e, "support", str)), _number(e.get("height", "1"), "height"))),
    "sampled-density": (_DENSITY | {"n"},
                        lambda e, rows: sampled_density_measure(*_pairs(e, rows, "sample"))),
}


def measure_from_text(text: str):
    """Parse a measure file: ``atomic`` or ``density kind=<family>``.

    Each family takes exactly its ``_FAMILIES`` entries.  ``mass`` and
    ``support`` restate the measure; when given, they must match the
    loaded one (``support`` exactly, ``mass`` to 1e-9 relative).
    """
    tag, entries, rows = read_descriptor(text, "measure")
    if tag not in ("atomic", "density"):
        raise DomainError(f"unknown measure kind: {tag!r}")
    family = entries.get("kind") if tag == "density" else tag
    if family not in _FAMILIES or (tag == "density" and family == "atomic"):
        raise DomainError(f"unknown density kind: {family!r}")
    own, build = _FAMILIES[family]
    unknown = sorted(set(entries) - own)
    if unknown:
        raise DomainError(f"{family} measure: unknown entries {unknown}")
    if rows and "n" not in own:
        raise DomainError(f"malformed {family} measure line: {rows[0]!r}")
    if entries.get("coords", "log") != "log":
        raise DomainError("unsupported atomic coordinate encoding")
    try:
        mu = build(entries, rows)
    except InvariantViolation as exc:  # parsed values are input, so a refused build is bad input
        raise DomainError(f"{family} measure: {exc}") from None
    if "support" in entries and _support(entries["support"]) != (mu.s_lo, mu.s_hi):
        raise DomainError(f"support={entries['support']} disagrees with the loaded "
                          f"support [{mu.s_lo!r}, {mu.s_hi!r}]")
    if "mass" in entries and not math.isclose(_number(entries["mass"], "mass"), mu.mass,
                                              rel_tol=1e-9):
        raise DomainError(f"mass={entries['mass']} disagrees with the loaded mass {mu.mass!r}")
    return mu


def save_measure(mu, path) -> None:
    write_ascii(path, mu.to_text())  # a refused measure leaves the file as it was


def load_measure(path):
    return measure_from_text(read_ascii(path))

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
* :class:`DensityMeasure` -- an absolutely continuous part with a
  pointwise-evaluable density in the distance coordinate ``s = |lambda|``.

Each kind has one Laplace kernel, ``_log_transform``, vectorized over t,
behind both ``log_laplace`` and ``log_laplace_moment``: one logsumexp row
per t for atoms, taken in blocks of at most ``_CHUNK_ELEMENTS`` (t, atom)
terms so any t grid runs in bounded memory, and one quadrature per t for
densities.

Free functions (:func:`ball_mass`, :func:`scaling_exponents`,
:func:`laplace_norm_sq`, :func:`laplace_moment`) accept either kind.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DomainError, InvariantViolation, read_ascii, read_descriptor

__all__ = [
    "AtomicMeasure",
    "DensityMeasure",
    "ScalingExponentEstimate",
    "ball_mass",
    "log_ball_mass",
    "scaling_exponents",
    "laplace_norm_sq",
    "laplace_moment",
    "lacunary_measure",
    "power_law_measure",
    "monomial_profile_measure",
    "uniform_measure",
    "sampled_density_measure",
    "measure_to_text",
    "measure_from_text",
    "save_measure",
    "load_measure",
]

# exp() overflows above ~709.78; atom moduli beyond that are not representable
_LOG_S_CAP = 709.0
# exp(-x) underflows to 0.0 for x > ~745; quadrature tail cut uses this
_TAIL_EXPONENT = 745.0
# ln of the smallest normal double; ball radii below it are subnormal or 0
_LOG_DBL_MIN = math.log(sys.float_info.min)
_QUAD_RELTOL = 1e-12
_QUAD_LIMIT = 200
# (t, atom) terms per logsumexp block of the atomic Laplace kernel
_CHUNK_ELEMENTS = 262_144


def _logsumexp(a: np.ndarray):
    """ln sum exp(a) along the last axis, by scipy.special.logsumexp's algorithm
    (scipy 1.17), bit for bit, without importing scipy.special.

    The maxima are summed apart, as their count m, and the rest enter
    through ``log1p``: ``log1p(s / m) + ln m + max`` with s the sum of
    ``exp(a - max)`` over the other entries.  Where that is not finite (all
    entries -inf, or an inf or nan entry) the result is ``ln sum exp(a)``.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = np.max(a, axis=-1, keepdims=True)
        top = a == a_max
        m = np.sum(top, axis=-1, keepdims=True, dtype=float)
        s = np.sum(np.exp(np.where(top, -np.inf, a) - a_max), axis=-1, keepdims=True)
        out = (np.log1p(np.where(s == 0, s, s / m)) + np.log(m) + a_max)[..., 0]
        bad = ~np.isfinite(out)
        if np.any(bad):
            out = np.where(bad, np.log(np.sum(np.exp(a), axis=-1)), out)
    return out[()]


def _as_1d(values) -> tuple:
    """(values as a 1-D float array, whether the input was a scalar)."""
    arr = np.asarray(values, dtype=float)
    return np.atleast_1d(arr), arr.ndim == 0


def _as_scalar_or_array(values: np.ndarray, scalar_input: bool):
    return float(values[0]) if scalar_input else values


# ---------------------------------------------------------------------------
# atomic measures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AtomicMeasure:
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
        if np.any(np.isnan(log_s)) or np.any(log_s > _LOG_S_CAP):
            raise DomainError(
                "atom positions must satisfy |position| <= exp(709) and not be NaN"
            )
        if not np.all(np.isfinite(log_w)):
            raise DomainError("atom log-weights must be finite (weights > 0)")
        order = np.argsort(log_s, kind="stable")
        log_s = log_s[order]
        log_w = log_w[order]
        keep = np.ones(log_s.size, dtype=bool)
        keep[1:] = log_s[1:] != log_s[:-1]
        if not np.all(keep):
            starts = np.flatnonzero(keep)
            log_w = np.logaddexp.reduceat(log_w, starts)
            log_s = log_s[starts]
        prefix = np.logaddexp.accumulate(log_w)
        for arr in (log_s, log_w, prefix):
            arr.setflags(write=False)
        object.__setattr__(self, "log_s", log_s)
        object.__setattr__(self, "log_w", log_w)
        object.__setattr__(self, "_prefix", prefix)

    # -- constructors -------------------------------------------------

    @classmethod
    def from_points(cls, positions: Sequence[float], weights: Sequence[float]) -> "AtomicMeasure":
        """Build from linear-scale atom positions (<= 0) and weights (> 0)."""
        pos = np.asarray(positions, dtype=float).ravel()
        wts = np.asarray(weights, dtype=float).ravel()
        if pos.size != wts.size:
            raise DomainError("positions and weights must have the same length")
        if pos.size == 0:
            raise DomainError("an atomic measure needs at least one atom")
        if np.any(~np.isfinite(pos)) or np.any(pos > 0.0):
            raise DomainError("positions must be finite and <= 0")
        if np.any(~np.isfinite(wts)) or np.any(wts <= 0.0):
            raise DomainError("weights must be finite and > 0")
        with np.errstate(divide="ignore"):
            log_s = np.log(-pos)
        return cls(log_s=log_s, log_w=np.log(wts))

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
    def mass(self) -> float:
        try:
            return math.exp(self.log_mass)
        except OverflowError:  # finite weights can still sum beyond double range
            return math.inf

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

    def ball_mass(self, eps: float) -> float:
        if not eps > 0.0:
            raise DomainError("ball radius must be positive")
        return float(math.exp(self.log_ball_mass(math.log(eps))))

    def log_laplace(self, t):
        """ln of integral exp(2 t lambda) dmu(lambda); vectorized over t."""
        return self._log_transform(t, self.log_w)

    def log_laplace_moment(self, t, shift: float = 0.0):
        """ln of integral (lambda + shift)^2 exp(2 t lambda) dmu(lambda); vectorized over t."""
        if shift == 0.0:
            log_amp = 2.0 * self.log_s
        else:
            with np.errstate(divide="ignore"):
                log_amp = 2.0 * np.log(np.abs(shift - np.exp(self.log_s)))
        return self._log_transform(t, self.log_w + log_amp)

    def _log_transform(self, t, log_coef: np.ndarray):
        """ln sum_k exp(log_coef_k - 2 t s_k): one logsumexp row per t.

        Rows run in blocks of at most ``_CHUNK_ELEMENTS`` (t, atom) terms,
        so memory stays bounded and no value depends on the block size.
        """
        t_arr, scalar = _as_1d(t)
        s = np.exp(self.log_s)  # sub-double moduli round to 0.0, which is exact here
        rows = max(1, _CHUNK_ELEMENTS // self.n_atoms)
        vals = np.empty(t_arr.size)
        for i in range(0, t_arr.size, rows):
            block = t_arr[i : i + rows]
            vals[i : i + rows] = _logsumexp(log_coef - 2.0 * block[:, None] * s)
        return _as_scalar_or_array(vals, scalar)

    def describe(self) -> str:
        return f"atomic n={self.n_atoms} mass={self.mass!r}"

    # -- serialization ----------------------------------------------------

    def to_text(self) -> str:
        lines = [f"atomic n={self.n_atoms} coords=log mass={self.mass!r}"]
        for ls, lw in zip(self.log_s, self.log_w):
            lines.append(f"{float(ls)!r} {float(lw)!r}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# density measures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DensityMeasure:
    """Absolutely continuous measure in the distance coordinate s = |lambda|.

    The support is an interval ``[s_lo, s_hi]`` with ``0 <= s_lo < s_hi``;
    ``density(s)`` is the Radon-Nikodym derivative with respect to ds.

    Near the inner edge the density may carry an algebraic factor:
    ``density(s_lo + sig) = sig**alg_power * smooth_factor(sig)``.
    Supplying ``alg_power`` and ``smooth_factor`` routes all quadrature
    through an endpoint-weighted rule, which keeps relative accuracy
    even when the algebraic factor is singular or vanishes to high
    order.

    ``log_ball_mass_fn`` is the optional closed form of the ball mass, in
    the log domain: it maps ``ln eps`` (an array) to ``ln mu(B(0, eps))``,
    with ``-inf`` for an empty ball.  When given, it is checked against
    quadrature at 10 radii on construction, and both ``log_ball_mass`` and
    ``ball_mass`` (as ``exp(log_ball_mass(ln eps))``) read it; without it,
    both integrate the density.
    """

    s_lo: float
    s_hi: float
    density: Callable[[np.ndarray], np.ndarray]
    kind: str = "density"
    params: dict = field(default_factory=dict)
    log_ball_mass_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None
    alg_power: float = 0.0
    smooth_factor: Optional[Callable[[float], float]] = None
    quad_breaks: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if not (0.0 <= self.s_lo < self.s_hi < math.inf):
            raise DomainError("support must satisfy 0 <= s_lo < s_hi < inf")
        if not self.alg_power > -1.0:
            raise DomainError("alg_power must be > -1 for an integrable edge")
        if self.alg_power != 0.0 and self.smooth_factor is None:
            raise DomainError("a nonzero alg_power requires an explicit smooth_factor")
        sig = (self.s_hi - self.s_lo) * np.linspace(0.07, 0.93, 32)
        vals = np.asarray(self.density(self.s_lo + sig), dtype=float)
        if np.any(vals < -1e-12):
            raise InvariantViolation("density must be nonnegative on the support")
        if self.smooth_factor is not None:
            recon = sig ** self.alg_power * np.asarray(
                [float(self.smooth_factor(x)) for x in sig]
            )
            err = np.abs(recon - vals)
            if np.any(err > 1e-9 * (np.abs(vals) + 1e-300)):
                raise InvariantViolation(
                    "smooth_factor * sig**alg_power does not reproduce the density"
                )
        mass = self._quad_sigma(self.s_hi - self.s_lo)
        if not (mass > 0.0 and math.isfinite(mass)):
            raise InvariantViolation("total mass must be finite and positive")
        object.__setattr__(self, "_mass", mass)
        if self.log_ball_mass_fn is not None:
            self._check_closed_form()

    def _check_closed_form(self) -> None:
        # the closed form must agree with quadrature at the check radii, to
        # 1e-8 relative (an empty ball on both sides agrees)
        for eps in self._check_radii():
            closed = float(np.atleast_1d(self.log_ball_mass_fn(math.log(eps)))[0])
            with np.errstate(divide="ignore"):
                by_quad = float(np.log(self._quad_sigma(eps - self.s_lo)))
            if not (closed == by_quad or abs(closed - by_quad) <= 1e-8):
                raise InvariantViolation(
                    f"closed-form log ball mass disagrees with quadrature at eps={eps!r}: "
                    f"{closed!r} vs {by_quad!r}"
                )

    def _check_radii(self) -> np.ndarray:
        """10 fixed pseudo-random radii inside the support, for the self-checks."""
        rng = np.random.default_rng(774411)
        return self.s_lo + (self.s_hi - self.s_lo) * rng.uniform(0.02, 0.98, size=10)

    # -- quadrature core ---------------------------------------------------

    def _quad_sigma(self, upper: float, t: float = 0.0, moment_shift: Optional[float] = None) -> float:
        """integral_0^upper sig^alg h(sig) [(shift-s_lo-sig)^2] exp(-2 t sig) dsig."""
        if upper <= 0.0:
            return 0.0
        upper = min(upper, self.s_hi - self.s_lo)
        if t > 0.0:
            upper = min(upper, _TAIL_EXPONENT / (2.0 * t))
        if self.smooth_factor is not None:
            smooth = self.smooth_factor
        else:
            smooth = lambda sig: self.density(self.s_lo + sig)
        if moment_shift is None:
            f = lambda sig: float(smooth(sig)) * math.exp(-2.0 * t * sig)
        else:
            c = moment_shift - self.s_lo
            f = lambda sig: float(smooth(sig)) * (c - sig) ** 2 * math.exp(-2.0 * t * sig)
        pts = None
        if self.quad_breaks is not None:
            inner = self.quad_breaks - self.s_lo
            inner = inner[(inner > 0.0) & (inner < upper)]
            pts = inner if inner.size else None
        return self._quad(f, upper, pts)

    def _quad(self, f: Callable[[float], float], upper: float, points=None) -> float:
        """integral_0^upper sig^alg f(sig) dsig, with the endpoint-weighted
        rule when alg_power != 0 (``points`` are used only without it)."""
        # imported at its only use: scipy.integrate (with scipy.optimize,
        # scipy.spatial and scipy.fft behind it) would otherwise slow every
        # start, and runs without a density never need it
        from scipy import integrate

        # roundoff warnings on extreme-decay integrands are expected; accuracy
        # is policed through the returned error estimate instead
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", integrate.IntegrationWarning)
            if self.alg_power != 0.0:
                val, err = integrate.quad(
                    f, 0.0, upper, weight="alg", wvar=(self.alg_power, 0.0),
                    epsabs=0.0, epsrel=_QUAD_RELTOL, limit=_QUAD_LIMIT,
                )
            else:
                val, err = integrate.quad(
                    f, 0.0, upper, points=points,
                    epsabs=0.0, epsrel=_QUAD_RELTOL, limit=_QUAD_LIMIT,
                )
        if not math.isfinite(val) or (val != 0.0 and err > 1e-6 * abs(val)):
            raise InvariantViolation(
                f"quadrature did not converge (value {val!r}, error estimate {err!r})"
            )
        return float(val)

    # -- basic quantities ----------------------------------------------

    @property
    def mass(self) -> float:
        return float(self._mass)

    @property
    def log_mass(self) -> float:
        return math.log(self._mass)

    # -- measure operations ---------------------------------------------

    def ball_mass(self, eps: float) -> float:
        if not eps > 0.0:
            raise DomainError("ball radius must be positive")
        if eps <= self.s_lo:
            return 0.0
        if self.log_ball_mass_fn is not None:
            return math.exp(self.log_ball_mass(math.log(eps)))
        return self._quad_sigma(eps - self.s_lo)

    def log_ball_mass(self, log_eps):
        arr, scalar = _as_1d(log_eps)
        if np.any(np.isnan(arr)):
            raise DomainError("log ball radius must not be NaN")
        if self.log_ball_mass_fn is not None:
            out = np.asarray(self.log_ball_mass_fn(arr), dtype=float)
        else:
            out = np.array([self._log_ball_mass_by_quad(float(le)) for le in arr])
        return _as_scalar_or_array(out, scalar)

    def _log_ball_mass_by_quad(self, le: float) -> float:
        p1 = self.alg_power + 1.0
        if self.s_lo == 0.0 and min(le, p1 * le) < _LOG_DBL_MIN:
            # eps or eps^(p+1) leaves double range: integrate over sig = eps tau,
            # mass = eps^(p+1) integral_0^1 tau^p c(eps tau) dtau.  Where eps
            # itself underflows, c(eps tau) is the edge value c(0) and this is
            # the exact edge form c eps^(p+1) / (p+1)
            eps = math.exp(le) if le >= _LOG_DBL_MIN else 0.0
            smooth = self.smooth_factor if self.smooth_factor is not None else self.density
            upper = 1.0 if eps <= self.s_hi else self.s_hi / eps
            scaled = self._quad(lambda tau: float(smooth(eps * tau)), upper)
            with np.errstate(divide="ignore"):
                return p1 * le + float(np.log(scaled))
        with np.errstate(divide="ignore"):
            return float(np.log(self._quad_sigma(math.exp(le) - self.s_lo)))

    def log_laplace(self, t):
        """ln integral exp(2 t lambda) dmu; vectorized over t."""
        return self._log_transform(t, None)

    def log_laplace_moment(self, t, shift: float = 0.0):
        """ln integral (lambda + shift)^2 exp(2 t lambda) dmu; vectorized over t."""
        return self._log_transform(t, shift)

    def _log_transform(self, t, moment_shift: Optional[float]):
        """One quadrature per t; the e^{-2 t s_lo} prefactor is carried
        analytically so supports far from 0 stay representable."""
        t_arr, scalar = _as_1d(t)
        out = np.empty(t_arr.shape)
        for i, ti in enumerate(t_arr.tolist()):
            val = self._quad_sigma(self.s_hi - self.s_lo, t=ti, moment_shift=moment_shift)
            with np.errstate(divide="ignore"):
                out[i] = -2.0 * ti * self.s_lo + np.log(val)
        return _as_scalar_or_array(out, scalar)

    def describe(self) -> str:
        return f"density kind={self.kind} support=[{self.s_lo!r},{self.s_hi!r}] mass={self.mass!r}"

    # -- serialization ----------------------------------------------------

    def to_text(self) -> str:
        if self.kind == "atomic" or self.kind not in _FAMILIES:
            raise DomainError(f"a density of kind {self.kind!r} has no measure file format; "
                              f"only the families {sorted(set(_FAMILIES) - {'atomic'})} do")
        head = (
            f"density kind={self.kind} support={self.s_lo!r},{self.s_hi!r} "
            f"mass={self.mass!r}"
        )
        lines = [head]
        if self.kind == "sampled-density":
            grid = self.params["grid"]
            vals = self.params["values"]
            lines.append(f"n={len(grid)}")
            for s, v in zip(grid, vals):
                lines.append(f"{float(s)!r} {float(v)!r}")
        else:
            for key, val in sorted(self.params.items()):
                lines.append(f"{key}={float(val)!r}")
        text = "\n".join(lines) + "\n"
        # kind and params are labels the caller supplied: the text must load
        # back as this measure, to 1e-9 in log ball mass at the check radii
        # (an empty ball matches only an empty ball)
        le = np.log(self._check_radii())
        ours = self.log_ball_mass(le)
        try:
            theirs = measure_from_text(text).log_ball_mass(le)
        except DomainError as exc:
            raise DomainError(f"this density does not load back from its kind={self.kind} "
                              f"text: {exc}") from None
        if not all(a == b or abs(a - b) <= 1e-9 for a, b in zip(ours, theirs)):
            raise DomainError(f"this density is not the {self.kind} measure its params "
                              f"describe, so its text would load as a different measure")
        return text


# ---------------------------------------------------------------------------
# constructors for the standard density families
# ---------------------------------------------------------------------------


def power_law_measure(gamma: float) -> DensityMeasure:
    """Measure on [0, 1] with the exact ball-mass law mu(B(0,eps)) = eps**gamma.

    The density is gamma * s**(gamma-1); the closed-form log ball mass
    gamma * min(ln eps, 0) is exact at every scale.
    """
    if not (gamma > 0.0 and math.isfinite(gamma)):
        raise DomainError("gamma must be positive and finite")
    g = float(gamma)
    return DensityMeasure(
        s_lo=0.0,
        s_hi=1.0,
        density=lambda s: g * np.asarray(s, dtype=float) ** (g - 1.0),
        kind="power-law",
        params={"gamma": g},
        log_ball_mass_fn=lambda le: g * np.minimum(np.asarray(le, dtype=float), 0.0),
        alg_power=g - 1.0,
        smooth_factor=(lambda sig: g) if g != 1.0 else None,
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

    return DensityMeasure(
        s_lo=0.0,
        s_hi=1.0,
        density=lambda s: np.asarray(s, dtype=float) ** (2.0 * d),
        kind="monomial-profile",
        params={"delta": d},
        log_ball_mass_fn=lambda le: p * np.minimum(le, 0.0) - math.log(p),
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

    return DensityMeasure(
        s_lo=lo,
        s_hi=hi,
        density=lambda s: np.full_like(np.asarray(s, dtype=float), h),
        kind="uniform",
        params={"height": h},
        log_ball_mass_fn=_log_ball,
    )


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
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (vals[1:] + vals[:-1]) * np.diff(grid))])

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

    return DensityMeasure(
        s_lo=float(grid[0]),
        s_hi=float(grid[-1]),
        density=lambda s: np.interp(np.asarray(s, dtype=float), grid, vals),
        kind="sampled-density",
        params={"grid": grid, "values": vals},
        log_ball_mass_fn=_log_ball,
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
    log_w = log_w - _logsumexp(log_w)
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
    scale_range: tuple
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
        scale_range=(float(np.exp(lmin)), float(np.exp(lmax))),
        log_scale_range=(lmin, lmax),
        n_scales=n_scales,
        log_eps=log_eps,
        log_ball=log_ball,
        slopes=slopes,
        ratios=ratios,
        convention_branch=bool(np.any(np.isneginf(log_ball))),
    )


# ---------------------------------------------------------------------------
# free-function API over both representations
# ---------------------------------------------------------------------------


def ball_mass(mu, eps: float) -> float:
    """mu({lambda : |lambda| < eps}) for eps > 0."""
    return mu.ball_mass(eps)


def log_ball_mass(mu, log_eps):
    """ln of the open-ball mass, vectorized over ln(eps)."""
    return mu.log_ball_mass(log_eps)


def laplace_norm_sq(mu, t: float, log_domain: bool = False) -> float:
    """integral exp(2 t lambda) dmu(lambda) = ||exp(tA) x||^2 for mu = mu_x."""
    if t < 0.0 or not math.isfinite(t):
        raise DomainError("t must be finite and >= 0")
    log_val = float(mu.log_laplace(float(t)))
    return log_val if log_domain else float(math.exp(log_val)) if log_val > -745.0 else 0.0


def laplace_moment(mu, t: float, shift: float = 0.0, log_domain: bool = False) -> float:
    """integral (lambda + shift)^2 exp(2 t lambda) dmu(lambda).

    With shift = 0 this is the squared orbit norm of u = Ax; with
    shift = a it is the squared orbit norm of u = (A + a)x.
    """
    if t < 0.0 or not math.isfinite(t):
        raise DomainError("t must be finite and >= 0")
    log_val = float(mu.log_laplace_moment(float(t), shift=float(shift)))
    return log_val if log_domain else float(math.exp(log_val)) if log_val > -745.0 else 0.0


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


def measure_to_text(mu) -> str:
    return mu.to_text()


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
    mu = build(entries, rows)
    if "support" in entries and _support(entries["support"]) != (mu.s_lo, mu.s_hi):
        raise DomainError(f"support={entries['support']} disagrees with the loaded "
                          f"support [{mu.s_lo!r}, {mu.s_hi!r}]")
    if "mass" in entries and not math.isclose(_number(entries["mass"], "mass"), mu.mass,
                                              rel_tol=1e-9):
        raise DomainError(f"mass={entries['mass']} disagrees with the loaded mass {mu.mass!r}")
    return mu


def save_measure(mu, path) -> None:
    text = measure_to_text(mu)  # a refused measure leaves the file as it was
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


def load_measure(path):
    return measure_from_text(read_ascii(path))

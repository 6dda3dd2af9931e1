"""Potentials, Dirichlet-box discretizations, and operator diagnostics.

The operators built here are ``H = Lap_h + diag(V)`` on the box
``[-L, L]^nu`` (nu in {1, 2}) with Dirichlet boundary conditions and a
bounded potential ``-a <= V <= 0``.  ``discretize`` builds H once, for
both dimensions, as one sparse matrix: the 1-D second-difference matrix
T, or the Kronecker sum of T with itself in 2-D, plus ``diag(V)``.  Every solve
on H runs on demand and is cached on the operator: the top eigenpair,
the resolvent factorization, the eigenvalues alone, which the spectrum
CSV reads, and the full eigendecomposition, which only the spectral
measure reads.  The last two are banded LAPACK solves (band reduction,
then a tridiagonal solve) on H in lower band storage, whose half-bandwidth
is ``n_side ** (nu - 1)``: 1 in 1-D, n_side in 2-D.  The first two read
that storage too in 1-D, where H is tridiagonal: the top eigenpair comes
from LAPACK Sturm-count bisection and inverse iteration (``?stebz``,
``?stein``) and the resolvent from a tridiagonal LU (``?gttrf``), both
O(N).  2-D keeps an ARPACK shift-invert top eigenpair and a SuperLU
factorization.

A 2-D V that is swap-symmetric on the grid, ``V(x, y) == V(y, x)`` bit for
bit, makes H commute with the swap (x, y) -> (y, x).  Every radial kind is,
and so is a sampled V with a symmetric sample matrix.  The eigenvalues are
then solved on the swap's even and odd sectors: two bands of about N/2
points and half-bandwidth about n_side/2, whose spectra together are H's.
The mirrors x -> -x and y -> -y are not used: the grid points
``-L + h k`` are not mirror-exact in floating point, so V is not exactly
mirror-symmetric on the grid.

The eigenvalues are checked on H itself, never on the sectors, by the
trace and Frobenius identities and by Sylvester inertia counts of
``H - sigma I`` at a few shifts in spectral gaps.  Each count is a block
LDL^T over consecutive blocks of ``m = ceil(sqrt(N))`` rows (n_side in 2-D,
where it equals the half-bandwidth): LAPACK ``dsysv`` factors each Schur
complement with Bunch-Kaufman pivoting (``dsytrf``), and by Haynsworth's
inertia additivity the blocks' counts add up to H's, at O(N m^2) per shift.
Each block is scattered from H's lower triplets when the count reaches it, so
the check holds O(nnz(H)) memory and one block, not all blocks dense.

scipy is imported at the first solve, not with this module, so
``import semistab`` is numpy-only: ``discretize`` and the banded and
tridiagonal solves load ``scipy.sparse`` and ``scipy.linalg``, and only the
2-D top eigenpair and 2-D resolvent load ``scipy.sparse.linalg`` (ARPACK,
SuperLU).  The module-level names ``eig_banded``, ``splu`` and the rest
call through to scipy's functions of the same name.

A metric on potentials ``d(V, U) = sum_j min(2^-j, sup_{|x| <= j} |V - U|)``
and two canonical approximation sequences (truncation and downward shift)
support convergence studies; resolvent diagnostics quantify how close two
discretized operators are in the strong-resolvent sense.
"""

from __future__ import annotations

import importlib
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from .errors import (DomainError, InvariantViolation, ResourceCapError, read_ascii,
                     read_descriptor, write_ascii, write_csv)
from .measures import AtomicMeasure

if TYPE_CHECKING:
    import scipy.sparse

__all__ = [
    "Potential",
    "constant_potential",
    "gaussian_well",
    "exp_well",
    "square_well",
    "sampled_potential",
    "truncate_potential",
    "shift_potential",
    "DiscretizedOperator",
    "discretize",
    "spectral_measure",
    "MetricValue",
    "metric_d",
    "resolvent_apply",
    "resolvent_gap",
    "potential_to_text",
    "potential_from_text",
    "save_potential",
    "load_potential",
    "spectrum_to_csv",
]

#: largest grid (interior point count N) that ``discretize`` builds
_N_CAP = 3600
#: eigenvalue gaps at which ``eigenvalues`` is checked by a Sylvester inertia count
_INERTIA_SHIFTS = 6
#: the sup in ``metric_d``'s term j is sampled with spacing _SUP_STEP * j + _SUP_STEP
_SUP_STEP = 0.01
_BOUND_SLACK = 1e-12
#: ulps of a_bound by which a grid value may round below -a_bound, as the
#: interpolation weights of a sampled potential can
_GRID_ULPS = 4


def _lazy(module: str, name: str) -> Callable:
    """``module.name``, imported at the first call: ``import semistab`` loads no
    scipy, and ARPACK and SuperLU load only for the 2-D solves that call them."""

    def call(*args, **kwargs):
        return getattr(importlib.import_module(module), name)(*args, **kwargs)

    call.__name__ = call.__qualname__ = name
    return call


eig_banded = _lazy("scipy.linalg", "eig_banded")
eigh_tridiagonal = _lazy("scipy.linalg", "eigh_tridiagonal")
dsysv = _lazy("scipy.linalg.lapack", "dsysv")
zgttrf = _lazy("scipy.linalg.lapack", "zgttrf")
zgttrs = _lazy("scipy.linalg.lapack", "zgttrs")
eigsh = _lazy("scipy.sparse.linalg", "eigsh")
splu = _lazy("scipy.sparse.linalg", "splu")
diags_array = _lazy("scipy.sparse", "diags_array")
kronsum = _lazy("scipy.sparse", "kronsum")
csr_array = _lazy("scipy.sparse", "csr_array")


# ---------------------------------------------------------------------------
# potentials
# ---------------------------------------------------------------------------


def _floats(text: str) -> tuple:
    return tuple(float(tok) for tok in text.split(","))


@dataclass(frozen=True)
class _Kind:
    """One potential kind: ``params`` maps each parameter besides kind, nu and
    a_bound to its text parser; ``positive`` ones must be finite and > 0, checked
    on construction.  ``value_range`` declares the exact range ``(inf V, sup V)``
    from the parameters, which construction checks against ``-a_bound <= V <= 0``.
    A radial kind evaluates as ``profile(|x|, params)``; a ``wraps`` kind
    transforms a base potential of the same dimension.  ``support`` declares the
    radius outside which V = 0 (inf when there is none)."""

    params: dict
    value_range: Callable[["Potential"], tuple]
    positive: tuple = ()
    profile: Optional[Callable[[np.ndarray, dict], np.ndarray]] = None
    wraps: bool = False
    support: Callable[["Potential"], float] = lambda V: math.inf


def _sampled_support(V: "Potential") -> float:
    # np.interp and the 2-D clip hold the boundary samples beyond the grid, so
    # V vanishes outside it only when every boundary sample is 0
    vals = np.reshape(V.params["values"], (-1,) if V.nu == 1 else (V.params["n"],) * 2)
    if np.count_nonzero(vals) > np.count_nonzero(vals[(slice(1, -1),) * V.nu]):
        return math.inf
    return math.sqrt(V.nu) * max(abs(V.params["grid_lo"]), abs(V.params["grid_hi"]))


def _shifted(params: dict, v):
    """The downward shift of base values v, for eval and the range alike."""
    l, a = params["l"], params["a"]
    return (l / (l + 1.0)) * v - a / (l + 1.0)


def _well_range(V: "Potential") -> tuple:
    return -V.params["depth"], 0.0


_KINDS = {
    "constant": _Kind({"value": float}, lambda V: (V.params["value"],) * 2,
                      profile=lambda r, p: np.full(r.shape, p["value"], dtype=float),
                      support=lambda V: 0.0 if V.params["value"] == 0.0 else math.inf),
    "gaussian-well": _Kind({"depth": float, "width": float}, _well_range, ("depth", "width"),
                           lambda r, p: -p["depth"] * np.exp(-((r / p["width"]) ** 2))),
    "exp-well": _Kind({"depth": float, "width": float}, _well_range, ("depth", "width"),
                      lambda r, p: -p["depth"] * np.exp(-r / p["width"])),
    "square-well": _Kind({"depth": float, "radius": float}, _well_range, ("depth", "radius"),
                         lambda r, p: np.where(r <= p["radius"], -p["depth"], 0.0),
                         support=lambda V: V.params["radius"]),
    # n, the side of the square sample grid, is given only when nu = 2; linear and
    # bilinear interpolation and the edge clamp stay inside the samples (up to the
    # rounding of the 2-D weights), and np.min and np.max propagate a NaN sample
    "sampled": _Kind({"grid_lo": float, "grid_hi": float, "values": _floats, "n": int},
                     lambda V: tuple(float(f(V.params["values"])) for f in (np.min, np.max)),
                     support=_sampled_support),
    "truncated": _Kind({"k": int},
                       lambda V: (min(V.base.value_range[0], 0.0), max(V.base.value_range[1], 0.0)),
                       ("k",), wraps=True,
                       support=lambda V: min(float(V.params["k"]), V.base.support_radius)),
    "shifted": _Kind({"l": int, "a": float},
                     lambda V: tuple(_shifted(V.params, v) for v in V.base.value_range),
                     ("l",), wraps=True),
}


@dataclass(frozen=True)
class Potential:
    """Bounded potential with -a_bound <= V(x) <= 0 on R^nu, nu in {1, 2}.

    Construction checks the value range its kind declares from the
    parameters (``value_range``) against that bound; V is evaluated at no
    point.
    """

    kind: str
    nu: int
    a_bound: float
    params: dict = field(default_factory=dict)
    base: Optional["Potential"] = None

    def __post_init__(self) -> None:
        if self.nu not in (1, 2):
            raise DomainError("nu must be 1 or 2")
        if not (self.a_bound > 0.0 and math.isfinite(self.a_bound)):
            raise DomainError("a_bound must be positive and finite")
        spec = _KINDS.get(self.kind)
        if spec is None:
            raise DomainError(f"unknown potential kind: {self.kind!r}")
        if spec.wraps:
            if self.base is None:
                raise DomainError(f"{self.kind} potential needs a base potential")
            if self.base.nu != self.nu:
                raise DomainError("wrapper and base dimensions differ")
        elif self.base is not None:
            raise DomainError(f"{self.kind} potential takes no base")
        for key in spec.positive:
            if not 0 < self.params[key] < math.inf:
                raise DomainError(f"{self.kind} potential needs a finite {key} > 0, "
                                  f"got {self.params[key]!r}")
        if self.kind == "shifted" and self.params["a"] != self.base.a_bound:
            raise DomainError("shift level a must equal the a_bound of the base potential")
        if self.kind == "sampled":
            # a finite width keeps the interpolation grid, and so V, finite
            if not 0.0 < self.params["grid_hi"] - self.params["grid_lo"] < math.inf:
                raise DomainError("grid_hi must exceed grid_lo by a finite width")
            size = np.size(self.params["values"])
            side = self.params["n"] if self.nu == 2 else size
            if side < 2 or size != side ** self.nu:
                raise DomainError(f"a nu={self.nu} sampled potential needs n^{self.nu} values "
                                  f"with n >= 2, got {size}")
        lo, hi = self.value_range
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise InvariantViolation("potential evaluates to a non-finite value")
        if hi > _BOUND_SLACK:
            raise InvariantViolation("potential must be <= 0 everywhere")
        if lo < -self.a_bound - _BOUND_SLACK:
            raise InvariantViolation("potential must be >= -a_bound everywhere")

    @property
    def value_range(self) -> tuple:
        """(inf V, sup V) as the kind declares it from the parameters."""
        return _KINDS[self.kind].value_range(self)

    # -- geometry helpers ---------------------------------------------

    @property
    def support_radius(self) -> float:
        """V = 0 wherever |x| > support_radius; inf when V vanishes outside no ball."""
        return _KINDS[self.kind].support(self)

    @property
    def is_radial(self) -> bool:
        spec = _KINDS[self.kind]
        return spec.profile is not None or (spec.wraps and self.base.is_radial)

    def _radius(self, points: np.ndarray) -> np.ndarray:
        arr = np.asarray(points, dtype=float)
        if self.nu == 1:
            return np.abs(arr)
        if arr.shape[-1] != 2:
            raise DomainError("points for a nu=2 potential need a trailing axis of size 2")
        return np.sqrt(np.sum(arr * arr, axis=-1))

    # -- evaluation ------------------------------------------------------

    def eval(self, points) -> np.ndarray:
        """Evaluate V at an array of points ((...,) for nu=1, (..., 2) for nu=2)."""
        arr = np.asarray(points, dtype=float)
        profile = _KINDS[self.kind].profile
        if profile is not None:
            return profile(self._radius(arr), self.params)
        if self.kind == "sampled":
            return self._eval_sampled(arr)
        if self.kind == "truncated":
            return np.where(self._radius(arr) < self.params["k"], self.base.eval(arr), 0.0)
        return _shifted(self.params, self.base.eval(arr))

    def _eval_sampled(self, arr: np.ndarray) -> np.ndarray:
        lo = self.params["grid_lo"]
        hi = self.params["grid_hi"]
        vals = np.asarray(self.params["values"], dtype=float)
        if self.nu == 1:
            return np.interp(arr, np.linspace(lo, hi, vals.size), vals)
        n = self.params["n"]
        grid = np.linspace(lo, hi, n)
        vv = vals.reshape(n, n)
        x = np.clip(arr[..., 0], lo, hi)
        y = np.clip(arr[..., 1], lo, hi)
        # bilinear interpolation on the square sample grid; pinning the cell
        # index to n-2 keeps the top edge exact (fraction becomes 1.0 there)
        fx = (x - lo) / (hi - lo) * (n - 1)
        fy = (y - lo) / (hi - lo) * (n - 1)
        ix = np.clip(fx.astype(int), 0, n - 2)
        iy = np.clip(fy.astype(int), 0, n - 2)
        tx = fx - ix
        ty = fy - iy
        # each weight is one product and the two mixed terms are summed first,
        # so a symmetric sample matrix gives V(x, y) == V(y, x) bit for bit
        return (
            vv[ix, iy] * ((1 - tx) * (1 - ty))
            + (vv[ix + 1, iy] * (tx * (1 - ty)) + vv[ix, iy + 1] * ((1 - tx) * ty))
            + vv[ix + 1, iy + 1] * (tx * ty)
        )


def constant_potential(value: float, nu: int = 1, a_bound: Optional[float] = None) -> Potential:
    """V identically equal to ``value`` (<= 0)."""
    if a_bound is None:
        a_bound = -value if value < 0.0 else 1.0
    return Potential(kind="constant", nu=nu, a_bound=float(a_bound), params={"value": float(value)})


def _well(kind: str, depth: float, size: float, nu: int, a_bound: Optional[float]) -> Potential:
    depth_key, size_key = _KINDS[kind].params
    return Potential(kind=kind, nu=nu, a_bound=float(a_bound if a_bound is not None else depth),
                     params={depth_key: float(depth), size_key: float(size)})


def gaussian_well(depth: float = 1.0, width: float = 1.0, nu: int = 1,
                  a_bound: Optional[float] = None) -> Potential:
    """V(x) = -depth * exp(-(|x| / width)^2)."""
    return _well("gaussian-well", depth, width, nu, a_bound)


def exp_well(depth: float = 1.0, width: float = 1.0, nu: int = 1,
             a_bound: Optional[float] = None) -> Potential:
    """V(x) = -depth * exp(-|x| / width)."""
    return _well("exp-well", depth, width, nu, a_bound)


def square_well(depth: float = 1.0, radius: float = 1.0, nu: int = 1,
                a_bound: Optional[float] = None) -> Potential:
    """V(x) = -depth for |x| <= radius, 0 outside."""
    return _well("square-well", depth, radius, nu, a_bound)


def sampled_potential(values, grid_lo: float, grid_hi: float, nu: int = 1,
                      a_bound: Optional[float] = None) -> Potential:
    """Potential interpolated from samples on a uniform grid over [grid_lo, grid_hi].

    nu=1 takes a flat value array (linear interpolation, edge values
    extended); nu=2 takes n*n values row-major on the square grid
    (bilinear interpolation, clamped at the edges).
    """
    vals = np.asarray(values, dtype=float).ravel()
    params = {"grid_lo": float(grid_lo), "grid_hi": float(grid_hi), "values": tuple(vals)}
    if nu == 2:
        params["n"] = int(round(math.sqrt(vals.size)))
    if a_bound is None:
        mn = float(vals.min(initial=0.0))
        a_bound = -mn if mn < 0.0 else 1.0
    return Potential(kind="sampled", nu=nu, a_bound=float(a_bound), params=params)


def truncate_potential(V: Potential, k: int) -> Potential:
    """Indicator truncation: V on the open ball |x| < k, zero outside."""
    if int(k) != k or k < 1:
        raise DomainError("truncation index k must be an integer >= 1")
    return Potential(kind="truncated", nu=V.nu, a_bound=V.a_bound,
                     params={"k": int(k)}, base=V)


def shift_potential(V: Potential, l: int, a: Optional[float] = None) -> Potential:
    """Downward shift (l/(l+1)) V - a/(l+1) with a = a_bound of V.

    The result satisfies -a <= V_l <= -a/(l+1) < 0, so its supremum is
    strictly negative.
    """
    if int(l) != l or l < 1:
        raise DomainError("shift index l must be an integer >= 1")
    return Potential(kind="shifted", nu=V.nu, a_bound=V.a_bound,
                     params={"l": int(l), "a": float(V.a_bound if a is None else a)}, base=V)


# ---------------------------------------------------------------------------
# discretized operators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiscretizedOperator:
    """H = Lap_h + diag(V) on a Dirichlet box, with its solves cached.

    ``H`` is the one read-only sparse (CSR) matrix of the operator;
    ``apply`` and every solve read it.  Each solve runs on first use and
    is cached on the operator:

    * ``lambda_max``: the top eigenvalue, from a top-eigenpair solve: LAPACK
      bisection and inverse iteration on the tridiagonal H in 1-D, an ARPACK
      shift-invert in 2-D;
    * ``eigenvalues``: every eigenvalue, sorted descending (closest to 0
      first), from values-only banded solves.  No eigenvector is
      computed; the values are checked on H itself by the trace and
      Frobenius identities and by Sylvester inertia counts of
      ``H - sigma I`` at a few shifts in spectral gaps, each a block LDL^T
      of H in blocks of about sqrt(N) rows (``_check_inertia``);
    * ``eigenvectors``: the full decomposition, from a banded solve with
      vectors, with ``eigenvectors[:, j]`` the orthonormal eigenvector for
      the j-th eigenvalue, in the same order;
    * the factorization of ``iI - H`` behind ``resolvent_apply``: a
      tridiagonal LU in 1-D, a sparse LU in 2-D.

    Both banded solves (LAPACK ``?sbevd`` through ``scipy.linalg.eig_banded``)
    read H in lower band storage, so neither forms a dense N x N copy of H;
    without vectors the band reduction costs O(N^2 b) at half-bandwidth b
    where a dense one costs O(N^3).  The full decomposition reads ``_band``,
    all of H with ``b = n_side ** (nu - 1)``.  ``eigenvalues`` reads it too
    in 1-D and for a 2-D V that is not swap-symmetric on the grid; for a
    swap-symmetric one it solves the swap's two sectors ``P+-^T H P+-``
    (``_swap_sectors``), of about N/2 points and ``b`` about n_side/2 each,
    for about a third of the time.  The solves are independent, so ``lambda_max``,
    ``eigenvalues`` and the values paired with ``eigenvectors`` agree only
    to about 1e-12 times the Dirichlet spectral scale, not bit for bit.
    Every computed eigenvalue and eigenpair is validated before it is
    cached.  The grid is the interior of [-L, L]^nu with spacing h; for
    nu=2 the flat index is ``i * n_side + j`` for the point ``(x_i, y_j)``.
    """

    nu: int
    L: float
    h: float
    n_side: int
    N: int
    potential: Potential
    grid: np.ndarray
    v_diag: np.ndarray
    H: scipy.sparse.csr_array

    def __post_init__(self) -> None:
        for arr in (self.grid, self.v_diag, self.H.data, self.H.indices, self.H.indptr):
            np.asarray(arr).setflags(write=False)

    @cached_property
    def _band(self) -> np.ndarray:
        """H in LAPACK lower band storage, half-bandwidth ``n_side ** (nu - 1)``."""
        return _lower_band(self.H)

    @property
    def _swap_symmetric(self) -> bool:
        """V(x_i, y_j) == V(x_j, y_i) bit for bit on a 2-D grid, so H commutes
        with the swap (x, y) -> (y, x)."""
        if self.nu != 2:
            return False
        v = self.v_diag.reshape(self.n_side, self.n_side)
        return bool(np.array_equal(v, v.T))

    @cached_property
    def _eig(self) -> tuple:
        vals, vecs = eig_banded(self._band, lower=True)
        order = np.argsort(vals)[::-1]
        vals = vals[order]
        vecs = vecs[:, order]
        _check_eigenpairs(self, vals, vecs, float(np.max(np.abs(vals))))
        vals.setflags(write=False)
        vecs.setflags(write=False)
        return vals, vecs

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        # the swap sectors P+^T H P+ and P-^T H P- hold H's spectrum between them
        bands = ([_lower_band(P.T @ self.H @ P) for P in _swap_sectors(self.n_side)]
                 if self._swap_symmetric else [self._band])
        vals = np.concatenate([eig_banded(band, lower=True, eigvals_only=True) for band in bands])
        vals = np.sort(vals)[::-1]
        _check_eigenvalues(self, vals)
        vals.setflags(write=False)
        return vals

    @property
    def eigenvectors(self) -> np.ndarray:
        return self._eig[1]

    @cached_property
    def lambda_max(self) -> float:
        if self.nu == 1:
            # the top eigenpair of the tridiagonal H; tol = 2 * tiny is LAPACK
            # ?stebz's most accurate bisection, at no extra cost
            vals, vecs = eigh_tridiagonal(self._band[0], self._band[1, :-1], select="i",
                                          select_range=(self.N - 1, self.N - 1),
                                          tol=2.0 * np.finfo(float).tiny)
        else:
            # H + cI is nonnegative and irreducible, so the top eigenvector is
            # positive and the constant start vector always overlaps it; a fixed
            # start vector also makes re-runs bit-identical
            vals, vecs = eigsh(self.H, k=1, sigma=0.0, v0=np.ones(self.N))
        # bottom of the free Dirichlet spectrum; V <= 0 puts H's bottom below it
        n = self.n_side
        scale = self.nu * (4.0 / (self.h * self.h)) * math.sin(n * math.pi / (2.0 * (n + 1))) ** 2
        _check_eigenpairs(self, vals, vecs, scale)
        return float(vals[0])

    @cached_property
    def _resolvent_solver(self) -> Callable[[np.ndarray], np.ndarray]:
        """r -> (iI - H)^(-1) r from the LU factors of iI - H: LAPACK ``zgttrf``
        of the tridiagonal in 1-D, SuperLU in 2-D."""
        if self.nu == 1:
            off = -self._band[1, :-1].astype(complex)
            *factors, info = zgttrf(off, 1j - self._band[0], off)
            if info != 0:
                raise InvariantViolation(f"tridiagonal LU of iI - H failed (zgttrf info {info})")
            return lambda r: zgttrs(*factors, r)[0]
        return splu((diags_array(np.full(self.N, 1j)) - self.H).tocsc()).solve

    def apply(self, u: np.ndarray) -> np.ndarray:
        """Apply H to a vector or a column stack (real or complex)."""
        u = np.asarray(u)
        if u.shape[0] != self.N:
            raise DomainError("vector length does not match the grid")
        return self.H @ u


def discretize(V: Potential, L: float, h: float) -> DiscretizedOperator:
    """Discretize H = Lap_h + diag(V) on [-L, L]^nu with Dirichlet walls.

    ``L`` and ``h`` must be positive with 2L/h finite, and ``h`` must
    divide 2L into at least 8 cells; the interior point count
    N = (2L/h - 1)^nu must not exceed 3600.  Only the grid, the
    potential values and H are built here; the solves run on demand.
    """
    cells_f = 2.0 * L / h if L > 0.0 and h > 0.0 else math.nan
    if not math.isfinite(cells_f):
        raise DomainError(f"L and h must be positive with 2L/h finite, got L={L!r}, h={h!r}")
    cells = int(round(cells_f))
    if abs(cells_f - cells) > 1e-9 * max(1.0, cells_f):
        raise DomainError("h must divide 2L into an integer number of cells")
    if cells < 8:
        raise DomainError("h must divide 2L into at least 8 cells")
    n = cells - 1
    N = n ** V.nu
    if N > _N_CAP:
        raise ResourceCapError(f"grid size N={N} exceeds the cap of {_N_CAP} points; "
                               f"use a larger h or a smaller L")
    coords = -L + h * np.arange(1, n + 1, dtype=float)
    if V.nu == 1:
        grid = coords
        v_diag = np.asarray(V.eval(coords), dtype=float)
    else:
        gx, gy = np.meshgrid(coords, coords, indexing="ij")
        grid = np.stack([gx.ravel(), gy.ravel()], axis=-1)
        v_diag = np.asarray(V.eval(grid), dtype=float)
    floor = -V.a_bound - _GRID_ULPS * np.finfo(float).eps * V.a_bound
    if np.any(v_diag > _BOUND_SLACK) or np.any(v_diag < floor):
        raise InvariantViolation("potential violates its bounds on the grid")

    inv_h2 = 1.0 / (h * h)
    T = diags_array([inv_h2, -2.0 * inv_h2, inv_h2], offsets=[-1, 0, 1], shape=(n, n))
    H = ((T if V.nu == 1 else kronsum(T, T)) + diags_array(v_diag)).tocsr()
    return DiscretizedOperator(nu=V.nu, L=float(L), h=float(h), n_side=n, N=N, potential=V,
                               grid=grid, v_diag=v_diag, H=H)


def _lower_band(M) -> np.ndarray:
    """Symmetric sparse M in LAPACK lower band storage: row k is
    ``M.diagonal(-k)``, zero-padded, for k up to M's half-bandwidth."""
    coo = M.tocoo()
    b = int(np.max(coo.row - coo.col))
    band = np.zeros((b + 1, M.shape[0]))
    for k in range(b + 1):
        band[k, :M.shape[0] - k] = M.diagonal(-k)
    band.setflags(write=False)
    return band


def _swap_sectors(n: int) -> tuple:
    """(P+, P-): orthonormal sparse maps onto the vectors of an n x n grid that
    are even and odd under the swap (i, j) -> (j, i).

    P+ has a column ``(e_ij + e_ji) / sqrt(2)`` for each i > j and ``e_ii``
    for each i; P- has ``(e_ij - e_ji) / sqrt(2)`` for each i > j.  Columns
    run along the anti-diagonals, ordered by ``(i + j, i - j)``: a grid
    neighbour is then at most about n / 2 columns away, so a swap-symmetric
    H becomes ``P+^T H P+`` and ``P-^T H P-``, each with half-bandwidth
    about n / 2 where H has n.
    """
    maps = []
    for sign, (i, j) in ((1.0, np.tril_indices(n)), (-1.0, np.tril_indices(n, -1))):
        order = np.lexsort((i - j, i + j))
        i, j = i[order], j[order]
        pair = np.flatnonzero(i > j)
        rows = np.concatenate([i * n + j, j[pair] * n + i[pair]])
        cols = np.concatenate([np.arange(i.size), pair])
        data = np.concatenate([np.where(i > j, math.sqrt(0.5), 1.0),
                               np.full(pair.size, sign * math.sqrt(0.5))])
        maps.append(csr_array((data, (rows, cols)), shape=(n * n, i.size)))
    return tuple(maps)


def _check_eigenpairs(op: DiscretizedOperator, vals: np.ndarray, vecs: np.ndarray,
                      scale: float) -> None:
    """Eigenpairs (vals[j], vecs[:, j]) of a Dirichlet operator: nonpositive
    and orthonormal to 1e-10, with residuals below 1e-9 * scale."""
    if np.any(vals > 1e-10 * scale):
        raise InvariantViolation("positive eigenvalue in a Dirichlet discretization")
    gram = vecs.T @ vecs
    if float(np.max(np.abs(gram - np.eye(vals.size)))) > 1e-10:
        raise InvariantViolation("eigenvector basis is not orthonormal to 1e-10")
    resid = op.apply(vecs) - vecs * vals[None, :]
    worst = float(np.max(np.linalg.norm(resid, axis=0)))
    if worst > 1e-9 * scale:
        raise InvariantViolation("eigenpair residual exceeds 1e-9 * scale")


def _check_eigenvalues(op: DiscretizedOperator, vals: np.ndarray) -> None:
    """All N eigenvalues of a Dirichlet operator, sorted descending, checked
    without eigenvectors: nonpositive, with the Sylvester inertia of H at
    gaps of the spectrum (``_check_inertia``, block LDL^T counts at
    O(N m^2) each for blocks of m = ceil(sqrt(N)) rows), and with
    sum(vals) = tr H and vals @ vals = ||H||_F^2 to 1e-12 N scale and
    1e-12 N scale^2."""
    scale = float(np.max(np.abs(vals)))
    if np.any(vals > 1e-10 * scale):
        raise InvariantViolation("positive eigenvalue in a Dirichlet discretization")
    _check_inertia(op, vals, scale)
    if abs(float(np.sum(vals)) - float(np.sum(op.H.diagonal()))) > 1e-12 * op.N * scale:
        raise InvariantViolation("eigenvalue sum misses the trace of H by more than "
                                 "1e-12 N scale")
    if abs(float(vals @ vals) - float(op.H.data @ op.H.data)) > 1e-12 * op.N * scale * scale:
        raise InvariantViolation("eigenvalue sum of squares misses the squared Frobenius "
                                 "norm of H by more than 1e-12 N scale^2")


def _check_inertia(op: DiscretizedOperator, vals: np.ndarray, scale: float) -> None:
    """Sylvester inertia at up to _INERTIA_SHIFTS gaps spread over the spectrum.

    Each sigma is the midpoint of a gap vals[k] - vals[k+1] wider than
    1e-6 * scale, where the number of eigenvalues of H above sigma must be
    k + 1: a sigma inside an exactly degenerate pair (the square well's
    x <-> y symmetry) would miscount.  The count is ``_count_above``, a
    block LDL^T of H - sigma I over the blocks of H's lower triplets, which
    ``_band_blocks`` sorts once for every shift.  Each count scatters one
    block at a time, so the check holds O(nnz(H)) memory beyond one m x m
    block, never all blocks dense.  It reads all of H, never the swap sectors
    that ``eigenvalues`` may have solved, so it also checks the fold.  A
    shift whose count meets a singular or non-finite block moves on to the
    next gap not yet tried (``_spread_gaps``).
    """
    gaps = np.flatnonzero(vals[:-1] - vals[1:] > 1e-6 * scale)
    blocks = _band_blocks(op.H)

    def midpoint(k: int) -> float:
        return 0.5 * float(vals[k] + vals[k + 1])

    checked = 0
    for k, above in _spread_gaps(gaps, lambda k: _count_above(blocks, midpoint(k))):
        if above != k + 1:
            raise InvariantViolation(f"Sylvester inertia of H - sigma I at sigma={midpoint(k)!r} "
                                     f"counts {above} eigenvalues above sigma, the spectrum "
                                     f"{k + 1}")
        checked += 1
    if checked == 0:
        raise InvariantViolation("no eigenvalue gap admits a Sylvester inertia count")


def _spread_gaps(gaps: np.ndarray, count: Callable[[int], Optional[int]]):
    """Yield ``(k, count(k))`` at up to _INERTIA_SHIFTS distinct gaps k of
    ``gaps``, spread evenly over it.  Where ``count(k)`` is None (no count at
    that gap), the search moves on to the next gap not yet tried; once every
    later gap has failed, it stops."""
    untried = 0  # every gap tried so far lies before this position
    for start in np.unique(np.linspace(0, gaps.size - 1, _INERTIA_SHIFTS).round().astype(int)):
        for pos in range(max(start, untried), gaps.size):
            above = count(int(gaps[pos]))
            if above is not None:
                break
        else:
            return
        untried = pos + 1
        yield int(gaps[pos]), above


@dataclass(frozen=True)
class _BandBlocks:
    """The lower triangle of a symmetric sparse M of half-bandwidth b, cut into
    consecutive blocks of ``m = max(ceil(sqrt(N)), b)`` rows and kept as
    triplets sorted by block: key 2q holds diagonal block q, key 2q + 1 the
    b x b coupling of block q to block q + 1 (rows 0..b-1 of block q + 1,
    columns m-b..m-1 of block q).  ``index`` is each entry's row-major
    position in its block, and key k's triplets are ``starts[k]:starts[k + 1]``.
    As m >= b, no other entries of M lie off the diagonal blocks.  The
    triplets take O(nnz(M)) memory; no block is held dense until ``block``
    scatters it."""

    N: int
    m: int
    b: int
    index: np.ndarray
    data: np.ndarray
    starts: np.ndarray

    def block(self, key: int, out: np.ndarray) -> np.ndarray:
        """Block ``key`` scattered into the C-ordered ``out`` (m x m for a
        diagonal block, b x b for a coupling), every other entry set to 0."""
        part = slice(self.starts[key], self.starts[key + 1])
        out.fill(0.0)
        out.reshape(-1)[self.index[part]] = self.data[part]  # a view, as out is C-ordered
        return out


def _band_blocks(M) -> _BandBlocks:
    """M's lower triplets as ``_BandBlocks``, in O(nnz(M)) memory.  In 2-D
    m = b = n_side; at the 1-D cap m = 60 and b = 1."""
    coo = M.tocoo()
    lower = coo.row >= coo.col
    row, col, data = coo.row[lower], coo.col[lower], coo.data[lower]
    N = M.shape[0]
    b = int(np.max(row - col))
    m = max(math.isqrt(N - 1) + 1, b)
    q, i = np.divmod(row, m)
    p, j = np.divmod(col, m)
    key = q + p  # 2q on diagonal block q, 2p + 1 on the coupling of block p to p + 1
    order = np.argsort(key, kind="stable")
    index = np.where(q == p, i * m + j, i * b + j - (m - b)).astype(np.intp)
    starts = np.searchsorted(key[order], np.arange(2 * -(-N // m)))
    return _BandBlocks(N=N, m=m, b=b, index=index[order], data=data[order], starts=starts)


def _count_above(blocks: _BandBlocks, sigma: float) -> Optional[int]:
    """Number of eigenvalues above sigma of the matrix held by ``blocks``
    (``_band_blocks``), or None where a block is singular or non-finite.

    Haynsworth's inertia additivity over the block LDL^T of M - sigma I
    gives ``In(M - sigma I) = sum_q In(S_q)`` for the Schur complements
    ``S_0 = A_0 - sigma I``, ``S_(q+1) = A_(q+1) - sigma I - C_q S_q^-1 C_q^T``
    with diagonal blocks A_q and couplings C_q.  C_q reaches only the
    trailing b columns of block q, so only ``S_q^-1`` times those b columns
    of C_q^T carries over, into the leading b x b corner of S_(q+1).  LAPACK
    ``dsysv`` factors each S_q with Bunch-Kaufman pivoting (``dsytrf``),
    ``P S_q P^T = L D L^T``, which keeps its inertia, and solves for that
    product in the same call; D's 1 x 1 pivots count by sign, its 2 x 2
    pivots by their own determinant and trace.  The cost is O(N m^2) for
    blocks of m rows.  Each block is scattered from the triplets when the
    count reaches it, into one m x m and one b x b array, so the memory
    beyond the triplets' O(nnz(M)) is O(m^2 + N).
    """
    N, m, b = blocks.N, blocks.m, blocks.b
    n_blocks = -(-N // m)
    pivot, sub, ipiv = np.empty(N), np.zeros(N), np.empty(N, dtype=int)
    shift = sigma * np.eye(m)
    A, C = np.empty((m, m)), np.empty((b, b))
    rhs = np.zeros((m, b), order="F")
    for q in range(n_blocks):
        S = blocks.block(2 * q, A)
        S -= shift
        if q:
            S[:b, :b] -= C @ x[m - b:]
        if q < n_blocks - 1:
            rhs[m - b:] = blocks.block(2 * q + 1, C).T
        else:
            S = S[:N - q * m, :N - q * m]  # and its solve is not used
        ldu, piv, x, info = dsysv(S, rhs[:len(S)], lower=1, overwrite_a=1)
        if info != 0:
            return None
        rows = slice(q * m, q * m + len(S))
        pivot[rows] = np.diagonal(ldu)
        sub[rows][:-1] = np.diagonal(ldu, -1)
        ipiv[rows] = piv
    return _positive_pivots(pivot, sub, ipiv)


def _positive_pivots(pivot: np.ndarray, sub: np.ndarray, ipiv: np.ndarray) -> Optional[int]:
    """Positive eigenvalues of the block diagonal D of ``dsytrf`` factors
    (lower storage): ``pivot`` is D's diagonal, ``sub`` its subdiagonal where
    a 2 x 2 pivot starts, ``ipiv`` the pivot indices.  None where D is
    singular or not finite.  Bunch-Kaufman's 2 x 2 pivots have a negative
    determinant, but each is counted from its own determinant and trace."""
    # a 2 x 2 pivot marks both its rows with one negative ipiv, a 1 x 1 pivot
    # its row with a positive one, so the negative rows pair off in order
    one = ipiv > 0
    two = np.flatnonzero(~one)[::2]
    det = pivot[two] * pivot[two + 1] - sub[two] * sub[two]
    trace = pivot[two] + pivot[two + 1]
    if not (np.all(np.isfinite(pivot)) and np.all(np.isfinite(det))
            and np.all(pivot[one] != 0.0) and np.all(det != 0.0)):
        return None
    return (int(np.count_nonzero(pivot[one] > 0.0)) + int(np.count_nonzero(det < 0.0))
            + 2 * int(np.count_nonzero((det > 0.0) & (trace > 0.0))))


def spectral_measure(H: DiscretizedOperator, x) -> AtomicMeasure:
    """Atomic spectral measure of the vector x: atoms (lambda_j, |<v_j, x>|^2)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (H.N,):
        raise DomainError("vector length does not match the operator grid")
    norm_sq = float(x @ x)
    if norm_sq <= 0.0:
        raise DomainError("x must be a nonzero vector")
    vals, vecs = H._eig
    coeff = vecs.T @ x
    weights = coeff * coeff
    keep = weights > 0.0
    # eigenvalues within the validation tolerance of 0 count as 0
    positions = np.minimum(vals[keep], 0.0)
    mu = AtomicMeasure.from_points(positions, weights[keep])
    if abs(mu.mass - norm_sq) > 1e-12 * norm_sq:
        raise InvariantViolation("spectral measure mass does not match ||x||^2")
    return mu


# ---------------------------------------------------------------------------
# the metric on potentials
# ---------------------------------------------------------------------------


class MetricValue(float):
    """Float metric value with the series tail bound and per-term data attached."""

    def __new__(cls, value: float, tail_bound: float, terms, J: int):
        obj = super().__new__(cls, value)
        obj.tail_bound = float(tail_bound)
        obj.terms = tuple(float(t) for t in terms)
        obj.J = int(J)
        return obj


def _sup_abs_diff(V: Potential, U: Potential, j: int, spacing: float) -> float:
    """sup over the closed ball |x| <= j of |V - U|, approximated on a grid."""
    if V.is_radial and U.is_radial:
        m = int(math.ceil(j / spacing)) + 1
        r = np.linspace(0.0, float(j), m)
        pts = r if V.nu == 1 else np.stack([r, np.zeros_like(r)], axis=-1)
        return float(np.max(np.abs(V.eval(pts) - U.eval(pts))))
    m = int(math.ceil(2.0 * j / spacing)) + 1
    axis = np.linspace(-float(j), float(j), m)
    if V.nu == 1:
        pts = axis
    else:
        gx, gy = np.meshgrid(axis, axis, indexing="ij")
        pts = np.stack([gx.ravel(), gy.ravel()], axis=-1)
        mask = np.sum(pts * pts, axis=-1) <= float(j) ** 2
        pts = pts[mask]
    return float(np.max(np.abs(V.eval(pts) - U.eval(pts))))


def metric_d(V: Potential, U: Potential, J: int = 20, tail_tol: float = 1e-5) -> MetricValue:
    """Partial sum of sum_j min(2^-j, sup_{|x| <= j} |V - U|) up to j = J.

    The neglected tail is below 2^-J; the precondition 2^(-J+1) <= tail_tol
    guarantees it is within the caller's tolerance.  The supremum over
    each closed ball is approximated by sampling with spacing
    0.01 j + 0.01.
    """
    if V.nu != U.nu:
        raise DomainError("potentials live in different dimensions")
    if V.a_bound != U.a_bound:
        raise DomainError("potentials have different a_bound")
    if int(J) != J or J < 0:
        raise DomainError("J must be a nonnegative integer")
    if not 2.0 ** (-J + 1) <= tail_tol:
        raise DomainError("J too small for the requested tail_tol")
    if V.is_radial and U.is_radial:
        # V and U are evaluated once, on every term's radii concatenated; the
        # evaluation is elementwise, so each term's sup is _sup_abs_diff's
        radii = [np.linspace(0.0, float(j), int(math.ceil(j / (_SUP_STEP * j + _SUP_STEP))) + 1)
                 for j in range(J + 1)]
        r = np.concatenate(radii)
        pts = r if V.nu == 1 else np.stack([r, np.zeros_like(r)], axis=-1)
        starts = np.cumsum([0] + [x.size for x in radii[:-1]])
        sups = np.maximum.reduceat(np.abs(V.eval(pts) - U.eval(pts)), starts).tolist()
    else:
        sups = [_sup_abs_diff(V, U, j, _SUP_STEP * j + _SUP_STEP) for j in range(J + 1)]
    terms = [min(2.0 ** (-j), sup_j) for j, sup_j in enumerate(sups)]
    return MetricValue(float(np.sum(terms)), tail_bound=2.0 ** (-J), terms=terms, J=J)


# ---------------------------------------------------------------------------
# resolvent diagnostics at the spectral point i
# ---------------------------------------------------------------------------


def resolvent_apply(H: DiscretizedOperator, u) -> np.ndarray:
    """(iI - H)^(-1) u by a cached solve, refined to residual <= 1e-10 ||u||.

    Raises InvariantViolation when the residual still exceeds that bound
    after three refinement rounds.
    """
    u = np.asarray(u)
    if u.shape != (H.N,):
        raise DomainError("vector length does not match the operator grid")
    u = u.astype(complex)
    norm_u = float(np.linalg.norm(u))
    if norm_u == 0.0:
        return np.zeros(H.N, dtype=complex)
    solve = H._resolvent_solver
    w = solve(u)
    for rounds in range(4):
        r = u - (1j * w - H.apply(w))
        resid = float(np.linalg.norm(r))
        if resid <= 1e-12 * norm_u or rounds == 3:
            break
        w = w + solve(r)
    if resid > 1e-10 * norm_u:
        raise InvariantViolation(f"resolvent residual {resid!r} exceeds 1e-10 ||u|| = "
                                 f"{1e-10 * norm_u!r}")
    return w


def resolvent_gap(H_approx: DiscretizedOperator, H: DiscretizedOperator, u) -> tuple:
    """(lhs, rhs) of the second-resolvent-identity bound at the point i.

    lhs = ||R_i(H_approx) u - R_i(H) u||, rhs = ||(V_approx - V) R_i(H) u||
    with pointwise multiplication on the shared grid; the resolvent of a
    self-adjoint operator at i has norm <= 1, so lhs <= rhs up to solver
    tolerance.
    """
    return _resolvent_gap(H_approx, H, u, resolvent_apply(H, u))


def _resolvent_gap(H_approx: DiscretizedOperator, H: DiscretizedOperator, u,
                   ru: np.ndarray) -> tuple:
    """``resolvent_gap(H_approx, H, u)`` given ``ru = resolvent_apply(H, u)``,
    so one solve on H serves every H_approx."""
    if (H_approx.nu, H_approx.L, H_approx.h, H_approx.N) != (H.nu, H.L, H.h, H.N):
        raise DomainError("operators are not discretized on the same grid")
    ru_approx = resolvent_apply(H_approx, u)
    lhs = float(np.linalg.norm(ru_approx - ru))
    rhs = float(np.linalg.norm((H_approx.v_diag - H.v_diag) * ru))
    return lhs, rhs


# ---------------------------------------------------------------------------
# descriptor and CSV formats
# ---------------------------------------------------------------------------


def _entries(V: Potential, prefix: str = "") -> list:
    """Descriptor entries of V, then those of its base prefixed by ``base.``."""
    out = [f"{prefix}kind={V.kind}", f"{prefix}nu={V.nu}", f"{prefix}a_bound={float(V.a_bound)!r}"]
    for key, val in sorted(V.params.items()):
        text = (",".join(repr(float(v)) for v in val) if key == "values"
                else str(val) if isinstance(val, int) else repr(float(val)))
        out.append(f"{prefix}{key}={text}")
    return out + (_entries(V.base, prefix + "base.") if V.base is not None else [])


def potential_to_text(V: Potential) -> str:
    entries = _entries(V)
    return "\n".join(["potential " + " ".join(entries[:3])] + entries[3:]) + "\n"


def _build_potential(entries: dict) -> Potential:
    own = {key: val for key, val in entries.items() if not key.startswith("base.")}
    base = {key[5:]: val for key, val in entries.items() if key.startswith("base.")}
    kind = own.pop("kind", None)
    if kind not in _KINDS:
        raise DomainError(f"unknown potential kind: {kind!r}")
    casts = {"nu": int, "a_bound": float, **_KINDS[kind].params}
    if kind == "sampled" and own.get("nu") != "2":
        del casts["n"]
    if set(own) != set(casts):
        raise DomainError(
            f"{kind} potential: unknown parameters {sorted(set(own) - set(casts))}, "
            f"missing {sorted(set(casts) - set(own))}"
        )
    params = {}
    for key, val in own.items():
        try:
            params[key] = casts[key](val)
        except ValueError:
            raise DomainError(f"potential parameter {key}={val!r} is not a number") from None
    base = _build_potential(base) if base else None
    try:
        return Potential(kind=kind, nu=params.pop("nu"), a_bound=params.pop("a_bound"),
                         params=params, base=base)
    except InvariantViolation as exc:  # parsed values are input, so out of bounds is bad input
        raise DomainError(f"{kind} potential: {exc}") from None


def potential_from_text(text: str) -> Potential:
    tag, entries, rows = read_descriptor(text, "potential")
    if tag != "potential":
        raise DomainError("not a potential descriptor")
    if rows:
        raise DomainError(f"malformed potential entry: {rows[0]!r}")
    return _build_potential(entries)


def save_potential(V: Potential, path) -> None:
    write_ascii(path, potential_to_text(V))


def load_potential(path) -> Potential:
    return potential_from_text(read_ascii(path))


def spectrum_to_csv(H: DiscretizedOperator, path) -> None:
    """Write the spectrum as CSV with columns (index, eigenvalue), streamed in
    blocks of rows by ``write_csv``; no list of all N values or rows is held."""
    write_csv(path, ("index", "eigenvalue"), enumerate(map(float, H.eigenvalues)))

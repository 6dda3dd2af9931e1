"""Potentials, Dirichlet-box discretizations, and operator diagnostics.

The operators built here are ``H = Lap_h + diag(V)`` on the box
``[-L, L]^nu`` (nu in {1, 2}) with Dirichlet boundary conditions and a
bounded potential ``-a <= V <= 0``, plus the exact multiplication-model
generator ``(Mu)(y) = -y u(y)``.  ``discretize`` builds H once, for both
dimensions, as one sparse matrix: the 1-D second-difference matrix T, or
the Kronecker sum of T with itself in 2-D, plus ``diag(V)``.

A metric on potentials ``d(V, U) = sum_j min(2^-j, sup_{|x| <= j} |V - U|)``
and two canonical approximation sequences (truncation and downward shift)
support convergence studies; resolvent diagnostics quantify how close two
discretized operators are in the strong-resolvent sense.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
from scipy import sparse
from scipy.linalg import eigh, eigh_tridiagonal

from .errors import DomainError, InvariantViolation, ResourceCapError, read_ascii
from .measures import AtomicMeasure, DensityMeasure, monomial_profile_measure, uniform_measure

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
    "dirichlet_laplacian_eigenvalues",
    "spectral_measure",
    "MetricValue",
    "metric_d",
    "resolvent_apply",
    "resolvent_gap",
    "MultiplicationModel",
    "potential_to_text",
    "potential_from_text",
    "save_potential",
    "load_potential",
    "spectrum_to_csv",
]

_DEFAULT_N_CAP = 3600
_BOUND_SLACK = 1e-12
_CHECK_POINTS = 10_000
_CHECK_RANGE = 100.0

_RADIAL_KINDS = {"constant", "gaussian-well", "exp-well", "square-well"}
_WRAPPER_KINDS = {"truncated", "shifted"}
#: Parameters that must be positive and finite, per kind.  They are checked on
#: construction, so descriptors parsed from text get the same checks as
#: the helper constructors.
_POSITIVE_PARAMS = {
    "gaussian-well": ("depth", "width"),
    "exp-well": ("depth", "width"),
    "square-well": ("depth", "radius"),
    "truncated": ("k",),
    "shifted": ("l",),
}


# ---------------------------------------------------------------------------
# potentials
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Potential:
    """Bounded potential with -a_bound <= V(x) <= 0 on R^nu, nu in {1, 2}.

    Closed-form kinds are validated on 10^4 fixed pseudo-random points
    at construction; sampled kinds are validated on their samples.
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
        if self.kind in _WRAPPER_KINDS:
            if self.base is None:
                raise DomainError(f"{self.kind} potential needs a base potential")
            if self.base.nu != self.nu:
                raise DomainError("wrapper and base dimensions differ")
        elif self.base is not None:
            raise DomainError(f"{self.kind} potential takes no base")
        for key in _POSITIVE_PARAMS.get(self.kind, ()):
            if not 0 < self.params[key] < math.inf:
                raise DomainError(f"{self.kind} potential needs a finite {key} > 0, "
                                  f"got {self.params[key]!r}")
        if self.kind == "shifted" and self.params["a"] != self.base.a_bound:
            raise DomainError("shift level a must equal the a_bound of the base potential")
        if self.kind == "sampled":
            vals = np.asarray(self.params["values"], dtype=float)
            if not self.params["grid_hi"] > self.params["grid_lo"]:
                raise DomainError("grid_hi must exceed grid_lo")
            side = self.params["n"] if self.nu == 2 else vals.size
            if side < 2 or vals.size != side ** self.nu:
                raise DomainError(f"a nu={self.nu} sampled potential needs n^{self.nu} values "
                                  f"with n >= 2, got {vals.size}")
            self._check_values(vals)
        else:
            rng = np.random.default_rng(987654321)
            if self.nu == 1:
                pts = rng.uniform(-_CHECK_RANGE, _CHECK_RANGE, _CHECK_POINTS)
            else:
                pts = rng.uniform(-_CHECK_RANGE, _CHECK_RANGE, (_CHECK_POINTS, 2))
            self._check_values(self.eval(pts))

    def _check_values(self, vals: np.ndarray) -> None:
        vals = np.asarray(vals, dtype=float)
        if np.any(~np.isfinite(vals)):
            raise InvariantViolation("potential evaluates to a non-finite value")
        if np.any(vals > _BOUND_SLACK):
            raise InvariantViolation("potential must be <= 0 everywhere")
        if np.any(vals < -self.a_bound - _BOUND_SLACK):
            raise InvariantViolation("potential must be >= -a_bound everywhere")

    # -- geometry helpers ---------------------------------------------

    @property
    def is_radial(self) -> bool:
        if self.kind in _RADIAL_KINDS:
            return True
        if self.kind in _WRAPPER_KINDS:
            return self.base.is_radial
        return False

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
        k = self.kind
        if k == "constant":
            shape = arr.shape if self.nu == 1 else arr.shape[:-1]
            return np.full(shape, self.params["value"], dtype=float)
        if k == "gaussian-well":
            r = self._radius(arr)
            return -self.params["depth"] * np.exp(-((r / self.params["width"]) ** 2))
        if k == "exp-well":
            r = self._radius(arr)
            return -self.params["depth"] * np.exp(-r / self.params["width"])
        if k == "square-well":
            r = self._radius(arr)
            return np.where(r <= self.params["radius"], -self.params["depth"], 0.0)
        if k == "sampled":
            return self._eval_sampled(arr)
        if k == "truncated":
            r = self._radius(arr)
            return np.where(r < self.params["k"], self.base.eval(arr), 0.0)
        if k == "shifted":
            l = self.params["l"]
            a = self.params["a"]
            return (l / (l + 1.0)) * self.base.eval(arr) - a / (l + 1.0)
        raise DomainError(f"unknown potential kind: {k!r}")

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
        return (
            vv[ix, iy] * (1 - tx) * (1 - ty)
            + vv[ix + 1, iy] * tx * (1 - ty)
            + vv[ix, iy + 1] * (1 - tx) * ty
            + vv[ix + 1, iy + 1] * tx * ty
        )

    def describe(self) -> str:
        return f"potential kind={self.kind} nu={self.nu} a_bound={self.a_bound!r}"


def constant_potential(value: float, nu: int = 1, a_bound: Optional[float] = None) -> Potential:
    """V identically equal to ``value`` (<= 0)."""
    if value > 0.0:
        raise InvariantViolation("constant potential must be <= 0")
    if a_bound is None:
        a_bound = -value if value < 0.0 else 1.0
    return Potential(kind="constant", nu=nu, a_bound=float(a_bound), params={"value": float(value)})


def gaussian_well(depth: float = 1.0, width: float = 1.0, nu: int = 1,
                  a_bound: Optional[float] = None) -> Potential:
    """V(x) = -depth * exp(-(|x| / width)^2)."""
    return Potential(
        kind="gaussian-well", nu=nu, a_bound=float(a_bound if a_bound is not None else depth),
        params={"depth": float(depth), "width": float(width)},
    )


def exp_well(depth: float = 1.0, width: float = 1.0, nu: int = 1,
             a_bound: Optional[float] = None) -> Potential:
    """V(x) = -depth * exp(-|x| / width)."""
    return Potential(
        kind="exp-well", nu=nu, a_bound=float(a_bound if a_bound is not None else depth),
        params={"depth": float(depth), "width": float(width)},
    )


def square_well(depth: float = 1.0, radius: float = 1.0, nu: int = 1,
                a_bound: Optional[float] = None) -> Potential:
    """V(x) = -depth for |x| <= radius, 0 outside."""
    return Potential(
        kind="square-well", nu=nu, a_bound=float(a_bound if a_bound is not None else depth),
        params={"depth": float(depth), "radius": float(radius)},
    )


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


def dirichlet_laplacian_eigenvalues(n: int, h: float) -> np.ndarray:
    """Closed-form spectrum of the 1-D Dirichlet second-difference operator.

    Returns -(4/h^2) sin^2(j pi / (2 (n+1))), j = 1..n, descending.
    """
    j = np.arange(1, n + 1, dtype=float)
    vals = -(4.0 / (h * h)) * np.sin(j * math.pi / (2.0 * (n + 1))) ** 2
    return np.sort(vals)[::-1]


@dataclass(frozen=True)
class DiscretizedOperator:
    """H = Lap_h + diag(V) on a Dirichlet box, eigen-decomposed and cached.

    ``H`` is the one read-only sparse (CSR) matrix of the operator;
    ``apply`` and every consumer read it.  ``eigenvalues`` are sorted
    descending (closest to 0 first) and ``eigenvectors[:, j]`` is the
    orthonormal eigenvector for ``eigenvalues[j]``; the solver follows the
    dimension (tridiagonal in 1-D, dense in 2-D).  The grid is the
    interior of [-L, L]^nu with spacing h; for nu=2 the flat index is
    ``i * n_side + j`` for the point ``(x_i, y_j)``.
    """

    nu: int
    L: float
    h: float
    n_side: int
    N: int
    potential: Potential
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    grid: np.ndarray
    v_diag: np.ndarray
    H: sparse.csr_array

    def __post_init__(self) -> None:
        for arr in (self.eigenvalues, self.eigenvectors, self.grid, self.v_diag,
                    self.H.data, self.H.indices, self.H.indptr):
            np.asarray(arr).setflags(write=False)

    @property
    def lambda_max(self) -> float:
        return float(self.eigenvalues[0])

    def apply(self, u: np.ndarray) -> np.ndarray:
        """Apply H to a vector or a column stack (real or complex)."""
        u = np.asarray(u)
        if u.shape[0] != self.N:
            raise DomainError("vector length does not match the grid")
        return self.H @ u

    def describe(self) -> str:
        return (
            f"operator nu={self.nu} L={self.L!r} h={self.h!r} N={self.N} "
            f"potential={self.potential.kind}"
        )


def discretize(V: Potential, L: float, h: float, n_cap: int = _DEFAULT_N_CAP,
               validate: bool = True) -> DiscretizedOperator:
    """Discretize H = Lap_h + diag(V) on [-L, L]^nu with Dirichlet walls.

    ``L`` and ``h`` must be positive with 2L/h finite, and ``h`` must
    divide 2L into at least 8 cells; the interior point count
    N = (2L/h - 1)^nu must not exceed ``n_cap``.
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
    if N > n_cap:
        raise ResourceCapError(
            f"grid size N={N} exceeds the cap {n_cap}; enlarge h or raise n_cap"
        )
    coords = -L + h * np.arange(1, n + 1, dtype=float)
    if V.nu == 1:
        grid = coords
        v_diag = np.asarray(V.eval(coords), dtype=float)
    else:
        gx, gy = np.meshgrid(coords, coords, indexing="ij")
        grid = np.stack([gx.ravel(), gy.ravel()], axis=-1)
        v_diag = np.asarray(V.eval(grid), dtype=float)
    if np.any(v_diag > _BOUND_SLACK) or np.any(v_diag < -V.a_bound - _BOUND_SLACK):
        raise InvariantViolation("potential violates its bounds on the grid")

    inv_h2 = 1.0 / (h * h)
    T = sparse.diags_array([inv_h2, -2.0 * inv_h2, inv_h2], offsets=[-1, 0, 1], shape=(n, n))
    H = ((T if V.nu == 1 else sparse.kronsum(T, T)) + sparse.diags_array(v_diag)).tocsr()
    if V.nu == 1:
        vals, vecs = eigh_tridiagonal(H.diagonal(), H.diagonal(1))
    else:
        vals, vecs = eigh(H.toarray())
    order = np.argsort(vals)[::-1]
    vals = vals[order]
    vecs = vecs[:, order]

    op = DiscretizedOperator(
        nu=V.nu, L=float(L), h=float(h), n_side=n, N=N, potential=V,
        eigenvalues=vals, eigenvectors=vecs, grid=grid, v_diag=v_diag, H=H,
    )
    if validate:
        _validate_operator(op)
    return op


def _validate_operator(op: DiscretizedOperator) -> None:
    scale = float(np.max(np.abs(op.eigenvalues)))
    if np.any(op.eigenvalues > 1e-10 * scale):
        raise InvariantViolation("positive eigenvalue in a Dirichlet discretization")
    gram = op.eigenvectors.T @ op.eigenvectors
    if float(np.max(np.abs(gram - np.eye(op.N)))) > 1e-10:
        raise InvariantViolation("eigenvector basis is not orthonormal to 1e-10")
    resid = op.apply(op.eigenvectors) - op.eigenvectors * op.eigenvalues[None, :]
    worst = float(np.max(np.linalg.norm(resid, axis=0)))
    if worst > 1e-9 * scale:
        raise InvariantViolation("eigenpair residual exceeds 1e-9 * ||H||")


def spectral_measure(H: DiscretizedOperator, x) -> AtomicMeasure:
    """Atomic spectral measure of the vector x: atoms (lambda_j, |<v_j, x>|^2)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (H.N,):
        raise DomainError("vector length does not match the operator grid")
    norm_sq = float(x @ x)
    if norm_sq <= 0.0:
        raise DomainError("x must be a nonzero vector")
    coeff = H.eigenvectors.T @ x
    weights = coeff * coeff
    keep = weights > 0.0
    # eigenvalues within the validation tolerance of 0 count as 0
    positions = np.minimum(H.eigenvalues[keep], 0.0)
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
    if j == 0:
        if V.nu == 1:
            pts = np.array([0.0])
        else:
            pts = np.zeros((1, 2))
        return float(np.max(np.abs(V.eval(pts) - U.eval(pts))))
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


def metric_d(V: Potential, U: Potential, J: int = 20, tail_tol: float = 1e-5,
             h_sup: Optional[float] = None) -> MetricValue:
    """Partial sum of sum_j min(2^-j, sup_{|x| <= j} |V - U|) up to j = J.

    The neglected tail is below 2^-J; the precondition 2^(-J+1) <= tail_tol
    guarantees it is within the caller's tolerance.  The supremum over
    each closed ball is approximated by sampling with spacing
    0.01 j + 0.01 (or the constant ``h_sup`` if given).
    """
    if V.nu != U.nu:
        raise DomainError("potentials live in different dimensions")
    if V.a_bound != U.a_bound:
        raise DomainError("potentials have different a_bound")
    if int(J) != J or J < 0:
        raise DomainError("J must be a nonnegative integer")
    if not 2.0 ** (-J + 1) <= tail_tol:
        raise DomainError("J too small for the requested tail_tol")
    terms = []
    for j in range(J + 1):
        spacing = h_sup if h_sup is not None else 0.01 * j + 0.01
        sup_j = _sup_abs_diff(V, U, j, spacing)
        terms.append(min(2.0 ** (-j), sup_j))
    return MetricValue(float(np.sum(terms)), tail_bound=2.0 ** (-J), terms=terms, J=J)


# ---------------------------------------------------------------------------
# resolvent diagnostics at the spectral point i
# ---------------------------------------------------------------------------


def resolvent_apply(H: DiscretizedOperator, u) -> np.ndarray:
    """(iI - H)^(-1) u through the eigenbasis, refined to residual <= 1e-10 ||u||."""
    u = np.asarray(u)
    if u.shape != (H.N,):
        raise DomainError("vector length does not match the operator grid")
    u = u.astype(complex)
    norm_u = float(np.linalg.norm(u))
    if norm_u == 0.0:
        return np.zeros(H.N, dtype=complex)
    inv = 1.0 / (1j - H.eigenvalues)
    w = H.eigenvectors @ (inv * (H.eigenvectors.T @ u))
    for _ in range(3):
        resid = u - (1j * w - H.apply(w))
        if float(np.linalg.norm(resid)) <= 1e-12 * norm_u:
            break
        w = w + H.eigenvectors @ (inv * (H.eigenvectors.T @ resid))
    return w


def resolvent_gap(H_approx: DiscretizedOperator, H: DiscretizedOperator, u) -> tuple:
    """(lhs, rhs) of the second-resolvent-identity bound at the point i.

    lhs = ||R_i(H_approx) u - R_i(H) u||, rhs = ||(V_approx - V) R_i(H) u||
    with pointwise multiplication on the shared grid; the resolvent of a
    self-adjoint operator at i has norm <= 1, so lhs <= rhs up to solver
    tolerance.
    """
    if (H_approx.nu, H_approx.L, H_approx.h, H_approx.N) != (H.nu, H.L, H.h, H.N):
        raise DomainError("operators are not discretized on the same grid")
    ru = resolvent_apply(H, u)
    ru_approx = resolvent_apply(H_approx, u)
    lhs = float(np.linalg.norm(ru_approx - ru))
    rhs = float(np.linalg.norm((H_approx.v_diag - H.v_diag) * ru))
    return lhs, rhs


# ---------------------------------------------------------------------------
# exact multiplication model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MultiplicationModel:
    """Generator (Mu)(y) = -y u(y) applied to a closed-form profile f.

    The spectral measure of the vector f is |f(y)|^2 dy pushed to
    lambda = -y, available exactly as a DensityMeasure.  Profile kinds:

    * ``monomial``: f(y) = y**delta on [0, 1] (params: delta)
    * ``indicator``: f = 1 on [y_lo, y_hi] (params: y_lo, y_hi)
    """

    profile_kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.profile_kind == "monomial":
            if not self.params.get("delta", 0.0) > 0.0:
                raise DomainError("monomial profile needs delta > 0")
        elif self.profile_kind == "indicator":
            lo = self.params.get("y_lo", 0.0)
            hi = self.params.get("y_hi", 0.0)
            if not (0.0 <= lo < hi):
                raise DomainError("indicator profile needs 0 <= y_lo < y_hi")
        else:
            raise DomainError(f"unknown profile kind: {self.profile_kind!r}")
        if not self.norm_sq > 0.0:
            raise InvariantViolation("profile must have positive finite norm")

    def profile(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        if self.profile_kind == "monomial":
            d = self.params["delta"]
            return np.where((y >= 0.0) & (y <= 1.0), np.abs(y) ** d, 0.0)
        lo, hi = self.params["y_lo"], self.params["y_hi"]
        return np.where((y >= lo) & (y <= hi), 1.0, 0.0)

    @property
    def support_bound(self) -> float:
        if self.profile_kind == "monomial":
            return 1.0
        return float(self.params["y_hi"])

    @property
    def norm_sq(self) -> float:
        if self.profile_kind == "monomial":
            return 1.0 / (2.0 * self.params["delta"] + 1.0)
        return float(self.params["y_hi"] - self.params["y_lo"])

    def spectral_measure(self) -> DensityMeasure:
        if self.profile_kind == "monomial":
            return monomial_profile_measure(self.params["delta"])
        return uniform_measure(self.params["y_lo"], self.params["y_hi"])


# ---------------------------------------------------------------------------
# descriptor and CSV formats
# ---------------------------------------------------------------------------


def _dump_params(V: Potential, prefix: str, lines: list) -> None:
    for key in sorted(V.params):
        val = V.params[key]
        if key == "values":
            joined = ",".join(repr(float(v)) for v in val)
            lines.append(f"{prefix}values={joined}")
        elif isinstance(val, int):
            lines.append(f"{prefix}{key}={val}")
        else:
            lines.append(f"{prefix}{key}={float(val)!r}")
    if V.base is not None:
        lines.append(f"{prefix}base.kind={V.base.kind}")
        lines.append(f"{prefix}base.nu={V.base.nu}")
        lines.append(f"{prefix}base.a_bound={float(V.base.a_bound)!r}")
        _dump_params(V.base, prefix + "base.", lines)


def potential_to_text(V: Potential) -> str:
    lines = [f"potential kind={V.kind} nu={V.nu} a_bound={float(V.a_bound)!r}"]
    _dump_params(V, "", lines)
    return "\n".join(lines) + "\n"


#: Parameters a descriptor of each kind must give, besides kind, nu and
#: a_bound; a nu=2 sampled potential also gives its side length n.
_KIND_PARAMS = {
    "constant": ("value",),
    "gaussian-well": ("depth", "width"),
    "exp-well": ("depth", "width"),
    "square-well": ("depth", "radius"),
    "sampled": ("grid_lo", "grid_hi", "values"),
    "truncated": ("k",),
    "shifted": ("l", "a"),
}
_INT_PARAMS = {"k", "l", "n", "nu"}


def _parse_param(key: str, text: str):
    try:
        if key == "values":
            return tuple(float(tok) for tok in text.split(","))
        return int(text) if key in _INT_PARAMS else float(text)
    except ValueError:
        raise DomainError(f"potential parameter {key}={text!r} is not a number") from None


def _build_potential(flat: dict) -> Potential:
    own = {key: val for key, val in flat.items() if not key.startswith("base.")}
    base = {key[5:]: val for key, val in flat.items() if key.startswith("base.")}
    kind = own.pop("kind", None)
    if kind not in _KIND_PARAMS:
        raise DomainError(f"unknown potential kind: {kind!r}")
    need = {"nu", "a_bound", *_KIND_PARAMS[kind]}
    if kind == "sampled" and own.get("nu") == "2":
        need.add("n")
    if set(own) != need:
        raise DomainError(
            f"{kind} potential: unknown parameters {sorted(set(own) - need)}, "
            f"missing {sorted(need - set(own))}"
        )
    params = {key: _parse_param(key, val) for key, val in own.items()}
    base = _build_potential(base) if base else None
    try:
        return Potential(kind=kind, nu=params.pop("nu"), a_bound=params.pop("a_bound"),
                         params=params, base=base)
    except InvariantViolation as exc:  # parsed values are input, so out of bounds is bad input
        raise DomainError(f"{kind} potential: {exc}") from None


def potential_from_text(text: str) -> Potential:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise DomainError("empty potential descriptor")
    head = lines[0].split()
    if not head or head[0] != "potential":
        raise DomainError("not a potential descriptor")
    flat = {}
    for item in head[1:] + lines[1:]:
        if "=" not in item:
            raise DomainError(f"malformed descriptor entry: {item!r}")
        key, val = item.split("=", 1)
        flat[key.strip()] = val.strip()
    return _build_potential(flat)


def save_potential(V: Potential, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(potential_to_text(V))


def load_potential(path) -> Potential:
    return potential_from_text(read_ascii(path))


def spectrum_to_csv(H: DiscretizedOperator, path) -> None:
    """Write the spectrum as CSV with columns (index, eigenvalue)."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("index,eigenvalue\n")
        for j, lam in enumerate(H.eigenvalues):
            fh.write(f"{j},{float(lam)!r}\n")

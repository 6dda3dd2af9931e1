"""Potentials, Dirichlet-box discretizations, and operator diagnostics.

The operators built here are ``H = Lap_h + diag(V)`` on the box
``[-L, L]^nu`` (nu in {1, 2}) with Dirichlet boundary conditions and a
bounded potential ``-a <= V <= 0``.  The matrix is H's 3-point (1-D) or
5-point (2-D) stencil, held as numpy diagonals: ``-2 nu / h^2 + V`` on the
main one, ``1/h^2`` at offset 1 (0 across the end of a grid row in 2-D) and,
in 2-D, ``1/h^2`` at offset n_side.  ``discretize`` builds only the grid and
V on it.  Every solve on H runs on demand and is cached on the operator: the
top eigenpair, the resolvent factorization, the eigenvalues alone, which the
spectrum CSV reads, and the full eigendecomposition, which only the spectral
measure reads.  The eigenvalues are banded LAPACK solves (band reduction,
then a tridiagonal solve) on H in lower band storage, whose half-bandwidth
is ``n_side ** (nu - 1)``: 1 in 1-D, n_side in 2-D; so is the 2-D
eigendecomposition.  In 1-D, where H is tridiagonal, the other three read
the two diagonals: the eigendecomposition is ``eigh_tridiagonal``
(``?stevd`` in current scipy), the top eigenpair LAPACK Sturm-count
bisection and inverse iteration (``?stebz``, ``?stein``) and the resolvent a
tridiagonal LU (``?gttrf``).  2-D keeps an ARPACK shift-invert top
eigenpair, on a scipy CSR copy of H, and a SuperLU factorization of a CSC
copy of ``iI - H``; each copy is built from the diagonals at its first call.

A 2-D V that is swap-symmetric on the grid, ``V(x, y) == V(y, x)`` bit for
bit, makes H commute with the swap (x, y) -> (y, x).  Every radial kind is,
and so is a sampled V with a symmetric sample matrix.  The eigenvalues are
then solved on the swap's even and odd sectors: two bands of about N/2
points and half-bandwidth about n_side/2, whose spectra together are H's.
The two run at once on two threads: the values-only solves call LAPACK
``dsbevd`` through ctypes, which releases the GIL, and give ``eig_banded``'s
values bit for bit at any thread count.
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
Each block is copied from H's diagonals when the count reaches it, so the
check holds one m x m block beyond the diagonals, never all blocks dense.

scipy is loaded at the first solve, not with this module, so ``import
semistab`` is numpy-only.  Every solve the benchmarked commands run calls
LAPACK through ctypes (``_lapack``): the 1-D top eigenpair (``dstebz``,
``dstein``), the 1-D resolvent (``zgttrf``, ``zgttrs``), the values-only
banded solves (``dsbevd``) and the inertia counts (``dsysv``), each bit for
bit the routine scipy's f2py wrapper calls, with the same arguments.  The
routines come from the ``scipy.linalg.cython_lapack`` extension, loaded from
its file (``_cython_lapack``): ``import scipy.linalg`` would also run
scipy's array-API shim, which imports numpy.f2py, numpy.testing and numpy.ma,
most of that import's time.  The results do not rest on that: were the
extension to import scipy.linalg itself, a run would only be slower.  The
other solves import scipy's solver at the call: the full eigendecomposition
(``eigh_tridiagonal``, ``eig_banded``), which only the spectral measure
reads, and the 2-D top eigenpair and 2-D resolvent, which load
``scipy.sparse`` and ``scipy.sparse.linalg`` (the sparse copies, ARPACK,
SuperLU).

A metric on potentials ``d(V, U) = sum_j min(2^-j, sup_{|x| <= j} |V - U|)``
and two canonical approximation sequences (truncation and downward shift)
support convergence studies; resolvent diagnostics quantify how close two
discretized operators are in the strong-resolvent sense.
"""

from __future__ import annotations

import ctypes
import importlib.machinery
import importlib.util
import math
import os
import sys
import threading
from dataclasses import dataclass, field
from functools import cache, cached_property, partial
from typing import Callable, Optional

import numpy as np

from .errors import (DomainError, InvariantViolation, ResourceCapError, read_ascii,
                     read_descriptor, write_ascii, write_csv)
from .measures import AtomicMeasure

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
#: ulps of a_bound by which V may round past its bounds 0 and -a_bound, as a
#: shift's arithmetic and a sampled potential's interpolation weights can
_GRID_ULPS = 4


def _slack(a_bound: float) -> float:
    return _GRID_ULPS * np.finfo(float).eps * a_bound


@cache
def _cython_lapack():
    """``scipy.linalg.cython_lapack``, the module ``_lapack`` binds from: the one in
    ``sys.modules`` if scipy.linalg has loaded it, else the extension loaded from its
    file, so that scipy.linalg's package ``__init__`` never runs.  The extension
    enters itself in ``sys.modules``; that entry is dropped again, so a later
    ``import scipy.linalg`` finds it unloaded and attaches this same module."""
    name = "scipy.linalg.cython_lapack"
    if name in sys.modules:
        return sys.modules[name]
    import scipy

    finder = importlib.machinery.FileFinder(
        os.path.join(scipy.__path__[0], "linalg"),
        (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES))
    spec = finder.find_spec(name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    if "scipy.linalg" not in sys.modules:
        sys.modules.pop(name, None)
    return module


@cache
def _lapack(name: str) -> Callable:
    """LAPACK routine ``name`` of ``scipy.linalg.cython_lapack``, bound with ctypes;
    a call releases the GIL.  Every argument is a pointer made by ``_by_ref``, so
    no argument types are declared: ctypes would run each argument through them,
    0.55 us more for an 11-argument ``zgttrs`` (2-core Xeon), which made a solve
    slower than scipy's f2py call."""
    capsule = _cython_lapack().__pyx_capi__[name]
    name_of = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))
    pointer_of = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    return ctypes.CFUNCTYPE(None)(pointer_of(capsule, name_of(capsule)))


#: a pointer to a writable C-contiguous array's data that keeps the array alive:
#: a zero-length ctypes array laid over its buffer
_ARRAY_DATA = ctypes.c_char * 0


def _by_ref(*values) -> list:
    """LAPACK arguments, each a pointer that keeps what it points to alive: an
    array's data (``_ARRAY_DATA``, else a c_void_p from numpy), a new c_int for an
    int, a new c_double for a float, a c_int or c_double itself (an output such as
    info), and a flag's bytes as they are."""
    refs = []
    for value in values:
        if isinstance(value, np.ndarray):
            try:
                value = _ARRAY_DATA.from_buffer(value)
            except TypeError:  # a read-only or not C-contiguous array
                value = value.ctypes.data_as(ctypes.c_void_p)
        elif isinstance(value, int):
            value = ctypes.byref(ctypes.c_int(value))
        elif isinstance(value, float):
            value = ctypes.byref(ctypes.c_double(value))
        elif isinstance(value, (ctypes.c_int, ctypes.c_double)):
            value = ctypes.byref(value)
        refs.append(value)
    return refs


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
        if hi > _slack(self.a_bound):
            raise InvariantViolation("potential must be <= 0 everywhere")
        if lo < -self.a_bound - _slack(self.a_bound):
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
            # past the double range, a narrow well's r / width is inf: exp(-inf) = 0 exactly
            with np.errstate(over="ignore"):
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

    The matrix is H's stencil, ``_diagonals``, computed from ``v_diag`` and
    h at the first read; ``apply`` and every solve read it.  The 2-D ARPACK
    solve reads it as ``H``, a read-only scipy CSR copy, and the 2-D SuperLU
    one as a CSC copy of ``iI - H``, each filled from the stencil's nonzero
    entries (``_triplets``) at its first call.  Each solve runs on first use
    and is cached on the operator:

    * ``lambda_max``: the top eigenvalue, from a top-eigenpair solve: LAPACK
      bisection and inverse iteration on the tridiagonal H in 1-D, an ARPACK
      shift-invert in 2-D;
    * ``eigenvalues``: every eigenvalue, sorted descending (closest to 0
      first), from values-only banded solves.  No eigenvector is
      computed; the values are checked on H itself by the trace and
      Frobenius identities and by Sylvester inertia counts of
      ``H - sigma I`` at a few shifts in spectral gaps, each a block LDL^T
      of H in blocks of about sqrt(N) rows (``_check_inertia``);
    * ``eigenvectors``: the full decomposition, from a tridiagonal (1-D) or
      banded (2-D) solve with vectors, with ``eigenvectors[:, j]`` the
      orthonormal eigenvector for the j-th eigenvalue, in the same order;
    * the factorization of ``iI - H`` behind ``resolvent_apply``: a
      tridiagonal LU in 1-D, a sparse LU in 2-D.

    The banded solves (LAPACK ``?sbevd``, in ``_band_eigenvalues`` and
    ``scipy.linalg.eig_banded``) read H in lower band storage, so neither
    forms a dense N x N copy of H; without vectors the band reduction costs
    O(N^2 b) at half-bandwidth b where a dense one costs O(N^3).  The 2-D
    full decomposition reads ``_band``, all of H with ``b = n_side``.
    ``eigenvalues`` reads it too in 1-D and for a 2-D V that is not
    swap-symmetric on the grid; for a swap-symmetric one it solves the swap's
    two sectors ``P+-^T H P+-`` (``_swap_sectors``, ``_sector_band``), of
    about N/2 points and ``b`` about n_side/2 each, a third of the unfolded
    work, at once on two threads.  The solves are independent, so
    ``lambda_max``, ``eigenvalues`` and the values paired with
    ``eigenvectors`` agree only to about 1e-12 times the Dirichlet spectral
    scale, not bit for bit.  Every computed eigenvalue and eigenpair is
    validated before it is cached.  The grid is the interior of [-L, L]^nu
    with spacing h; for nu=2 the flat index is ``i * n_side + j`` for the
    point ``(x_i, y_j)``.
    """

    nu: int
    L: float
    h: float
    n_side: int
    N: int
    potential: Potential
    grid: np.ndarray
    v_diag: np.ndarray

    def __post_init__(self) -> None:
        for arr in (self.grid, self.v_diag):
            np.asarray(arr).setflags(write=False)

    @cached_property
    def _diagonals(self) -> tuple:
        """H's nonzero lower diagonals as read-only ``(k, d_k)`` pairs, k ascending,
        with ``H[p + k, p] = H[p, p + k] = d_k[p]``: the main diagonal
        ``-2 nu / h^2 + v_diag``, ``1/h^2`` at k = 1, 0 where p ends a grid row in
        2-D, and in 2-D ``1/h^2`` at k = n_side."""
        inv_h2 = 1.0 / (self.h * self.h)
        off = np.full(self.N - 1, inv_h2)
        diagonals = [(0, -2.0 * self.nu * inv_h2 + self.v_diag), (1, off)]
        if self.nu == 2:
            off[self.n_side - 1::self.n_side] = 0.0  # no coupling across a grid row's end
            diagonals.append((self.n_side, np.full(self.N - self.n_side, inv_h2)))
        for _, d in diagonals:
            d.setflags(write=False)
        return tuple(diagonals)

    def _same_matrix(self, other: "DiscretizedOperator") -> bool:
        """H is ``other``'s H bit for bit: the stencils have the same offsets and
        diagonals of the same bytes, which cover nu, n_side and h.  Bytes never
        count -0.0 as 0.0 or one NaN payload as another, so every solve on one
        is, bit for bit, the same solve on the other."""
        return len(self._diagonals) == len(other._diagonals) and all(
            k == k_other and d.tobytes() == d_other.tobytes()
            for (k, d), (k_other, d_other) in zip(self._diagonals, other._diagonals))

    @cached_property
    def H(self):
        """H as a read-only scipy CSR matrix of the stencil's nonzero entries
        (``_triplets``), built (and scipy.sparse loaded) at the first read: the
        2-D ``lambda_max`` reads it."""
        from scipy.sparse import coo_array

        row, col, data = _triplets(self._diagonals)
        H = coo_array((data, (row, col)), shape=(self.N, self.N)).tocsr()
        for arr in (H.data, H.indices, H.indptr):
            arr.setflags(write=False)
        return H

    @cached_property
    def _band(self) -> np.ndarray:
        """H in LAPACK lower band storage, half-bandwidth ``n_side ** (nu - 1)``:
        row k holds ``d_k``, zero-padded."""
        band = np.zeros((self._diagonals[-1][0] + 1, self.N))
        for k, d in self._diagonals:
            band[k, :d.size] = d
        band.setflags(write=False)
        return band

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
        from scipy.linalg import eig_banded, eigh_tridiagonal

        if self.nu == 1:
            # eig_banded's ?sbevd would multiply the tridiagonal's eigenvectors by
            # its band reduction's Q, the identity here, in an N^3 DGEMM
            (_, d), (_, e) = self._diagonals
            vals, vecs = eigh_tridiagonal(d, e)
        else:
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
        bands = ([_sector_band(self._diagonals, *sector) for sector in _swap_sectors(self.n_side)]
                 if self._swap_symmetric else [self._band])
        vals = np.concatenate(_band_eigenvalues(bands))
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
            (_, d), (_, e) = self._diagonals
            vals, vecs = _tridiagonal_top(d, e)
        else:
            # H + cI is nonnegative and irreducible, so the top eigenvector is
            # positive and the constant start vector always overlaps it; a fixed
            # start vector also makes re-runs bit-identical
            from scipy.sparse.linalg import eigsh

            vals, vecs = eigsh(self.H, k=1, sigma=0.0, v0=np.ones(self.N))
        # bottom of the free Dirichlet spectrum; V <= 0 puts H's bottom below it
        n = self.n_side
        scale = self.nu * (4.0 / (self.h * self.h)) * math.sin(n * math.pi / (2.0 * (n + 1))) ** 2
        _check_eigenpairs(self, vals, vecs, scale)
        return float(vals[0])

    @cached_property
    def _resolvent_solver(self) -> Callable[[np.ndarray], np.ndarray]:
        """r -> (iI - H)^(-1) r from the LU factors of iI - H: LAPACK ``zgttrf``
        of the tridiagonal in 1-D, SuperLU of a CSC copy in 2-D."""
        if self.nu == 1:
            (_, d), (_, e) = self._diagonals
            info = ctypes.c_int()
            # LAPACK overwrites the sub- and superdiagonal with their factors, so each
            # is its own copy of -e, as complex with imaginary parts -0.0
            dl = -0j - e
            n, one, info_ref, *factors = _by_ref(self.N, 1, info, dl, 1j - d, dl.copy(),
                                                 np.empty(max(self.N - 2, 1), complex),
                                                 np.empty(self.N, np.intc))
            _lapack("zgttrf")(n, *factors, info_ref)
            if info.value != 0:
                raise InvariantViolation(f"tridiagonal LU of iI - H failed "
                                         f"(zgttrf info {info.value})")
            # every argument but the right-hand side is bound once (ldb is n), so a
            # solve is one copy of r and one call
            solve = partial(_lapack("zgttrs"), b"N", n, one, *factors)

            def solver(r: np.ndarray) -> np.ndarray:
                x = r.astype(complex)
                solve(_ARRAY_DATA.from_buffer(x), n, info_ref)
                return x
            return solver
        from scipy.sparse import coo_array
        from scipy.sparse.linalg import splu

        # 1j - d is never 0, so every diagonal entry is stored, also where d == 0
        (_, d), *off = self._diagonals
        row, col, data = _triplets(((0, 1j - d), *((k, -e) for k, e in off)))
        return splu(coo_array((data, (row, col)), shape=(self.N, self.N)).tocsc()).solve

    def apply(self, u: np.ndarray) -> np.ndarray:
        """Apply H to a vector or a column stack (real or complex), for finite u
        bit for bit as the CSR product ``H @ u``: each row sums its terms in
        column order, offsets -n_side, -1, 0, 1, n_side."""
        u = np.asarray(u)
        if u.shape[0] != self.N:
            raise DomainError("vector length does not match the grid")
        out = np.zeros(u.shape, np.result_type(np.float64, u.dtype))
        column = (slice(None),) + (None,) * (u.ndim - 1)  # a diagonal down a column stack
        (_, main), *off = self._diagonals
        for k, d in reversed(off):  # row p + k reads u[p]
            out[k:] += d[column] * u[:-k]
        out += main[column] * u
        for k, d in off:  # row p reads u[p + k]
            out[:-k] += d[column] * u[k:]
        return out


def discretize(V: Potential, L: float, h: float) -> DiscretizedOperator:
    """Discretize H = Lap_h + diag(V) on [-L, L]^nu with Dirichlet walls.

    ``L`` and ``h`` must be positive with 2L/h finite, and ``h`` must
    divide 2L into at least 8 cells; the interior point count
    N = (2L/h - 1)^nu must not exceed 3600.  Only the grid and the
    potential values are built here; H's diagonals and the solves are
    built on demand.
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
    slack = _slack(V.a_bound)
    if not np.all((v_diag <= slack) & (v_diag >= -V.a_bound - slack)):
        raise InvariantViolation("potential violates its bounds on the grid")
    # H's main diagonal as _diagonals builds it, and its scale as lambda_max
    # reads it: 1/h^2 overflows below h ~ 1e-154
    if not (math.isfinite(V.nu * (4.0 / (h * h)))
            and np.all(np.isfinite(-2.0 * V.nu * (1.0 / (h * h)) + v_diag))):
        raise DomainError(f"h={h!r} is too small: the stencil 2 nu / h^2 of H, or its "
                          f"scale 4 nu / h^2, is not finite")

    return DiscretizedOperator(nu=V.nu, L=float(L), h=float(h), n_side=n, N=N, potential=V,
                               grid=grid, v_diag=v_diag)


def _triplets(diagonals: tuple) -> tuple:
    """(row, col, value) arrays of the nonzero entries of the symmetric matrix
    with lower diagonals ``diagonals`` (``DiscretizedOperator._diagonals``):
    each nonzero ``d_k[p]`` at (p + k, p) and, for k > 0, at (p, p + k)."""
    parts = []
    for k, d in diagonals:
        p = np.flatnonzero(d)
        parts.append((p + k, p, d[p]))
        if k:
            parts.append((p, p + k, d[p]))
    return tuple(np.concatenate(part) for part in zip(*parts))


def _swap_sectors(n: int) -> tuple:
    """((col+, w+), (col-, w-)): the orthonormal maps P+ and P- onto the vectors
    of an n x n grid that are even and odd under the swap (i, j) -> (j, i), as
    index maps: grid point p is entry ``w[p]`` of column ``col[p]`` of P, and
    ``col[p] = -1`` where p lies in no column (the points i == j, for P-).

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
        col, weight = np.full(n * n, -1), np.zeros(n * n)
        col[i * n + j] = col[j * n + i] = np.arange(i.size)
        weight[j * n + i] = np.where(i > j, sign * math.sqrt(0.5), 1.0)
        weight[i * n + j] = np.where(i > j, math.sqrt(0.5), 1.0)
        maps.append((col, weight))
    return tuple(maps)


def _sector_band(diagonals: tuple, col: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """``P^T H P`` in LAPACK lower band storage, for H's ``diagonals`` and a
    sector map ``(col, weight)`` of ``_swap_sectors``.

    It is bit for bit the sparse product ``(P^T H) P``: entry (c, p) of
    ``P^T H`` sums ``w[q] H[q, p]`` over the points q of column c, and entry
    (c, c') sums ``(P^T H)[c, p] w[p]`` over the points p of column c'.  A
    column has at most two points, so each sum has at most two terms and
    rounds the same in any order.  ``P^T H`` is held in band form too, with
    an axis for the two points of a column (``(i, j)`` with i >= j, then its
    mirror).  Rows past the last nonzero one are cut, as a sparse product
    stores no zero."""
    q, p, h = _triplets(diagonals)
    keep = (col[q] >= col[p]) & (col[p] >= 0)  # the lower triangle of P^T H P
    q, p, h = q[keep], p[keep], h[keep]
    n, n_cols = math.isqrt(col.size), int(col.max()) + 1
    point = np.arange(col.size)
    mirror = (point // n < point % n).astype(np.intp)  # 1 at (j, i) with j < i
    slots = np.zeros((2, n_cols))  # the weights of each column's two points
    slots[mirror[col >= 0], col[col >= 0]] = weight[col >= 0]
    offset = col[q] - col[p]
    lhs = np.bincount((offset * 2 + mirror[p]) * n_cols + col[p], weights=weight[q] * h,
                      minlength=(int(offset.max()) + 1) * 2 * n_cols).reshape(-1, 2, n_cols)
    band = lhs[:, 0] * slots[0]
    band += lhs[:, 1] * slots[1]
    band = band[:np.flatnonzero(band.any(axis=1))[-1] + 1]
    band.setflags(write=False)
    return band


def _tridiagonal_top(d: np.ndarray, e: np.ndarray) -> tuple:
    """(vals, vecs), shapes (1,) and (n, 1), of the top eigenpair of the symmetric
    tridiagonal matrix with diagonal d and off-diagonal e, bit for bit as
    ``eigh_tridiagonal(d, e, select="i", select_range=(n - 1, n - 1), tol=2 * tiny)``
    gives it: LAPACK ``dstebz`` bisection (range 'I', block order 'B'), then
    ``dstein`` inverse iteration.  tol = 2 * tiny is ``dstebz``'s most accurate
    bisection, and the studies' CSV bits rest on it; it costs about a fifth more
    than the default tolerance (0.70 against 0.58 ms at N = 799, interleaved, one
    BLAS thread, 2-core Xeon)."""
    d, e = np.ascontiguousarray(d, float), np.ascontiguousarray(e, float)
    if not (np.isfinite(d).all() and np.isfinite(e).all()):
        raise InvariantViolation("the tridiagonal H holds a value that is not finite")
    n, m, info = d.size, ctypes.c_int(), ctypes.c_int()
    w, z, work = np.empty(n), np.empty((n, 1)), np.empty(5 * n)  # LAPACK's sizes
    iblock, isplit, iwork = np.empty(n, np.intc), np.empty(n, np.intc), np.empty(3 * n, np.intc)
    # the arguments both routines take, each converted once
    n_, d_, e_, m_, w_, iblock_, isplit_, work_, iwork_, info_ = _by_ref(
        n, d, e, m, w, iblock, isplit, work, iwork, info)
    tol = 2.0 * np.finfo(float).tiny
    _lapack("dstebz")(b"I", b"B", n_, *_by_ref(0.0, 1.0, n, n, tol), d_, e_, m_,
                      *_by_ref(ctypes.c_int()), w_, iblock_, isplit_, work_, iwork_, info_)
    if info.value == 0:
        _lapack("dstein")(n_, d_, e_, m_, w_, iblock_, isplit_, *_by_ref(z, n), work_, iwork_,
                          *_by_ref(np.empty(1, np.intc)), info_)
    if info.value != 0 or m.value != 1:
        raise InvariantViolation(f"LAPACK dstebz or dstein failed on the tridiagonal H: "
                                 f"info = {info.value}, {m.value} eigenvalues")
    return w[:1], z


def _band_eigenvalues(bands: list) -> list:
    """The eigenvalues, ascending, of each symmetric band in LAPACK lower storage:
    ``dsbevd`` without vectors, on the input ``eig_banded(band, lower=True,
    eigvals_only=True)`` gives it, so bit for bit that call's values.  Every
    array is made on this thread, which solves the first band while a worker
    thread solves each other one; a worker's exception is raised here."""
    calls, results = [], []
    for band in bands:
        if not np.isfinite(band).all():
            raise InvariantViolation("a band of H holds a value that is not finite")
        kd, n = band.shape[0] - 1, band.shape[1]
        ab, w, z, info = np.array(band, float, order="F"), np.empty(n), np.empty(1), ctypes.c_int(0)
        work, iwork = np.empty(max(1, 2 * n)), np.empty(1, np.intc)  # LAPACK's sizes for jobz='N'
        calls.append(partial(_lapack("dsbevd"), *_by_ref(b"N", b"L", n, kd, ab, kd + 1, w, z, 1,
                                                         work, work.size, iwork, iwork.size, info)))
        results.append((w, info))
    errors = []

    def solve(call):
        try:
            call()
        except BaseException as exc:  # raised on the calling thread, below
            errors.append(exc)

    workers = [threading.Thread(target=solve, args=(call,)) for call in calls[1:]]
    for worker in workers:
        worker.start()
    solve(calls[0])
    for worker in workers:
        worker.join()
    if errors:
        raise errors[0]
    for _, info in results:
        if info.value != 0:
            raise InvariantViolation(f"LAPACK dsbevd failed on a band of H: info = {info.value}")
    return [w for w, _ in results]


def _check_eigenpairs(op: DiscretizedOperator, vals: np.ndarray, vecs: np.ndarray,
                      scale: float) -> None:
    """Eigenpairs (vals[j], vecs[:, j]) of a Dirichlet operator: nonpositive
    and orthonormal to 1e-10, with residuals below 1e-9 * scale."""
    if not np.all(vals <= 1e-10 * scale):  # each check is failed by a nan too
        raise InvariantViolation("positive eigenvalue in a Dirichlet discretization")
    gram = vecs.T @ vecs
    if not float(np.max(np.abs(gram - np.eye(vals.size)))) <= 1e-10:
        raise InvariantViolation("eigenvector basis is not orthonormal to 1e-10")
    resid = op.apply(vecs) - vecs * vals[None, :]
    worst = float(np.max(np.linalg.norm(resid, axis=0)))
    if not worst <= 1e-9 * scale:
        raise InvariantViolation("eigenpair residual exceeds 1e-9 * scale")


def _check_eigenvalues(op: DiscretizedOperator, vals: np.ndarray) -> None:
    """All N eigenvalues of a Dirichlet operator, sorted descending, checked
    without eigenvectors: nonpositive, with the Sylvester inertia of H at
    gaps of the spectrum (``_check_inertia``, block LDL^T counts at
    O(N m^2) each for blocks of m = ceil(sqrt(N)) rows), and with
    sum(vals) = tr H and vals @ vals = ||H||_F^2 to 1e-12 N scale and
    1e-12 N scale^2."""
    scale = float(np.max(np.abs(vals)))
    if not np.all(vals <= 1e-10 * scale):  # each check is failed by a nan too
        raise InvariantViolation("positive eigenvalue in a Dirichlet discretization")
    _check_inertia(op, vals, scale)
    (_, main), *off = op._diagonals
    if not abs(float(np.sum(vals)) - float(np.sum(main))) <= 1e-12 * op.N * scale:
        raise InvariantViolation("eigenvalue sum misses the trace of H by more than "
                                 "1e-12 N scale")
    frobenius = float(main @ main) + sum(2.0 * float(d @ d) for _, d in off)
    if not abs(float(vals @ vals) - frobenius) <= 1e-12 * op.N * scale * scale:
        raise InvariantViolation("eigenvalue sum of squares misses the squared Frobenius "
                                 "norm of H by more than 1e-12 N scale^2")


def _check_inertia(op: DiscretizedOperator, vals: np.ndarray, scale: float) -> None:
    """Sylvester inertia at up to _INERTIA_SHIFTS gaps spread over the spectrum.

    Each sigma is the midpoint of a gap vals[k] - vals[k+1] wider than
    1e-6 * scale, where the number of eigenvalues of H above sigma must be
    k + 1: a sigma inside an exactly degenerate pair (the square well's
    x <-> y symmetry) would miscount.  The count is ``_count_above``, a
    block LDL^T of H - sigma I that copies each block from H's diagonals when
    it reaches it, so the check holds one m x m block and O(N) pivots beyond
    the diagonals, never all blocks dense.  It reads all of H, never the
    swap sectors that ``eigenvalues`` may have solved, so it also checks the
    fold.  A shift whose count meets a singular or non-finite block moves on
    to the next gap not yet tried (``_spread_gaps``).
    """
    gaps = np.flatnonzero(vals[:-1] - vals[1:] > 1e-6 * scale)

    def midpoint(k: int) -> float:
        return 0.5 * float(vals[k] + vals[k + 1])

    checked = 0
    for k, above in _spread_gaps(gaps, lambda k: _count_above(op._diagonals, midpoint(k))):
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
    # the distinct rounded positions, ascending; np.unique would import numpy.ma
    positions = np.linspace(0, gaps.size - 1, _INERTIA_SHIFTS).round().astype(int)
    for start in dict.fromkeys(positions.tolist()):
        for pos in range(max(start, untried), gaps.size):
            above = count(int(gaps[pos]))
            if above is not None:
                break
        else:
            return
        untried = pos + 1
        yield int(gaps[pos]), above


def _count_above(diagonals: tuple, sigma: float) -> Optional[int]:
    """Number of eigenvalues above sigma of the symmetric matrix M with lower
    diagonals ``diagonals`` (``DiscretizedOperator._diagonals``), or None
    where a block is singular or non-finite.

    M is cut into consecutive blocks of ``m = max(ceil(sqrt(N)), b)`` rows at
    half-bandwidth b (in 2-D m = b = n_side; at the 1-D cap m = 60 and b = 1),
    so no entry of M lies off the diagonal blocks A_q and the b x b couplings
    C_q of block q to q + 1 (rows 0..b-1 of block q + 1, columns m-b..m-1 of
    block q).  Haynsworth's inertia additivity over the block LDL^T of
    M - sigma I gives ``In(M - sigma I) = sum_q In(S_q)`` for the Schur
    complements ``S_0 = A_0 - sigma I``,
    ``S_(q+1) = A_(q+1) - sigma I - C_q S_q^-1 C_q^T``.  C_q reaches only the
    trailing b columns of block q, so only ``S_q^-1`` times those b columns
    of C_q^T carries over, into the leading b x b corner of S_(q+1).  LAPACK
    ``dsysv`` factors each S_q with Bunch-Kaufman pivoting (``dsytrf``),
    ``P S_q P^T = L D L^T``, which keeps its inertia, and solves for that
    product in the same call; D's 1 x 1 pivots count by sign, its 2 x 2
    pivots by their own determinant and trace.  The cost is O(N m^2) for
    blocks of m rows.  Each block's lower triangle is copied from the
    diagonals when the count reaches it, into one m x m and one b x b array,
    so the memory beyond M's diagonals is O(m^2 + N).
    """
    N, b = diagonals[0][1].size, diagonals[-1][0]
    m = max(math.isqrt(N - 1) + 1, b)
    n_blocks = -(-N // m)
    pivot, sub, ipiv = np.empty(N), np.zeros(N), np.empty(N, dtype=np.intc)
    A, C = np.empty((m, m)), np.empty((b, b))
    rhs = np.zeros((m, b), order="F")
    # dsysv's operands in Fortran order with leading dimension m, bound once; n is
    # each block's size and also its work size, max(n, 1) as in scipy's wrapper
    ldu, x = np.empty((m, m), order="F"), np.empty((m, b), order="F")
    piv, work, n, info = np.empty(m, np.intc), np.empty(m), ctypes.c_int(), ctypes.c_int()
    factor = partial(_lapack("dsysv"), *_by_ref(b"L", n, b, ldu, m, piv, x, m, work, n, info))
    for q in range(n_blocks):
        S = _lower_block(diagonals, q * m, q * m, A)
        S.reshape(-1)[::m + 1] -= sigma  # S's diagonal
        if q:
            S[:b, :b] -= C @ x[m - b:]
        if q < n_blocks - 1:
            rhs[m - b:] = _lower_block(diagonals, (q + 1) * m, (q + 1) * m - b, C).T
        else:
            S = S[:N - q * m, :N - q * m]  # and its solve is not used
        k = n.value = len(S)
        block = ldu[:k, :k]
        block[...] = S
        x[...] = rhs
        factor()
        if info.value != 0:
            return None
        rows = slice(q * m, q * m + k)
        pivot[rows] = block.diagonal()
        sub[rows][:-1] = block.diagonal(-1)
        ipiv[rows] = piv[:k]
    return _positive_pivots(pivot, sub, ipiv)


def _lower_block(diagonals: tuple, row: int, col: int, out: np.ndarray) -> np.ndarray:
    """``out[i, j] = M[row + i, col + j]`` on and below the diagonal of the
    symmetric M with lower diagonals ``diagonals``, 0 elsewhere and past M's
    last row, for a C-ordered ``out``: diagonal k of M is copied down a
    strided view of it, ``out.reshape(-1)[i * cols + j::cols + 1]``."""
    rows, cols = out.shape
    flat = out.reshape(-1)  # a view, as out is C-ordered
    flat.fill(0.0)
    for k, d in diagonals:
        i, j = max(k - row + col, 0), max(row - col - k, 0)  # where diagonal k enters out
        part = d[col + j:col + j + min(rows - i, cols - j)]
        flat[i * cols + j::cols + 1][:part.size] = part
    return out


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
    if not abs(mu.mass - norm_sq) <= 1e-12 * norm_sq:  # a nan mass fails too
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


@cache
def _radial_samples(nu: int, J: int) -> tuple:
    """(points, starts), read-only and built once per (nu, J): the radii of
    every term j = 0..J of ``metric_d``'s radial branch concatenated, as points
    of R^nu on the first axis, and the index where each term's radii start."""
    radii = [np.linspace(0.0, float(j), int(math.ceil(j / (_SUP_STEP * j + _SUP_STEP))) + 1)
             for j in range(J + 1)]
    r = np.concatenate(radii)
    pts = r if nu == 1 else np.stack([r, np.zeros_like(r)], axis=-1)
    starts = np.cumsum([0] + [x.size for x in radii[:-1]])
    for arr in (pts, starts):
        arr.setflags(write=False)
    return pts, starts


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
        pts, starts = _radial_samples(V.nu, J)
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
    if not resid <= 1e-10 * norm_u:  # a nan residual fails too
        raise InvariantViolation(f"resolvent residual {resid!r} exceeds 1e-10 ||u|| = "
                                 f"{1e-10 * norm_u!r}")
    return w


def _resolvent_gap(H_approx: DiscretizedOperator, H: DiscretizedOperator, u,
                   ru: np.ndarray) -> tuple:
    """(lhs, rhs) of the second-resolvent-identity bound at the point i, given
    ``ru = resolvent_apply(H, u)``, so one solve on H serves every H_approx.

    lhs = ||R_i(H_approx) u - R_i(H) u||, rhs = ||(V_approx - V) R_i(H) u||
    with pointwise multiplication on the shared grid; the resolvent of a
    self-adjoint operator at i has norm <= 1, so lhs <= rhs up to solver
    tolerance.  Where H_approx's matrix is H's bit for bit (``_same_matrix``),
    R_i(H_approx) u is ``ru`` itself, as the same solve on the same input
    gives the same bits, so lhs is 0.0 with no solve.  rhs reads both
    ``v_diag`` all the same: they may differ below the rounding of H's main
    diagonal, ``-2 nu / h^2 + V``.
    """
    if (H_approx.nu, H_approx.L, H_approx.h, H_approx.N) != (H.nu, H.L, H.h, H.N):
        raise DomainError("operators are not discretized on the same grid")
    ru_approx = ru if H_approx._same_matrix(H) else resolvent_apply(H_approx, u)
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

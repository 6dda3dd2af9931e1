"""Tests for potentials, discretized operators, the potential metric,
and resolvent diagnostics.

Oracles used here are independent of the package internals: the cosine
form of the Dirichlet second-difference spectrum, dense matrices built
by explicit loops, scipy.linalg.expm for semigroup evolution,
scipy.linalg.eigh_tridiagonal and eig_banded for the 1-D solves, scipy's
f2py LAPACK wrappers (``eigh_tridiagonal``, ``eig_banded`` and
``scipy.linalg.lapack``) for every routine the package calls through ctypes,
bit for bit, numpy.linalg
solves for resolvents, ARPACK ``eigsh`` and SuperLU for the 1-D
tridiagonal top eigenpair and resolvent, and, for the inertia counts, a
sparse LU without pivoting and dense numpy.linalg.eigvalsh counts.  The
operator's stencil is pinned bit for bit to its scipy CSR copy ``H``, that
copy to the scipy ``kronsum`` build it replaced (``kronsum_csr``), and the
swap sectors to the sparse products ``P^T H P`` of the sparse maps they
replaced (``sparse_swap_sectors``, ``lower_band``).
"""

import ctypes
import dataclasses
import math
import os
import re
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg
from scipy import sparse
from scipy.linalg import eig_banded, eigh_tridiagonal, expm
from scipy.linalg import lapack
from scipy.linalg.lapack import dsytrf
from scipy.sparse.linalg import eigsh, splu

from semistab import errors, experiments, operators
from semistab import (
    AtomicMeasure,
    DomainError,
    Potential,
    InvariantViolation,
    ResourceCapError,
    classify_stability,
    constant_potential,
    discretize,
    exp_well,
    gaussian_well,
    load_potential,
    metric_d,
    parse_study_config,
    potential_from_text,
    potential_to_text,
    resolvent_apply,
    run_study,
    sampled_potential,
    save_potential,
    shift_potential,
    spectral_measure,
    spectrum_to_csv,
    square_well,
    truncate_potential,
)
from semistab.errors import csv_text, write_ascii


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def oracle_dirichlet_1d(n, h):
    """Dirichlet second-difference spectrum via the cosine identity.

    (2/h^2)(cos(j pi/(n+1)) - 1), j = 1..n, descending -- algebraically
    equal to the sine-squared form but computed differently.
    """
    j = np.arange(1, n + 1, dtype=float)
    vals = (2.0 / (h * h)) * (np.cos(j * math.pi / (n + 1)) - 1.0)
    return np.sort(vals)[::-1]


def oracle_dense_matrix(V, L, h):
    """Dense matrix of Lap_h + diag(V) on the interior grid, built by loops."""
    cells = round(2.0 * L / h)
    n = cells - 1
    xs = -L + h * np.arange(1, n + 1)
    inv_h2 = 1.0 / (h * h)
    if V.nu == 1:
        H = np.zeros((n, n))
        for i in range(n):
            H[i, i] = -2.0 * inv_h2 + float(V.eval(xs[i : i + 1])[0])
            if i + 1 < n:
                H[i, i + 1] = inv_h2
                H[i + 1, i] = inv_h2
        return H
    N = n * n
    H = np.zeros((N, N))
    for i in range(n):
        for j in range(n):
            p = i * n + j
            H[p, p] = -4.0 * inv_h2 + float(V.eval(np.array([[xs[i], xs[j]]]))[0])
            if i + 1 < n:
                H[p, p + n] = inv_h2
                H[p + n, p] = inv_h2
            if j + 1 < n:
                H[p, p + 1] = inv_h2
                H[p + 1, p] = inv_h2
    return H


def lower_band(M):
    """Symmetric sparse M in LAPACK lower band storage: row k is
    ``M.diagonal(-k)``, zero-padded, for k up to M's half-bandwidth."""
    coo = M.tocoo()
    b = int(np.max(coo.row - coo.col))
    band = np.zeros((b + 1, M.shape[0]))
    for k in range(b + 1):
        band[k, :M.shape[0] - k] = M.diagonal(-k)
    return band


def lower_diagonals(M):
    """Symmetric sparse M as the ``(k, d_k)`` lower diagonals that
    ``operators._count_above`` reads, k up to M's half-bandwidth."""
    return tuple((k, row[:M.shape[0] - k]) for k, row in enumerate(lower_band(M)))


def patch_lapack(monkeypatch, name, wrap):
    """Make ``operators._lapack(name)`` return ``wrap(real)``, for the real
    binding ``real``; every other routine stays bound as it is."""
    lapack_binding, real = operators._lapack, operators._lapack(name)
    monkeypatch.setattr(operators, "_lapack",
                        lambda routine: wrap(real) if routine == name else lapack_binding(routine))


def by_ref_int(arg):
    """The c_int behind a ``_by_ref`` argument ``ctypes.byref(c_int)``."""
    return arg._obj


def kronsum_csr(op):
    """H's CSR copy as scipy sums it: the 1-D second difference T (in 2-D
    ``kronsum(T, T)``) plus ``diags_array(v_diag)``."""
    inv_h2 = 1.0 / (op.h * op.h)
    T = sparse.diags_array([inv_h2, -2.0 * inv_h2, inv_h2], offsets=[-1, 0, 1],
                           shape=(op.n_side, op.n_side))
    return ((T if op.nu == 1 else sparse.kronsum(T, T)) + sparse.diags_array(op.v_diag)).tocsr()


def zero_diagonal_operator():
    """A 2-D operator on 9 x 9 points whose main diagonal -4/h^2 + V is exactly 0:
    V = 0 and h = 2^540, where h^2 overflows and 1/h^2, so every entry of H, is 0."""
    op = discretize(sampled_potential(np.zeros(16), -1.0, 1.0, nu=2),
                    L=5 * 2.0 ** 540, h=2.0 ** 540)
    assert op.N == 81 and not np.any(op._diagonals[0][1])
    return op


def sparse_swap_sectors(n):
    """(P+, P-) as sparse matrices: P+ has a column (e_ij + e_ji) / sqrt(2) for
    each i > j and e_ii for each i, P- (e_ij - e_ji) / sqrt(2) for each i > j,
    with the columns ordered by (i + j, i - j)."""
    maps = []
    for sign, (i, j) in ((1.0, np.tril_indices(n)), (-1.0, np.tril_indices(n, -1))):
        order = np.lexsort((i - j, i + j))
        i, j = i[order], j[order]
        pair = np.flatnonzero(i > j)
        rows = np.concatenate([i * n + j, j[pair] * n + i[pair]])
        cols = np.concatenate([np.arange(i.size), pair])
        data = np.concatenate([np.where(i > j, math.sqrt(0.5), 1.0),
                               np.full(pair.size, sign * math.sqrt(0.5))])
        maps.append(sparse.csr_array((data, (rows, cols)), shape=(n * n, i.size)))
    return tuple(maps)


def random_sampled_potential(rng):
    values = -rng.uniform(0.0, 1.0, 61)
    return sampled_potential(values, -30.0, 30.0, nu=1, a_bound=1.0)


# ---------------------------------------------------------------------------
# discretization
# ---------------------------------------------------------------------------


class TestDiscretize:
    @pytest.mark.parametrize("fault", [-5.0, 1e-6], ids=["below-minus-a", "above-zero"])
    def test_grid_value_outside_the_bounds_rejected(self, monkeypatch, fault):
        # construction reads only the declared range, so an eval that breaks it
        # (a fault injected at the grid point x = 0) is caught on the grid
        V = square_well(depth=1.0, radius=0.1, a_bound=1.0)
        sound = Potential.eval
        monkeypatch.setattr(Potential, "eval",
                            lambda self, pts: np.where(pts == 0.0, fault, sound(self, pts)))
        with pytest.raises(InvariantViolation, match="violates its bounds on the grid"):
            discretize(V, L=1.0, h=0.25)

    @pytest.mark.parametrize("L, h", [(2.0, 0.25), (3.0, 0.2), (2.5, 0.1)])
    def test_large_a_bound_allows_a_few_ulp_of_rounding(self, L, h):
        # bilinear weights round the constant samples -1e6 two ulp below
        # themselves, 2.3e-10 past -a_bound, where an absolute 1e-12 refused them
        V = sampled_potential(np.full(9, -1e6), -2.0, 3.0, nu=2, a_bound=1e6)
        op = discretize(V, L=L, h=h)
        assert np.min(op.v_diag) < -1e6

    @pytest.mark.parametrize("a_bound", [1e-3, 1.0, 1e6])
    @pytest.mark.parametrize("ulps, passes", [(2, True), (16, False)])
    def test_grid_allowance_is_a_few_ulp_of_a_bound(self, monkeypatch, a_bound, ulps, passes):
        V = square_well(depth=a_bound, radius=0.1, a_bound=a_bound)
        fault = -a_bound
        for _ in range(ulps):
            fault = np.nextafter(fault, -np.inf)
        sound = Potential.eval
        monkeypatch.setattr(Potential, "eval",
                            lambda self, pts: np.where(pts == 0.0, fault, sound(self, pts)))
        if passes:
            assert np.min(discretize(V, L=1.0, h=0.25).v_diag) == fault
        else:
            with pytest.raises(InvariantViolation, match="violates its bounds on the grid"):
                discretize(V, L=1.0, h=0.25)

    @pytest.mark.parametrize("a_bound", [1e-20, 1.0, 1e6])
    @pytest.mark.parametrize("ulps, passes", [(2, True), (16, False)])
    def test_declared_range_allowance_is_a_few_ulp_of_a_bound(self, a_bound, ulps, passes):
        # a constant V that many ulp of a_bound above 0 or below -a_bound
        past = ulps * np.finfo(float).eps * a_bound
        for value in (past, -a_bound - past):
            if passes:
                op = discretize(constant_potential(value, a_bound=a_bound), L=1.0, h=0.25)
                assert np.all(op.v_diag == value)
            else:
                with pytest.raises(InvariantViolation, match="potential must be"):
                    constant_potential(value, a_bound=a_bound)

    def test_tiny_positive_constant_is_refused(self):
        # 1e-13 > 0 is far more than a few ulp of the default a_bound 1
        with pytest.raises(InvariantViolation, match="potential must be <= 0 everywhere"):
            constant_potential(1e-13)

    def test_free_laplacian_matches_closed_form(self):
        op = discretize(constant_potential(0.0), L=10.0, h=0.1)
        assert op.N == 199
        expected = oracle_dirichlet_1d(199, 0.1)
        assert np.allclose(op.eigenvalues, expected, rtol=1e-9, atol=1e-12)

    def test_constant_well_shifts_spectrum_exactly(self):
        free = discretize(constant_potential(0.0), L=5.0, h=0.25)
        well = discretize(constant_potential(-0.7), L=5.0, h=0.25)
        assert np.allclose(well.eigenvalues, free.eigenvalues - 0.7, rtol=0, atol=1e-10)

    def test_2d_free_spectrum_is_tensor_sum(self):
        op = discretize(constant_potential(0.0, nu=2), L=4.5, h=1.0)
        assert op.n_side == 8 and op.N == 64
        one_d = oracle_dirichlet_1d(8, 1.0)
        sums = np.sort((one_d[:, None] + one_d[None, :]).ravel())[::-1]
        assert np.allclose(op.eigenvalues, sums, rtol=1e-9, atol=1e-12)

    def test_2d_matches_dense_loop_oracle(self):
        V = gaussian_well(depth=0.8, width=1.3, nu=2)
        op = discretize(V, L=2.0, h=0.5)
        H = oracle_dense_matrix(V, 2.0, 0.5)
        expected = np.sort(np.linalg.eigvalsh(H))[::-1]
        assert np.allclose(op.eigenvalues, expected, rtol=1e-10, atol=1e-12)

    def test_eigenvalues_sorted_descending_and_negative(self):
        op = discretize(gaussian_well(), L=5.0, h=0.25)
        assert np.all(np.diff(op.eigenvalues) <= 0)
        assert np.all(op.eigenvalues < 0)

    def test_grid_endpoints(self):
        op = discretize(constant_potential(0.0), L=2.0, h=0.25)
        assert op.grid[0] == pytest.approx(-1.75)
        assert op.grid[-1] == pytest.approx(1.75)

    def test_eigenpairs_verified_against_dense_matrix(self):
        V = exp_well(depth=0.5, width=2.0)
        op = discretize(V, L=5.0, h=0.5)
        H = oracle_dense_matrix(V, 5.0, 0.5)
        resid = H @ op.eigenvectors - op.eigenvectors * op.eigenvalues[None, :]
        scale = np.max(np.abs(op.eigenvalues))
        assert np.max(np.linalg.norm(resid, axis=0)) <= 1e-9 * scale
        gram = op.eigenvectors.T @ op.eigenvectors
        assert np.max(np.abs(gram - np.eye(op.N))) <= 1e-10

    def test_noninteger_cell_count_rejected(self):
        with pytest.raises(DomainError):
            discretize(constant_potential(0.0), L=1.0, h=0.3)

    def test_too_few_cells_rejected(self):
        with pytest.raises(DomainError):
            discretize(constant_potential(0.0), L=1.0, h=0.5)

    def test_grid_cap_enforced(self):
        with pytest.raises(ResourceCapError):
            discretize(constant_potential(0.0, nu=2), L=3.1, h=0.1)

    def test_bad_geometry_rejected(self):
        # non-finite, overflowing (2L/h = inf) and subnormal geometry included
        for L, h in [(-1.0, 0.1), (math.nan, 0.1), (math.inf, 0.1), (1e308, 1.0),
                     (5.0, math.nan), (5.0, 1e-320)]:
            with pytest.raises(DomainError, match="2L/h finite"):
                discretize(constant_potential(0.0), L=L, h=h)

    @pytest.mark.parametrize("nu", [1, 2])
    def test_random_potentials_give_negative_spectra(self, nu):
        rng = np.random.default_rng(2024_0 + nu)
        for _ in range(50):
            pick = rng.integers(0, 4)
            depth = float(rng.uniform(0.1, 3.0))
            width = float(rng.uniform(0.3, 4.0))
            if pick == 0:
                V = gaussian_well(depth, width, nu=nu)
            elif pick == 1:
                V = exp_well(depth, width, nu=nu)
            elif pick == 2:
                V = square_well(depth, width, nu=nu)
            else:
                V = constant_potential(-depth, nu=nu)
            if nu == 1:
                op = discretize(V, L=5.0, h=0.5)
            else:
                op = discretize(V, L=2.0, h=0.5)
            scale = np.max(np.abs(op.eigenvalues))
            assert np.all(op.eigenvalues <= 1e-10 * scale)


_SYMMETRIC_SAMPLES = -np.random.default_rng(41).uniform(0.0, 0.5, (5, 5))


class TestStencilOverflow:
    """1/h^2 overflows below h ~ 1e-154: discretize refuses such an (L, h), where
    H's main diagonal was -inf and its solves returned nan or raised."""

    @pytest.mark.parametrize("nu, L, h", [(1, 1e-160, 1e-161), (2, 2e-159, 2.5e-160),
                                          (1, 1e-153, 1.25e-154)],
                             ids=["1d", "2d", "scale-only"])
    def test_refused_naming_h(self, nu, L, h):
        with pytest.raises(DomainError, match=re.escape(f"h={h!r} is too small")):
            discretize(gaussian_well(a_bound=1.0, nu=nu), L, h)

    def test_smallest_finite_stencil_still_builds(self):
        # 4 / h^2 = 1e308 at h = 2e-154; at 1.25e-154 (scale-only above) it is 2.6e308
        op = discretize(gaussian_well(a_bound=1.0), 1.6e-153, 2e-154)
        assert np.isfinite(op._diagonals[0][1]).all()


class TestOperatorMatrix:
    # every 2-D case but "nu2-sampled" is swap-symmetric, V(x, y) == V(y, x);
    # the 1.8 / 0.4 grids have an even side, n_side = 8
    CASES = {
        "nu1": (exp_well(depth=0.5, width=2.0), 5.0, 0.25),
        "nu2": (gaussian_well(depth=0.8, width=1.3, nu=2), 2.0, 0.25),
        "nu2-sampled": (sampled_potential(-np.linspace(0.0, 1.0, 25) ** 2, -2.0, 2.0, nu=2),
                        2.0, 0.25),
        "nu2-constant": (constant_potential(-0.4, nu=2), 1.8, 0.4),
        "nu2-exp": (exp_well(depth=0.6, width=0.9, nu=2), 1.8, 0.4),
        "nu2-square": (square_well(depth=1.0, radius=1.0, nu=2), 2.0, 0.25),
        "nu2-truncated": (truncate_potential(gaussian_well(nu=2), 1), 1.8, 0.4),
        "nu2-shifted": (shift_potential(exp_well(nu=2), 2), 2.0, 0.25),
        "nu2-sampled-symmetric": (sampled_potential(_SYMMETRIC_SAMPLES + _SYMMETRIC_SAMPLES.T,
                                                    -2.0, 2.0, nu=2, a_bound=1.0), 1.8, 0.4),
    }
    UNFOLDED = ("nu1", "nu2-sampled")

    @pytest.mark.parametrize("case", CASES)
    def test_matrix_equals_dense_loop_oracle(self, case):
        V, L, h = self.CASES[case]
        op = discretize(V, L=L, h=h)
        assert np.array_equal(op.H.toarray(), oracle_dense_matrix(V, L, h))

    @pytest.mark.parametrize("case", CASES)
    def test_apply_matches_dense_product(self, case):
        V, L, h = self.CASES[case]
        op = discretize(V, L=L, h=h)
        H = oracle_dense_matrix(V, L, h)
        rng = np.random.default_rng(31)
        vec = rng.standard_normal(op.N)
        stack = rng.standard_normal((op.N, 3))
        cplx = vec + 1j * rng.standard_normal(op.N)
        for u in (vec, stack, cplx):
            got = op.apply(u)
            assert got.shape == u.shape and got.dtype == u.dtype
            assert np.linalg.norm(got - H @ u) <= 1e-12 * np.linalg.norm(H @ u)

    @pytest.mark.parametrize("case", CASES)
    def test_apply_is_bit_for_bit_the_csr_product(self, case):
        V, L, h = self.CASES[case]
        op = discretize(V, L=L, h=h)
        rng = np.random.default_rng(35)
        vec = rng.standard_normal(op.N)
        for u in (vec, vec + 1j * rng.standard_normal(op.N), rng.standard_normal((op.N, 3)),
                  rng.standard_normal((op.N, 2)) + 1j * rng.standard_normal((op.N, 2))):
            got, expected = op.apply(u), op.H @ u
            assert got.dtype == expected.dtype
            assert np.array_equal(got, expected)

    @pytest.mark.parametrize("case", [*CASES, "zero-diagonal"])
    def test_csr_copy_equals_the_kronsum_build(self, case):
        if case == "zero-diagonal":
            op = zero_diagonal_operator()
        else:
            op = discretize(*self.CASES[case])
        got, expected = op.H, kronsum_csr(op)  # a sum stores no 0, so neither does H
        for arr, oracle in ((got.data, expected.data), (got.indices, expected.indices),
                            (got.indptr, expected.indptr)):
            assert np.array_equal(arr, oracle)

    def test_apply_rejects_wrong_length(self):
        op = discretize(constant_potential(0.0), L=2.0, h=0.25)
        with pytest.raises(DomainError):
            op.apply(np.ones(op.N + 1))

    @pytest.mark.parametrize("nu", [1, 2])
    def test_matrix_is_read_only(self, nu):
        op = discretize(gaussian_well(nu=nu), L=2.0, h=0.5)
        stencil = [d for _, d in op._diagonals]
        assert len(stencil) == nu + 1
        for arr in (op.grid, op.v_diag, *stencil, op._band, op.H.data, op.H.indices,
                    op.H.indptr):
            with pytest.raises(ValueError):
                arr[0] = arr[0]


def dirichlet_bottom(op):
    """|lowest eigenvalue| of the free Dirichlet Laplacian on the operator's grid."""
    n = op.n_side
    return op.nu * (4.0 / op.h ** 2) * math.sin(n * math.pi / (2.0 * (n + 1))) ** 2


class TestOnDemandSolves:
    CASES = TestOperatorMatrix.CASES

    @pytest.mark.parametrize("case", CASES)
    def test_lambda_max_matches_dense_oracle_and_full_spectrum(self, case):
        V, L, h = self.CASES[case]
        op = discretize(V, L=L, h=h)
        lam = op.lambda_max
        assert "_eig" not in op.__dict__
        tol = 1e-12 * dirichlet_bottom(op)
        assert abs(lam - np.max(np.linalg.eigvalsh(oracle_dense_matrix(V, L, h)))) <= tol
        assert abs(lam - op.eigenvalues[0]) <= tol

    @pytest.mark.parametrize("case", CASES)
    def test_resolvent_matches_dense_solve(self, case):
        V, L, h = self.CASES[case]
        op = discretize(V, L=L, h=h)
        u = np.random.default_rng(32).uniform(-1.0, 1.0, op.N)
        dense = oracle_dense_matrix(V, L, h)
        expected = np.linalg.solve(1j * np.eye(op.N) - dense, u.astype(complex))
        assert np.linalg.norm(resolvent_apply(op, u) - expected) <= 1e-12 * np.linalg.norm(u)
        assert "_eig" not in op.__dict__

    def test_2d_resolvent_of_a_zero_diagonal_operator(self):
        # H stores no diagonal entry here, yet iI - H must store all N of them:
        # without them SuperLU finds the factor exactly singular
        op = zero_diagonal_operator()
        u = np.random.default_rng(36).uniform(-1.0, 1.0, op.N)
        dense = op.apply(np.eye(op.N))
        expected = np.linalg.solve(1j * np.eye(op.N) - dense, u.astype(complex))
        assert np.linalg.norm(resolvent_apply(op, u) - expected) <= 1e-12 * np.linalg.norm(u)

    def test_2d_lambda_max_is_bit_identical_across_operators(self):
        V = gaussian_well(depth=0.8, width=1.3, nu=2)
        first = discretize(V, L=3.0, h=0.25).lambda_max
        second = discretize(V, L=3.0, h=0.25).lambda_max
        assert first.hex() == second.hex()

    def test_resolvent_residual_contract_enforced(self):
        op = discretize(gaussian_well(), L=5.0, h=0.25)
        u = np.random.default_rng(33).uniform(-1.0, 1.0, op.N)
        op.__dict__["_resolvent_solver"] = lambda r: 0.5 * r  # a wrong solver
        with pytest.raises(InvariantViolation, match="resolvent residual"):
            resolvent_apply(op, u)

    @pytest.mark.parametrize("nu", [1, 2])
    def test_eigenpair_checks_run_on_demand(self, nu):
        op = discretize(constant_potential(0.0, nu=nu), L=2.0, h=0.5)
        lifted = dataclasses.replace(op, v_diag=op.v_diag + 100.0)  # H + 100 I
        with pytest.raises(InvariantViolation, match="positive eigenvalue"):
            lifted.lambda_max
        with pytest.raises(InvariantViolation, match="positive eigenvalue"):
            lifted.eigenvalues
        with pytest.raises(InvariantViolation, match="positive eigenvalue"):
            lifted.eigenvectors

    @pytest.mark.parametrize("nu, solver", [(1, "eigh_tridiagonal"), (2, "eig_banded")])
    def test_eigenpair_guards_fire_on_perturbed_vectors(self, monkeypatch, nu, solver):
        box = {1: (5.0, 0.25), 2: (1.8, 0.4)}[nu]
        op = discretize(exp_well(depth=0.5, width=2.0, nu=nu), *box)
        vals, vecs = op._eig
        scale = float(np.max(np.abs(vals)))
        # a rotation by 1e-3 mixing the top two eigenvectors stays orthonormal, but
        # leaves a residual of about 1e-3 |lambda_0 - lambda_1| >> 1e-9 scale
        c, s = math.cos(1e-3), math.sin(1e-3)
        mixed = np.array(vecs)
        mixed[:, :2] = vecs[:, :2] @ np.array([[c, -s], [s, c]])
        with pytest.raises(InvariantViolation, match="eigenpair residual"):
            operators._check_eigenpairs(op, vals, mixed, scale)
        # vectors 1e-9 too long are still eigenvectors, but not orthonormal to 1e-10
        true_solver = getattr(scipy.linalg, solver)

        def stretched(*args, **kwargs):
            w, v = true_solver(*args, **kwargs)
            return w, v * (1.0 + 1e-9)

        monkeypatch.setattr(scipy.linalg, solver, stretched)
        fresh = discretize(exp_well(depth=0.5, width=2.0, nu=nu), *box)
        with pytest.raises(InvariantViolation, match="not orthonormal"):
            fresh.eigenvectors

    @pytest.mark.parametrize("case", CASES)
    def test_eigenvalues_match_dense_oracle_without_eigenvectors(self, case):
        V, L, h = self.CASES[case]
        op = discretize(V, L=L, h=h)
        expected = np.sort(np.linalg.eigvalsh(oracle_dense_matrix(V, L, h)))[::-1]
        assert np.max(np.abs(op.eigenvalues - expected)) <= 1e-12 * dirichlet_bottom(op)
        assert "_eig" not in op.__dict__
        # a swap-symmetric 2-D V is solved on the two swap sectors, never on _band,
        # and no solve of the values reads the CSR copy
        assert op._swap_symmetric == (case not in TestOperatorMatrix.UNFOLDED)
        assert ("_band" in op.__dict__) == (case in TestOperatorMatrix.UNFOLDED)
        assert "H" not in op.__dict__

    def test_study_rows_and_verdicts_skip_the_full_decomposition(self, monkeypatch):
        built = []

        def recording_discretize(*args, **kwargs):
            built.append(discretize(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(experiments, "discretize", recording_discretize)
        run_study(parse_study_config(
            "[study]\nkind = approximation\n[potential]\nkind = gaussian-well\nnu = 1\n"
            "a_bound = 1.0\ndepth = 1.0\nwidth = 1.0\n[approximation]\n"
            "seq_kind = truncation\nindices = 1..3\nL = 5\nh = 0.25\nn_probes = 2\n"
        ))
        assert len(built) == 4
        assert all("_eig" not in op.__dict__ for op in built)
        assert all("lambda_max" in op.__dict__ for op in built[1:])
        op = discretize(gaussian_well(nu=2), L=2.0, h=0.25)
        classify_stability(op)
        assert "_eig" not in op.__dict__ and "lambda_max" in op.__dict__


class TestTridiagonalSolves:
    """The 1-D top eigenpair (LAPACK bisection and inverse iteration) and
    resolvent (tridiagonal LU) against the ARPACK and SuperLU solves they
    replaced and against dense solves."""

    CASES = {
        "nu1": TestOperatorMatrix.CASES["nu1"],
        "gaussian-3599": (gaussian_well(), 18.0, 0.01),
        "free-3599": (constant_potential(0.0, a_bound=1.0), 18.0, 0.01),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_lambda_max_matches_arpack_and_dense(self, case):
        V, L, h = self.CASES[case]
        op = discretize(V, L=L, h=h)
        lam = op.lambda_max
        tol = 1e-12 * dirichlet_bottom(op)
        arpack = eigsh(op.H, k=1, sigma=0.0, v0=np.ones(op.N))[0][0]
        assert abs(lam - arpack) <= tol
        if case == "free-3599":
            # the free box has its top eigenvalue in closed form, a better
            # oracle than a dense solve of this size
            n = op.n_side
            exact = -(4.0 / (h * h)) * math.sin(math.pi / (2.0 * (n + 1))) ** 2
            assert abs(lam - exact) <= tol
        else:
            assert abs(lam - np.linalg.eigvalsh(op.H.toarray())[-1]) <= tol

    @pytest.mark.parametrize("case", ["nu1", "gaussian-3599"])
    def test_resolvent_matches_sparse_lu(self, case):
        # the dense solve is TestOnDemandSolves.test_resolvent_matches_dense_solve
        V, L, h = self.CASES[case]
        op = discretize(V, L=L, h=h)
        u = np.random.default_rng(34).uniform(-1.0, 1.0, op.N)
        lu = splu((sparse.diags_array(np.full(op.N, 1j)) - op.H).tocsc())
        got = resolvent_apply(op, u)
        assert np.linalg.norm(got - lu.solve(u.astype(complex))) <= 1e-12 * np.linalg.norm(u)

    def test_singular_tridiagonal_factor_is_refused(self, monkeypatch):
        op = discretize(gaussian_well(), L=5.0, h=0.25)

        def singular(zgttrf):
            def call(*args):
                zgttrf(*args)
                by_ref_int(args[-1]).value = 3  # info
            return call

        patch_lapack(monkeypatch, "zgttrf", singular)
        with pytest.raises(InvariantViolation, match="zgttrf info 3"):
            resolvent_apply(op, np.ones(op.N))

    def test_non_finite_tridiagonal_is_refused_before_the_solve(self, monkeypatch):
        op = discretize(gaussian_well(), L=5.0, h=0.25)
        v = op.v_diag.copy()
        v[7] = np.nan
        patch_lapack(monkeypatch, "dstebz", lambda dstebz: pytest.fail("dstebz was called"))
        with pytest.raises(InvariantViolation, match="not finite"):
            dataclasses.replace(op, v_diag=v).lambda_max


class TestLapackBindings:
    """Each LAPACK routine the package calls through ctypes (``operators._lapack``)
    against scipy's f2py wrapper of the same routine, bit for bit."""

    @pytest.mark.parametrize("n", [1, 2, 3, 799, 3600])
    @pytest.mark.parametrize("split", [False, True], ids=["whole", "split"])
    def test_top_eigenpair_is_eigh_tridiagonal(self, n, split):
        rng = np.random.default_rng(n)
        d, e = rng.uniform(-4.0, 0.0, n), rng.uniform(0.1, 1.0, n - 1)
        if split and n > 1:
            e[(n - 1) // 2] = 0.0  # a zero off-diagonal splits the matrix in two blocks
        got = operators._tridiagonal_top(d, e)
        want = eigh_tridiagonal(d, e, select="i", select_range=(n - 1, n - 1),
                                tol=2.0 * np.finfo(float).tiny)
        for g, w in zip(got, want):
            assert g.shape == w.shape and np.array_equal(g, w)

    def test_top_eigenpair_of_the_1d_operator_is_eigh_tridiagonal(self):
        op = discretize(gaussian_well(depth=1.0, width=1.0, a_bound=1.0), 20.0, 0.05)  # N = 799
        (_, d), (_, e) = op._diagonals
        vals, _ = eigh_tridiagonal(d, e, select="i", select_range=(op.N - 1, op.N - 1),
                                   tol=2.0 * np.finfo(float).tiny)
        assert op.lambda_max == vals[0]

    @pytest.mark.parametrize("nrhs", [None, 1, 3], ids=["vector", "one-column", "three-columns"])
    def test_tridiagonal_lu_and_solve_are_zgttrf_and_zgttrs(self, nrhs):
        n, rng = 799, np.random.default_rng(5)
        d = rng.uniform(-4.0, 0.0, n) + 1j
        dl, du = rng.uniform(-1.0, 1.0, (2, n - 1)) + 0j
        b = rng.uniform(-1.0, 1.0, (n, nrhs or 1)) + 1j * rng.uniform(-1.0, 1.0, (n, nrhs or 1))
        b = np.asfortranarray(b) if nrhs else b[:, 0].copy()
        want = lapack.zgttrf(dl, d, du)
        factors = [dl.copy(), d.copy(), du.copy(), np.empty(n - 2, complex), np.empty(n, np.intc)]
        info = ctypes.c_int(-1)
        operators._lapack("zgttrf")(*operators._by_ref(n, *factors, info))
        assert info.value == want[-1] == 0
        for got, w in zip(factors, want[:5]):
            assert np.array_equal(got, w)
        x = b.copy(order="F")
        operators._lapack("zgttrs")(*operators._by_ref(b"N", n, nrhs or 1, *factors, x, n, info))
        want_x, want_info = lapack.zgttrs(*want[:5], b)
        assert info.value == want_info == 0
        assert x.shape == want_x.shape and np.array_equal(x, want_x)

    def test_resolvent_solver_is_zgttrs(self):
        op = discretize(gaussian_well(depth=1.0, width=1.0, a_bound=1.0), 20.0, 0.05)
        (_, d), (_, e) = op._diagonals
        factors = lapack.zgttrf(-e.astype(complex), 1j - d, -e.astype(complex))[:5]
        r = np.random.default_rng(8).uniform(-1.0, 1.0, op.N) * (1.0 - 2.0j)
        got = op._resolvent_solver(r)
        assert np.array_equal(got, lapack.zgttrs(*factors, r)[0])
        assert got is not op._resolvent_solver(r)  # each solve returns a new array

    @pytest.mark.parametrize("lead", [0, 3], ids=["lda-n", "lda-n+3"])
    def test_symmetric_solve_with_2x2_pivots_is_dsysv(self, lead):
        # a zero diagonal makes Bunch-Kaufman take 2 x 2 pivots; the inertia count
        # solves its last, shorter block in the leading part of larger buffers
        n, rng = 9, np.random.default_rng(11)
        A = rng.uniform(-1.0, 1.0, (n, n))
        A = A + A.T
        np.fill_diagonal(A, 0.0)
        b = rng.uniform(-1.0, 1.0, (n, 2))
        ldu, ipiv, x, info = lapack.dsysv(A, b, lower=1)
        assert info == 0 and np.any(ipiv < 0)
        lda = n + lead
        a_f, x_f = np.zeros((lda, n), order="F"), np.zeros((lda, 2), order="F")
        a_f[:n], x_f[:n] = A, b
        piv, work, got_info = np.empty(n, np.intc), np.empty(n), ctypes.c_int(-1)
        operators._lapack("dsysv")(*operators._by_ref(b"L", n, 2, a_f, lda, piv, x_f, lda, work,
                                                      n, got_info))
        assert got_info.value == 0
        assert np.array_equal(a_f[:n], ldu) and np.array_equal(piv, ipiv)
        assert np.array_equal(x_f[:n], x)


class TestBandedSolves:
    """``eigenvalues`` and ``_eig`` solve H from its lower band storage ``_band``."""

    CASES = TestOperatorMatrix.CASES

    @pytest.mark.parametrize("case", CASES)
    def test_band_scatters_back_to_the_matrix(self, case):
        V, L, h = self.CASES[case]
        op = discretize(V, L=L, h=h)
        band = op._band
        assert band.shape == (op.n_side ** (op.nu - 1) + 1, op.N)
        dense = np.zeros((op.N, op.N))
        for k, row in enumerate(band):
            assert not np.any(row[op.N - k:])  # the padding past the k-th diagonal
            dense += np.diag(row[:op.N - k], -k)
            if k:
                dense += np.diag(row[:op.N - k], k)
        assert np.array_equal(dense, op.H.toarray())

    def test_1d_solves_are_bit_identical_to_the_tridiagonal_solver(self):
        V, L, h = self.CASES["nu1"]
        op = discretize(V, L=L, h=h)
        d, e = op.H.diagonal(), op.H.diagonal(1)
        # sterf is the values-only solve that LAPACK's ?sbevd runs on a tridiagonal band
        vals = eigh_tridiagonal(d, e, eigvals_only=True, lapack_driver="sterf")
        assert np.array_equal(op.eigenvalues, vals[::-1])
        try:
            vals, vecs = eigh_tridiagonal(d, e, lapack_driver="stevd")
        except ValueError:
            pytest.skip("this scipy's eigh_tridiagonal cannot run stevd")
        assert np.array_equal(op._eig[0], vals[::-1])
        assert np.array_equal(op._eig[1], vecs[:, ::-1])

    @pytest.mark.parametrize("V, L, h", [
        TestOperatorMatrix.CASES["nu1"],
        (gaussian_well(depth=1.0, width=1.0, a_bound=1.0), 20.0, 0.05),  # N = 799
    ], ids=["nu1", "gaussian-799"])
    def test_1d_eigenpairs_match_the_banded_solver(self, V, L, h):
        # eig_banded's ?sbevd on the 1-D band storage, the solver that ?stevd
        # replaced for the eigendecomposition: ?stedc, then an N^3 product with
        # the band reduction's Q, here the identity
        op = discretize(V, L=L, h=h)
        vals, vecs = eig_banded(op._band, lower=True)
        got_vals, got_vecs = op._eig
        try:
            eigh_tridiagonal(op._band[0], op._band[1, :-1], lapack_driver="stevd")
        except ValueError:
            # this scipy's eigh_tridiagonal has no ?stevd, so its default driver is
            # another one: the pairs agree to rounding, each vector up to its sign
            scale = dirichlet_bottom(op)
            assert np.max(np.abs(got_vals - vals[::-1])) <= 1e-12 * scale
            overlap = np.abs(np.sum(got_vecs * vecs[:, ::-1], axis=0))
            assert np.max(np.abs(overlap - 1.0)) <= 1e-9
        else:
            assert np.array_equal(got_vals, vals[::-1])
            assert np.array_equal(got_vecs, vecs[:, ::-1])

    @pytest.mark.parametrize("case", [case for case in CASES if case != "nu1"])
    def test_2d_eigenpair_values_agree_with_eigenvalues(self, case):
        V, L, h = self.CASES[case]
        op = discretize(V, L=L, h=h)
        assert np.max(np.abs(op._eig[0] - op.eigenvalues)) <= 1e-12 * dirichlet_bottom(op)

    def test_2d_eigenvalues_need_no_dense_copy(self):
        # the spectrum-2d benchmark operator; a dense N x N copy of H would
        # alone take four times the bound
        op = discretize(square_well(depth=1.0, radius=1.0, nu=2, a_bound=1.0), L=5.0, h=0.2)
        assert op.N == 2401
        tracemalloc.start()
        try:
            op.eigenvalues
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < op.N * op.N * 8 / 4
        assert "_band" not in op.__dict__  # the square well took the swap fold


def sector_matrix(col, weight):
    """A sector map of ``operators._swap_sectors`` as a dense matrix."""
    points = np.flatnonzero(col >= 0)
    P = np.zeros((col.size, col.max() + 1))
    P[points, col[points]] = weight[points]
    return P


class TestSwapFold:
    """The swap sectors behind ``eigenvalues`` for a swap-symmetric 2-D V;
    ``TestOnDemandSolves`` checks the folded values against dense solves."""

    @pytest.mark.parametrize("n", [8, 15, 49])
    def test_sectors_are_orthonormal_swap_eigenspaces(self, n):
        # the index maps, scattered into dense matrices, are the sparse maps
        plus, minus = (sector_matrix(*sector) for sector in operators._swap_sectors(n))
        oracle = sparse_swap_sectors(n)
        assert np.array_equal(plus, oracle[0].toarray())
        assert np.array_equal(minus, oracle[1].toarray())
        assert plus.shape == (n * n, n * (n + 1) // 2)
        assert minus.shape == (n * n, n * (n - 1) // 2)
        both = np.hstack([plus, minus])
        assert np.max(np.abs(both.T @ both - np.eye(n * n))) <= 1e-15
        swap = np.arange(n * n).reshape(n, n).T.ravel()  # (i, j) -> (j, i)
        assert np.array_equal(plus[swap], plus)
        assert np.array_equal(minus[swap], -minus)

    # the swap-symmetric cases, and the spectrum-2d benchmark operator
    SYMMETRIC = {**{case: value for case, value in TestOperatorMatrix.CASES.items()
                    if case not in TestOperatorMatrix.UNFOLDED},
                 "spectrum-2d": (square_well(depth=1.0, radius=1.0, nu=2, a_bound=1.0), 5.0, 0.2)}

    @pytest.mark.parametrize("case", SYMMETRIC)
    def test_sector_bands_are_bit_for_bit_the_sparse_products(self, case):
        V, L, h = self.SYMMETRIC[case]
        op = discretize(V, L=L, h=h)
        for sector, P in zip(operators._swap_sectors(op.n_side), sparse_swap_sectors(op.n_side)):
            band = operators._sector_band(op._diagonals, *sector)
            assert np.array_equal(band, lower_band(P.T @ op.H @ P))
            assert not band.flags.writeable

    def test_spectrum_2d_sectors_halve_size_and_bandwidth(self):
        op = discretize(square_well(depth=1.0, radius=1.0, nu=2, a_bound=1.0), L=5.0, h=0.2)
        bands = [operators._sector_band(op._diagonals, *sector)
                 for sector in operators._swap_sectors(op.n_side)]
        assert [band.shape for band in bands] == [(26, 1225), (26, 1176)]
        assert op._band.shape == (50, 2401)


class TestSwapFoldFaults:
    """Faults planted in the fold.  ``_check_eigenvalues`` reads H itself, not
    the sectors, so each one fails it."""

    def setup_method(self):
        self.op = discretize(square_well(depth=1.0, radius=1.0, nu=2, a_bound=1.0),
                             L=2.0, h=0.25)

    def test_one_sector_alone_fails_the_checks(self, monkeypatch):
        sectors = operators._swap_sectors
        monkeypatch.setattr(operators, "_swap_sectors", lambda n: sectors(n)[:1])
        with pytest.raises(InvariantViolation):
            self.op.eigenvalues

    def test_unnormalized_pair_columns_fail_the_checks(self, monkeypatch):
        sectors = operators._swap_sectors

        def unit_weights(n):
            # 1 where 1/sqrt(2) belongs: P is not orthogonal
            return tuple((col, np.sign(weight)) for col, weight in sectors(n))

        monkeypatch.setattr(operators, "_swap_sectors", unit_weights)
        with pytest.raises(InvariantViolation):
            self.op.eigenvalues

    def test_forced_fold_of_one_asymmetric_entry_fails_the_checks(self, monkeypatch):
        op, n = self.op, self.op.n_side
        v = op.v_diag.copy()
        v[(n // 2) * n + n // 2 - 1] = -0.9  # inside the well, off the diagonal i == j
        asym = dataclasses.replace(op, v_diag=v)
        assert not asym._swap_symmetric
        expected = np.sort(np.linalg.eigvalsh(asym.H.toarray()))[::-1]
        assert np.max(np.abs(asym.eigenvalues - expected)) <= 1e-12 * dirichlet_bottom(op)
        forced = dataclasses.replace(asym)  # nothing cached yet
        monkeypatch.setattr(operators.DiscretizedOperator, "_swap_symmetric", True)
        with pytest.raises(InvariantViolation):
            forced.eigenvalues


class TestBandEigenvalues:
    """``_band_eigenvalues``, the values-only solve behind ``eigenvalues``: LAPACK
    ``dsbevd`` called through ctypes, with each band after the first on a
    worker thread, against ``eig_banded``'s f2py call of the same routine."""

    SECTORS = {"odd": TestOperatorMatrix.CASES["nu2"],  # n_side = 15
               "even": TestOperatorMatrix.CASES["nu2-exp"],  # n_side = 8
               "spectrum-2d": TestSwapFold.SYMMETRIC["spectrum-2d"]}  # n_side = 24

    @staticmethod
    def sector_bands(case):
        op = discretize(*TestBandEigenvalues.SECTORS[case])
        return [operators._sector_band(op._diagonals, *sector)
                for sector in operators._swap_sectors(op.n_side)]

    @pytest.mark.parametrize("case", ["nu1", "nu2-sampled"])
    def test_unfolded_band_is_bit_for_bit_eig_banded(self, case):
        op = discretize(*TestOperatorMatrix.CASES[case])
        assert not op._swap_symmetric
        (vals,) = operators._band_eigenvalues([op._band])
        assert np.array_equal(vals, eig_banded(op._band, lower=True, eigvals_only=True))

    @pytest.mark.parametrize("case", SECTORS)
    def test_sectors_are_bit_for_bit_eig_banded_together_and_alone(self, case):
        bands = self.sector_bands(case) * 2  # each sector twice: three worker threads
        together = operators._band_eigenvalues(bands)
        assert len(together) == 4
        for band, vals in zip(bands, together):
            assert np.array_equal(vals, eig_banded(band, lower=True, eigvals_only=True))
            assert np.array_equal(vals, operators._band_eigenvalues([band])[0])

    @pytest.mark.parametrize("path", ["unfolded", "sectors"])
    def test_nan_in_v_fails_before_the_solve(self, monkeypatch, path):
        op = discretize(*TestOperatorMatrix.CASES["nu2"])
        n = op.n_side
        v = op.v_diag.copy()
        v[2 * n + 5] = v[5 * n + 2] = np.nan  # placed symmetrically
        bad = dataclasses.replace(op, v_diag=v)
        assert not bad._swap_symmetric  # NaN != NaN, so the grid test sends it unfolded
        if path == "sectors":
            monkeypatch.setattr(operators.DiscretizedOperator, "_swap_symmetric", True)
        solve, seen = operators._band_eigenvalues, []
        monkeypatch.setattr(operators, "_band_eigenvalues",
                            lambda bands: seen.append(len(bands)) or solve(bands))
        with pytest.raises(InvariantViolation, match="not finite"):
            bad.eigenvalues
        assert seen == [{"unfolded": 1, "sectors": 2}[path]]

    @pytest.mark.parametrize("failing", [0, 1], ids=["first-band", "worker-band"])
    def test_lapack_info_fails_the_solve(self, monkeypatch, failing):
        bands = self.sector_bands("odd")

        def fails_one_band(dsbevd):
            def call(*args):
                dsbevd(*args)
                if by_ref_int(args[2]).value == bands[failing].shape[1]:  # n
                    by_ref_int(args[-1]).value = 1  # info
            return call

        patch_lapack(monkeypatch, "dsbevd", fails_one_band)
        with pytest.raises(InvariantViolation, match="info = 1"):
            discretize(*self.SECTORS["odd"]).eigenvalues

    def test_worker_exception_reaches_the_caller(self, monkeypatch):
        bands, caller = self.sector_bands("odd"), threading.get_ident()

        def fails_off_the_calling_thread(dsbevd):
            def call(*args):
                if threading.get_ident() != caller:
                    raise RuntimeError("worker failed")
                dsbevd(*args)
            return call

        patch_lapack(monkeypatch, "dsbevd", fails_off_the_calling_thread)
        assert len(operators._band_eigenvalues(bands[:1])) == 1  # one band: no worker
        with pytest.raises(RuntimeError, match="worker failed"):
            operators._band_eigenvalues(bands)


class TestEigenvalueChecks:
    """Each vector-free check of ``eigenvalues`` on a spectrum with one planted
    fault that the checks run before it let through.  ``setup_method`` reads
    the true spectrum through ``eigenvalues``, so it passes every check."""

    def setup_method(self):
        self.op = discretize(exp_well(depth=0.5, width=2.0), L=5.0, h=0.25)
        self.vals = np.array(self.op.eigenvalues)
        self.scale = dirichlet_bottom(self.op)

    def test_value_moved_across_a_gap_fails_the_inertia_count(self):
        # the top value moved to mid-gap below the second: the count above
        # the new top gap is off by one (the trace, checked later, moves too)
        faulty = self.vals.copy()
        faulty[0] = 0.5 * (self.vals[1] + self.vals[2])
        with pytest.raises(InvariantViolation, match="Sylvester inertia"):
            operators._check_eigenvalues(self.op, np.sort(faulty)[::-1])

    def test_spectrum_without_gaps_fails_the_inertia_count(self):
        with pytest.raises(InvariantViolation, match="no eigenvalue gap"):
            operators._check_eigenvalues(self.op, np.full(self.op.N, self.vals[0]))

    def test_shifted_spectrum_fails_the_trace(self):
        # 1e-8 scale is far inside every half-gap, so the inertia counts hold
        with pytest.raises(InvariantViolation, match="trace"):
            operators._check_eigenvalues(self.op, self.vals - 1e-8 * self.scale)

    def test_scaled_spectrum_fails_the_frobenius_norm(self):
        # scaled about the mean: the trace holds, the sum of squares moves
        mean = float(np.mean(self.vals))
        with pytest.raises(InvariantViolation, match="Frobenius"):
            operators._check_eigenvalues(self.op, mean + (1.0 + 1e-8) * (self.vals - mean))

    def test_square_well_degenerate_pairs_pass(self):
        op = discretize(square_well(depth=1.0, radius=1.0, nu=2, a_bound=1.0), L=2.0, h=0.25)
        vals = op.eigenvalues  # every check ran, and passed
        assert np.any(vals[:-1] - vals[1:] <= 1e-12 * dirichlet_bottom(op))  # x <-> y pairs


def splu_count_above(M, sigma):
    """Eigenvalues of M above sigma from a sparse LU of M - sigma I without
    pivoting, M - sigma I = L D L^T with U = D L^T: the positive diagonal
    entries of U.  None where the factorization pivots or meets a zero or
    non-finite pivot."""
    shifted = (M - sparse.diags_array(np.full(M.shape[0], sigma))).tocsc()
    lu = splu(shifted, permc_spec="NATURAL", diag_pivot_thresh=0.0,
              options=dict(SymmetricMode=True))
    pivots = lu.U.diagonal()
    if not (np.array_equal(lu.perm_r, lu.perm_c) and np.all(np.isfinite(pivots))
            and np.all(pivots != 0.0)):
        return None
    return int(np.count_nonzero(pivots > 0.0))


def random_band_matrix(rng, N, b, zero_diagonal=False):
    """Sparse random symmetric matrix of half-bandwidth b."""
    offsets = np.arange(-b, b + 1)
    diagonals = [rng.standard_normal(N - abs(k)) for k in range(b + 1)]
    if zero_diagonal:
        diagonals[0][:] = 0.0
    return sparse.diags_array([diagonals[abs(k)] for k in offsets], offsets=offsets).tocsr()


def scattered_blocks(diagonals):
    """The m x m diagonal blocks and b x b couplings that
    ``operators._count_above`` copies from ``diagonals``
    (``operators._lower_block``), scattered into a dense N x N array, with
    m = max(ceil(sqrt(N)), b) at half-bandwidth b."""
    N, b = diagonals[0][1].size, diagonals[-1][0]
    m = max(math.ceil(math.sqrt(N)), b)
    dense = np.zeros((-(-N // m) * m,) * 2)
    for q in range(-(-N // m)):
        rows = slice(q * m, (q + 1) * m)
        dense[rows, rows] = operators._lower_block(diagonals, q * m, q * m,
                                                   np.full((m, m), np.nan))
        if q:
            dense[rows.start:rows.start + b, rows.start - b:rows.start] = \
                operators._lower_block(diagonals, rows.start, rows.start - b,
                                       np.full((b, b), np.nan))
    return dense[:N, :N]


class TestContractChecksFailOnNan:
    """Every contract check reads ``not (x <= bound)``: a nan compares false both
    ways, so the form ``x > bound`` would let a nan pass."""

    @pytest.mark.parametrize("where, named", [
        ("value", "positive eigenvalue"),
        ("vector", "orthonormal"),
        ("residual", "residual exceeds"),
    ])
    def test_eigenpair_checks(self, monkeypatch, where, named):
        op = discretize(gaussian_well(), L=5.0, h=0.25)
        top = operators._tridiagonal_top

        def nan_top(d, e):
            vals, vecs = top(d, e)
            if where == "value":
                vals = np.full_like(vals, np.nan)
            elif where == "vector":
                vecs = vecs.copy()
                vecs[3] = np.nan
            return vals, vecs

        monkeypatch.setattr(operators, "_tridiagonal_top", nan_top)
        if where == "residual":
            monkeypatch.setattr(operators.DiscretizedOperator, "apply",
                                lambda self, u: np.full(np.shape(u), np.nan))
        with pytest.raises(InvariantViolation, match=named):
            op.lambda_max

    @pytest.mark.parametrize("where, named", [
        ("value", "positive eigenvalue"),
        ("trace", "trace of H"),
        ("frobenius", "Frobenius"),
    ])
    def test_eigenvalue_checks(self, monkeypatch, where, named):
        op = discretize(*TestOperatorMatrix.CASES["nu2"])
        vals = op.eigenvalues.copy()
        if where == "value":
            solve = operators._band_eigenvalues
            monkeypatch.setattr(operators, "_band_eigenvalues", lambda bands: [
                np.r_[w[:-1], np.nan] for w in solve(bands)])
            with pytest.raises(InvariantViolation, match=named):
                discretize(*TestOperatorMatrix.CASES["nu2"]).eigenvalues
            return
        # a nan on H's main diagonal, or on an off-diagonal only, past the inertia count
        monkeypatch.setattr(operators, "_check_inertia", lambda *args: None)
        (_, main), *off = op._diagonals
        k, d = off[0]
        if where == "trace":
            main = np.r_[np.nan, main[1:]]
        else:
            off[0] = (k, np.r_[np.nan, d[1:]])
        fresh = discretize(*TestOperatorMatrix.CASES["nu2"])
        fresh.__dict__["_diagonals"] = ((0, main), *off)
        with pytest.raises(InvariantViolation, match=named):
            operators._check_eigenvalues(fresh, vals)

    def test_spectral_measure_mass_check(self, monkeypatch):
        op = discretize(gaussian_well(), L=5.0, h=0.25)
        monkeypatch.setattr(AtomicMeasure, "mass", property(lambda self: math.nan))
        with pytest.raises(InvariantViolation, match="mass does not match"):
            spectral_measure(op, np.ones(op.N))

    def test_resolvent_residual_check(self, monkeypatch):
        op = discretize(gaussian_well(), L=5.0, h=0.25)
        monkeypatch.setattr(operators.DiscretizedOperator, "_resolvent_solver",
                            property(lambda self: lambda r: np.full(r.shape, np.nan, complex)))
        with pytest.raises(InvariantViolation, match="resolvent residual nan exceeds"):
            resolvent_apply(op, np.ones(op.N))

    def test_potential_bounds_check(self, monkeypatch):
        V = gaussian_well()
        monkeypatch.setattr(Potential, "eval",
                            lambda self, points: np.full(np.shape(points), np.nan))
        with pytest.raises(InvariantViolation, match="violates its bounds"):
            discretize(V, L=5.0, h=0.25)


class TestInertiaCount:
    """The block LDL^T count behind ``_check_inertia`` against two oracles:
    the sparse LU count without pivoting and a dense ``eigvalsh`` count."""

    CASES = {
        "nu1-square": (square_well(depth=1.0, radius=1.0), 5.0, 0.1),
        "nu1-exp": (exp_well(depth=0.5, width=2.0), 5.0, 0.1),
        "nu2-square": (square_well(depth=1.0, radius=1.0, nu=2, a_bound=1.0), 2.0, 0.25),
        "nu2-exp": (exp_well(depth=0.6, width=0.9, nu=2), 2.0, 0.25),
        "nu2-sampled": TestOperatorMatrix.CASES["nu2-sampled"],
    }

    @pytest.mark.parametrize("case", CASES)
    def test_operator_counts_match_both_oracles(self, case):
        V, L, h = self.CASES[case]
        op = discretize(V, L=L, h=h)
        vals = np.sort(np.linalg.eigvalsh(op.H.toarray()))[::-1]
        scale = float(np.max(np.abs(vals)))
        gaps = np.flatnonzero(vals[:-1] - vals[1:] > 1e-6 * scale)
        assert case != "nu2-square" or gaps.size < op.N - 1  # the degenerate x <-> y pairs
        for k in gaps[np.unique(np.linspace(0, gaps.size - 1, 40).round().astype(int))]:
            sigma = 0.5 * float(vals[k] + vals[k + 1])
            assert operators._count_above(op._diagonals, sigma) == k + 1
            assert splu_count_above(op.H, sigma) == k + 1

    @pytest.mark.parametrize("N, b", [(10, 1), (37, 2), (50, 3), (83, 5), (20, 6)])
    @pytest.mark.parametrize("zero_diagonal", [False, True])
    def test_random_band_counts_match_both_oracles(self, monkeypatch, N, b, zero_diagonal):
        rng = np.random.default_rng(N * 10 + b)
        M = random_band_matrix(rng, N, b, zero_diagonal)
        diagonals = lower_diagonals(M)
        m = max(math.ceil(math.sqrt(N)), b)
        assert N % m  # N is not a multiple of m
        sizes = []

        def recording(dsysv):
            def call(*args):
                sizes.append(by_ref_int(args[1]).value)  # n
                dsysv(*args)
            return call

        patch_lapack(monkeypatch, "dsysv", recording)
        vals = np.linalg.eigvalsh(M.toarray())
        sigmas = [0.0, *rng.uniform(vals[0], vals[-1], 8)]
        for sigma in sigmas:
            expected = int(np.count_nonzero(vals > sigma))
            sizes.clear()
            assert operators._count_above(diagonals, sigma) == expected
            assert sizes == [m] * (N // m) + [N % m]  # one solve per block of m rows
            assert splu_count_above(M, sigma) in (expected, None)
        if zero_diagonal:
            # at sigma = 0 every diagonal pivot is 0: Bunch-Kaufman takes 2 x 2
            # pivots, and the count without pivoting fails at once
            block = operators._lower_block(diagonals, 0, 0, np.empty((m, m)))
            assert np.any(dsytrf(block, lower=1)[1] < 0)
            assert splu_count_above(M, 0.0) is None

    @pytest.mark.parametrize("N, b", [(10, 1), (49, 7), (50, 3), (20, 6)])
    def test_blocks_scatter_back_to_the_lower_triangle(self, N, b):
        M = random_band_matrix(np.random.default_rng(N + b), N, b)
        assert np.array_equal(scattered_blocks(lower_diagonals(M)), np.tril(M.toarray()))

    @pytest.mark.parametrize("case", TestOperatorMatrix.CASES)
    def test_operator_blocks_scatter_back_to_the_csr_lower_triangle(self, case):
        V, L, h = TestOperatorMatrix.CASES[case]
        op = discretize(V, L=L, h=h)
        assert op._diagonals[-1][0] == op.n_side ** (op.nu - 1)
        assert np.array_equal(scattered_blocks(op._diagonals), np.tril(op.H.toarray()))
        assert np.array_equal(scattered_blocks(op._diagonals),
                              np.tril(oracle_dense_matrix(V, L, h)))

    def test_inertia_check_peak_memory(self):
        # the check copies each block from H's diagonals, so it holds the O(N)
        # pivot arrays and a few m x m blocks at a time, under the bound of 8
        # doubles per stored entry of H and four blocks.  Measured on numpy
        # 2.4.6: 0.31 MB at N = 3481, inside 1.21 MB.  Holding the n_side
        # diagonal blocks dense, n_side^3 doubles or 1.64 MB, does not fit
        op = discretize(square_well(depth=1.0, radius=1.0, nu=2, a_bound=1.0), L=3.0, h=0.1)
        m = op.n_side
        assert op.N <= operators._N_CAP < (m + 2) ** 2  # the largest 2-D grid on this box
        vals = op.eigenvalues  # its checks ran once, so every import is done
        scale = float(np.max(np.abs(vals)))
        nnz = sum((2 if k else 1) * np.count_nonzero(d) for k, d in op._diagonals)
        bound = 8 * (8 * nnz + 4 * m * m)
        assert bound < 8 * m ** 3
        tracemalloc.start()
        try:
            operators._check_inertia(op, vals, scale)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound

    @pytest.mark.parametrize("a, c, d, positive", [
        (1.0, 0.5, 2.0, 2),  # positive definite: det > 0, trace > 0
        (-1.0, 0.5, -2.0, 0),  # negative definite: det > 0, trace < 0
        (1.0, 2.0, 1.0, 1),  # indefinite, det < 0: the only kind Bunch-Kaufman makes
        (1.0, 1.0, 1.0, None),  # singular
        (1.0, math.inf, 1.0, None),
    ])
    def test_2x2_pivots_count_from_determinant_and_trace(self, a, c, d, positive):
        # D = diag(2, [[a, c], [c, d]], -1, [[-3, 1], [1, 4]]); lower-storage ipiv marks
        # each 2 x 2 pivot's rows with one negative index, here -5 for both of them
        pivot = np.array([2.0, a, d, -1.0, -3.0, 4.0])
        sub = np.array([0.3, c, 0.7, 0.2, 1.0, 0.0])  # entries off the pivots are L's
        ipiv = np.array([1, -5, -5, 4, -5, -5])
        expected = None if positive is None else 1 + positive + 1
        assert operators._positive_pivots(pivot, sub, ipiv) == expected

    def test_zero_or_non_finite_1x1_pivot_gives_no_count(self):
        ipiv = np.array([1, 2, 3])
        assert operators._positive_pivots(np.array([1.0, 0.0, -1.0]), np.zeros(3), ipiv) is None
        assert operators._positive_pivots(np.array([1.0, np.nan, -1.0]), np.zeros(3), ipiv) is None
        assert operators._positive_pivots(np.array([1.0, 2.0, -1.0]), np.zeros(3), ipiv) == 2

    def test_exactly_singular_block_gives_no_count(self):
        M = random_band_matrix(np.random.default_rng(5), 50, 3).tolil()
        r = 2 * 8 + 1  # row 1 of the third block of m = 8 rows
        M[r, :] = 0.0
        M[:, r] = 0.0
        M[r, r] = 0.75  # the Schur complement at sigma = 0.75 has a zero row
        diagonals = lower_diagonals(M.tocsr())
        assert operators._count_above(diagonals, 0.75) is None
        assert operators._count_above(diagonals, 0.7) is not None

    def test_check_inertia_moves_on_after_no_count(self, monkeypatch):
        op = discretize(exp_well(depth=0.5, width=2.0), L=5.0, h=0.25)
        vals = np.array(op.eigenvalues)
        count, shifts = operators._count_above, []

        def first_shift_fails(diagonals, sigma):
            shifts.append(sigma)
            return None if len(shifts) == 1 else count(diagonals, sigma)

        monkeypatch.setattr(operators, "_count_above", first_shift_fails)
        operators._check_inertia(op, vals, float(np.max(np.abs(vals))))
        assert len(shifts) == operators._INERTIA_SHIFTS + 1
        assert len(set(shifts)) == len(shifts)
        assert shifts[1] == 0.5 * float(vals[1] + vals[2])  # the gap after the failed one

    @pytest.mark.parametrize("fails, tried, counted", [
        # starts 0, 2, 4, 6, 8, 10: the fallback from 0 lands on 2, so start 2 takes 3
        ({0, 1}, [0, 1, 2, 3, 4, 6, 8, 10], [2, 3, 4, 6, 8, 10]),
        # no count from 5 on: start 6 tries 6..10 and the search stops
        ({5, 6, 7, 8, 9, 10}, [0, 2, 4, 6, 7, 8, 9, 10], [0, 2, 4]),
        (set(range(11)), list(range(11)), []),
    ])
    def test_spread_gaps_tries_each_gap_once(self, fails, tried, counted):
        gaps = 3 * np.arange(11)
        calls = []

        def count(k):
            calls.append(k // 3)
            return None if k // 3 in fails else -k

        picked = list(operators._spread_gaps(gaps, count))
        assert calls == tried
        assert picked == [(3 * pos, -3 * pos) for pos in counted]

    def test_spread_gaps_with_fewer_gaps_than_shifts(self):
        assert list(operators._spread_gaps(np.array([4, 7]), lambda k: k)) == [(4, 4), (7, 7)]
        assert list(operators._spread_gaps(np.array([], dtype=int), lambda k: k)) == []

    @pytest.mark.parametrize("case", ["nu1", "nu2", "nu2-sampled"])
    def test_eigenvalues_make_no_sparse_lu(self, case, monkeypatch):
        def no_splu(*args, **kwargs):
            raise AssertionError("sparse LU")

        monkeypatch.setattr(scipy.sparse.linalg, "splu", no_splu)
        V, L, h = TestOperatorMatrix.CASES[case]
        op = discretize(V, L=L, h=h)
        assert op.eigenvalues.size == op.N
        if op.nu == 2:
            with pytest.raises(AssertionError, match="sparse LU"):
                resolvent_apply(op, np.ones(op.N))  # the 2-D resolvent keeps its sparse LU
            return

        def no_eigsh(*args, **kwargs):
            raise AssertionError("ARPACK")

        # the 1-D top eigenpair and resolvent are tridiagonal LAPACK solves
        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_eigsh)
        assert op.lambda_max < 0.0
        assert np.all(np.isfinite(resolvent_apply(op, np.ones(op.N))))


class TestPotentialConstruction:
    def test_positive_constant_rejected(self):
        with pytest.raises(InvariantViolation):
            constant_potential(0.5)

    def test_sampled_above_zero_rejected(self):
        with pytest.raises(InvariantViolation):
            sampled_potential([0.0, 0.2, -0.1], -1.0, 1.0)

    def test_sampled_below_negative_a_rejected(self):
        with pytest.raises(InvariantViolation):
            sampled_potential([-1.0, -0.2, 0.0], -1.0, 1.0, a_bound=0.5)

    def test_bad_shape_parameters_rejected(self):
        with pytest.raises(DomainError):
            gaussian_well(depth=-1.0)
        with pytest.raises(DomainError):
            exp_well(width=0.0)
        with pytest.raises(DomainError):
            square_well(radius=-2.0)

    def test_nu_must_be_one_or_two(self):
        with pytest.raises(DomainError):
            constant_potential(0.0, nu=3)
        # a nu=2 potential reads points (x, y) along the last axis
        with pytest.raises(DomainError, match="trailing axis of size 2"):
            square_well(nu=2).eval(np.zeros(3))

    def test_sampled_2d_needs_square_count(self):
        with pytest.raises(DomainError):
            sampled_potential(np.zeros(10), -1.0, 1.0, nu=2)

    @pytest.mark.parametrize("kind, nu, params, base, message", [
        ("nope", 1, {}, None, "unknown potential kind: 'nope'"),
        ("truncated", 1, {"k": 2}, None, "truncated potential needs a base potential"),
        ("truncated", 2, {"k": 2}, "1-D", "wrapper and base dimensions differ"),
        ("gaussian-well", 1, {"depth": 1.0, "width": 1.0}, "1-D",
         "gaussian-well potential takes no base"),
    ], ids=["unknown-kind", "wrapper-without-base", "wrapper-base-dimension", "base-on-a-leaf"])
    def test_kind_and_base_guards(self, kind, nu, params, base, message):
        base = gaussian_well() if base else None
        with pytest.raises(DomainError, match=re.escape(message)):
            Potential(kind=kind, nu=nu, a_bound=1.0, params=params, base=base)

    @pytest.mark.parametrize("make, message", [
        # wells narrower than any sampling could find: only the declared range sees them
        (lambda: square_well(depth=5.0, radius=1e-20, a_bound=1.0), ">= -a_bound"),
        (lambda: square_well(depth=5.0, radius=1e-9, a_bound=1.0), ">= -a_bound"),
        (lambda: exp_well(depth=5.0, width=1e-6, a_bound=1.0), ">= -a_bound"),
        (lambda: gaussian_well(depth=5.0, width=1e-6, nu=2, a_bound=1.0), ">= -a_bound"),
        (lambda: constant_potential(1e-9), "<= 0"),
        (lambda: constant_potential(math.nan), "non-finite"),
        (lambda: Potential("truncated", 1, 1.0, {"k": 2}, square_well(5.0, 1e-20, a_bound=5.0)),
         ">= -a_bound"),
        (lambda: Potential("shifted", 1, 0.5, {"l": 1, "a": 5.0}, square_well(5.0, a_bound=5.0)),
         ">= -a_bound"),
    ], ids=["square-1e-20", "square-1e-9", "exp-1e-6", "gaussian-2d-1e-6", "constant-positive",
            "constant-nan", "truncated-below-its-a", "shifted-below-its-a"])
    def test_declared_range_outside_the_bound_rejected(self, make, message):
        with pytest.raises(InvariantViolation, match=re.escape(message)):
            make()

    @pytest.mark.parametrize("lo, hi", [(-math.inf, 1.0), (-1.0, math.inf), (math.nan, 1.0),
                                        (-1e308, 1e308), (1.0, 1.0)])
    @pytest.mark.parametrize("nu", [1, 2])
    def test_sampled_grid_needs_a_finite_width(self, lo, hi, nu):
        # an infinite or overflowing width makes the interpolation grid NaN
        with pytest.raises(DomainError, match="by a finite width"):
            sampled_potential(np.full(4 if nu == 2 else 3, -0.5), lo, hi, nu=nu, a_bound=1.0)

    @pytest.mark.parametrize("value", [math.nan, -math.inf])
    def test_non_finite_sample_rejected(self, value):
        with pytest.raises(InvariantViolation, match="non-finite value"):
            sampled_potential([-0.5, value, 0.0], -1.0, 1.0, a_bound=1.0)

    def test_sampled_2d_interpolates_its_samples(self):
        rng = np.random.default_rng(5)
        vals = -rng.uniform(0.0, 1.0, 25)
        V = sampled_potential(vals, -2.0, 2.0, nu=2, a_bound=1.0)
        grid = np.linspace(-2.0, 2.0, 5)
        pts = np.stack(np.meshgrid(grid, grid, indexing="ij"), axis=-1).reshape(-1, 2)
        assert np.allclose(V.eval(pts), vals, rtol=0, atol=1e-12)


_RING = np.pad(-np.ones((3, 3)), 1).ravel()  # 5 x 5 samples, the boundary ones 0


class TestSupportRadius:
    @pytest.mark.parametrize("V, radius", [
        (constant_potential(0.0), 0.0),
        (constant_potential(-0.5), math.inf),
        (gaussian_well(), math.inf),
        (exp_well(nu=2), math.inf),
        (square_well(radius=1.5), 1.5),
        (square_well(radius=1.5, nu=2), 1.5),
        (truncate_potential(gaussian_well(), 3), 3.0),
        (truncate_potential(square_well(radius=1.5), 3), 1.5),
        (shift_potential(square_well(), 1), math.inf),
        (sampled_potential([0.0, -1.0, 0.0], -2.0, 3.0), 3.0),
        (sampled_potential([-0.1, -1.0, 0.0], -2.0, 3.0), math.inf),
        (sampled_potential(_RING, -1.0, 2.0, nu=2, a_bound=1.0), math.sqrt(2.0) * 2.0),
        (sampled_potential(_RING - 0.1, -1.0, 2.0, nu=2, a_bound=1.1), math.inf),
    ], ids=["constant-zero", "constant", "gaussian", "exp-2d", "square", "square-2d",
            "truncated-gaussian", "truncated-square", "shifted", "sampled", "sampled-edge",
            "sampled-2d", "sampled-2d-edge"])
    def test_declared_radius(self, V, radius):
        assert V.support_radius == radius
        if radius < math.inf:  # V vanishes beyond it, on both sides and every axis
            rng = np.random.default_rng(3)
            r = radius * (1.0 + rng.uniform(1e-9, 2.0, 400)) + 1e-12
            if V.nu == 1:
                pts = r * rng.choice([-1.0, 1.0], 400)
            else:
                theta = rng.uniform(0.0, 2.0 * math.pi, 400)
                pts = np.column_stack([r * np.cos(theta), r * np.sin(theta)])
            assert np.all(V.eval(pts) == 0.0)


_SAMPLES_2D = np.array([[-0.3, -0.9, 0.0], [-0.2, -0.6, -0.1], [0.0, -0.4, -0.8]]).ravel()
_BASES = {
    "constant": (lambda nu: constant_potential(-0.4, nu=nu), (-0.4, -0.4)),
    "gaussian": (lambda nu: gaussian_well(0.8, 1.3, nu=nu), (-0.8, 0.0)),
    "exp": (lambda nu: exp_well(0.7, 0.9, nu=nu), (-0.7, 0.0)),
    "square": (lambda nu: square_well(0.6, 1.5, nu=nu), (-0.6, 0.0)),
    "sampled": (lambda nu: sampled_potential([-0.3, -0.9, 0.0, -0.2, -0.6] if nu == 1
                                             else _SAMPLES_2D, -2.0, 3.0, nu=nu, a_bound=1.0),
                (-0.9, 0.0)),
}
_WRAPS = {
    "": lambda V: V,
    "truncated": lambda V: truncate_potential(V, 2),
    "shifted": lambda V: shift_potential(V, 3),
    "truncated-shifted": lambda V: truncate_potential(shift_potential(V, 2), 1),
    "shifted-truncated": lambda V: shift_potential(truncate_potential(V, 2), 4),
}


class TestValueRange:
    @pytest.mark.parametrize("wrap", list(_WRAPS), ids=lambda w: w or "bare")
    @pytest.mark.parametrize("base", list(_BASES))
    @pytest.mark.parametrize("nu", [1, 2])
    def test_eval_stays_inside_the_declared_range(self, nu, base, wrap):
        # random points, the origin and far points against the declared
        # (inf V, sup V); interpolation weights may round a few ulp past it
        make, bare = _BASES[base]
        V = _WRAPS[wrap](make(nu))
        lo, hi = V.value_range
        assert -V.a_bound - 1e-12 <= lo <= hi <= 0.0  # a shift may round past -a
        if not wrap:
            assert (lo, hi) == bare
        rng = np.random.default_rng(11)
        pts = np.concatenate([rng.uniform(-6.0, 6.0, (4000, nu)), np.zeros((1, nu)),
                              np.full((1, nu), 1e6)])
        vals = V.eval(pts[:, 0] if nu == 1 else pts)
        slack = 4.0 * np.finfo(float).eps * V.a_bound
        assert np.all(vals >= lo - slack) and np.all(vals <= hi + slack)

    def test_wrapped_ranges(self):
        V = gaussian_well(0.8, 1.0)
        l, a = 3, 0.8
        shifted = ((l / (l + 1.0)) * -0.8 - a / (l + 1.0), (l / (l + 1.0)) * 0.0 - a / (l + 1.0))
        assert shift_potential(V, 3).value_range == shifted
        assert truncate_potential(shift_potential(V, 3), 2).value_range == (shifted[0], 0.0)
        assert truncate_potential(constant_potential(-0.4), 2).value_range == (-0.4, 0.0)

    @pytest.mark.parametrize("V", [gaussian_well(width=1e-300), exp_well(width=1e-310),
                                   gaussian_well(width=1e-300, nu=2)],
                             ids=["gaussian", "exp-subnormal", "gaussian-2d"])
    def test_narrow_well_vanishes_off_its_centre_without_a_warning(self, V):
        # r / width overflows past the double range: the profile is exp(-inf) = 0
        # there, and a RuntimeWarning from semistab is an error in this suite
        pts = np.array([0.0, 0.5, -2.0]) if V.nu == 1 else np.array([[0.0, 0.0], [0.5, 1.0]])
        vals = V.eval(pts)
        assert vals[0] == -1.0 and np.all(vals[1:] == 0.0)

    def test_construction_evaluates_no_point(self, monkeypatch):
        def no_eval(self, pts):
            raise AssertionError("V evaluated at construction")

        monkeypatch.setattr(Potential, "eval", no_eval)
        for nu in (1, 2):
            for make, _ in _BASES.values():
                for wrap in _WRAPS.values():
                    wrap(make(nu))


# ---------------------------------------------------------------------------
# spectral measures of vectors
# ---------------------------------------------------------------------------


class TestSpectralMeasure:
    def setup_method(self):
        self.op = discretize(gaussian_well(), L=5.0, h=0.25)
        rng = np.random.default_rng(31415)
        x = rng.uniform(-1.0, 1.0, self.op.N)
        self.x = x / np.linalg.norm(x)
        self.mu = spectral_measure(self.op, self.x)

    def test_mass_equals_norm_squared(self):
        norm_sq = float(self.x @ self.x)
        assert abs(self.mu.mass - norm_sq) <= 1e-12 * norm_sq

    @pytest.mark.parametrize("t", [0.1, 1.0, 10.0])
    def test_laplace_matches_matrix_exponential(self, t):
        H = oracle_dense_matrix(self.op.potential, self.op.L, self.op.h)
        u_t = expm(t * H) @ self.x
        expected = float(u_t @ u_t)
        got = math.exp(self.mu.log_laplace(t))
        assert abs(got - expected) <= 1e-10 * expected

    def test_atoms_have_positive_weight_and_negative_position(self):
        assert np.all(self.mu.weights > 0)
        assert np.all(self.mu.positions <= 0)
        assert self.mu.n_atoms <= self.op.N

    def test_wrong_length_rejected(self):
        with pytest.raises(DomainError):
            spectral_measure(self.op, np.ones(7))

    def test_zero_vector_rejected(self):
        with pytest.raises(DomainError):
            spectral_measure(self.op, np.zeros(self.op.N))

    def test_mass_mismatch_is_an_invariant_violation(self):
        # eigenvectors scaled by 2 give the atoms four times the mass of x
        vals, vecs = self.op._eig
        self.op.__dict__["_eig"] = (vals, 2.0 * vecs)
        with pytest.raises(InvariantViolation, match="does not match"):
            spectral_measure(self.op, self.x)


# ---------------------------------------------------------------------------
# the metric on potentials
# ---------------------------------------------------------------------------


class TestMetric:
    def test_zero_versus_minus_one(self):
        V = constant_potential(0.0, a_bound=1.0)
        U = constant_potential(-1.0)
        for J, tol in ((10, 2e-3), (20, 1e-5)):
            d = metric_d(V, U, J=J, tail_tol=tol)
            assert float(d) == 2.0 - 2.0 ** (-J)

    def test_tiny_constant_gap(self):
        c = 2.0 ** (-25)
        V = constant_potential(0.0, a_bound=1.0)
        U = constant_potential(-c, a_bound=1.0)
        d = metric_d(V, U, J=20, tail_tol=1e-5)
        assert float(d) == 21 * c

    def test_metric_of_potential_with_itself_is_zero(self):
        V = gaussian_well()
        assert float(metric_d(V, V)) == 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(97531)
        V = random_sampled_potential(rng)
        U = random_sampled_potential(rng)
        assert float(metric_d(V, U)) == float(metric_d(U, V))

    def test_triangle_inequality_on_random_triples(self):
        rng = np.random.default_rng(13579)
        pool = [random_sampled_potential(rng) for _ in range(12)]
        checked = 0
        while checked < 100:
            i, j, k = rng.integers(0, len(pool), 3)
            if i == j or j == k or i == k:
                continue
            d_ik = float(metric_d(pool[i], pool[k], J=12, tail_tol=5e-4))
            d_ij = float(metric_d(pool[i], pool[j], J=12, tail_tol=5e-4))
            d_jk = float(metric_d(pool[j], pool[k], J=12, tail_tol=5e-4))
            assert d_ik <= d_ij + d_jk + 1e-12
            checked += 1

    def test_truncation_distances_decrease_to_zero(self):
        V = exp_well(depth=1.0, width=1.0)
        dists = [float(metric_d(truncate_potential(V, k), V)) for k in range(1, 11)]
        for a, b in zip(dists, dists[1:]):
            assert b <= a + 1e-15
        assert dists[-1] < 1e-3
        assert dists[-1] < dists[0]

    def test_non_radial_2d_sup_is_taken_over_the_disc(self):
        """A sampled 2-D V against its truncation: each term's sup runs over the
        grid points of the closed disc |x| <= j, not the square around it."""
        axis = np.linspace(-3.0, 3.0, 7)
        values = -(axis[:, None] ** 2 + axis[None, :] ** 2).ravel() / 18.0
        V = sampled_potential(values, -3.0, 3.0, nu=2, a_bound=1.0)
        U = truncate_potential(V, 1)
        assert not (V.is_radial or U.is_radial)
        d = metric_d(U, V, J=4, tail_tol=0.125)
        for j, term in enumerate(d.terms):
            # brute force: every point of the sampled square, kept by an explicit disc test
            grid = np.linspace(-j, j, math.ceil(2 * j / (0.01 * j + 0.01)) + 1)
            pts = np.array([(x, y) for x in grid for y in grid])
            diff = np.abs(U.eval(pts) - V.eval(pts))
            sup = max(float(diff[i]) for i, (x, y) in enumerate(pts) if x * x + y * y <= j * j)
            assert term == min(2.0 ** (-j), sup)
        # at j = 2 the square's corners reach |V| = 4/9 > 1/4, the disc only about 2/9
        assert 0.2 < d.terms[2] < 0.25

    @pytest.mark.parametrize("J", [0, 1, 20])
    @pytest.mark.parametrize("pair", ["radial-1d", "radial-2d", "truncated", "shifted",
                                      "sampled"])
    def test_terms_equal_the_per_term_sup_loop(self, pair, J):
        G = gaussian_well(depth=1.0, width=1.5)
        V, U = {
            "radial-1d": (G, exp_well(depth=0.7, width=2.0, a_bound=1.0)),
            "radial-2d": (gaussian_well(nu=2), square_well(depth=0.5, nu=2, a_bound=1.0)),
            "truncated": (truncate_potential(G, 3), G),
            "shifted": (shift_potential(G, 2), G),
            "sampled": (random_sampled_potential(np.random.default_rng(8)), G),
        }[pair]
        d = metric_d(V, U, J=J, tail_tol=2.0)
        loop = [min(2.0 ** (-j), operators._sup_abs_diff(V, U, j, 0.01 * j + 0.01))
                for j in range(J + 1)]
        assert d.terms == tuple(loop)
        assert float(d) == float(np.sum(loop))

    def test_tail_attributes(self):
        d = metric_d(constant_potential(0.0, a_bound=1.0), constant_potential(-1.0))
        assert d.J == 20
        assert d.tail_bound == 2.0 ** (-20)
        assert len(d.terms) == 21

    def test_insufficient_truncation_depth_rejected(self):
        V = constant_potential(0.0, a_bound=1.0)
        with pytest.raises(DomainError):
            metric_d(V, V, J=3, tail_tol=1e-5)
        with pytest.raises(DomainError, match="J must be a nonnegative integer"):
            metric_d(V, V, J=2.5)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DomainError):
            metric_d(gaussian_well(nu=1), gaussian_well(nu=2))

    def test_bound_mismatch_rejected(self):
        with pytest.raises(DomainError):
            metric_d(gaussian_well(depth=1.0), gaussian_well(depth=2.0))


# ---------------------------------------------------------------------------
# approximation sequences
# ---------------------------------------------------------------------------


class TestApproximationSequences:
    def test_shift_of_zero_is_minus_half(self):
        V = constant_potential(0.0, a_bound=1.0)
        W = shift_potential(V, 1)
        xs = np.linspace(-50.0, 50.0, 101)
        assert np.all(W.eval(xs) == -0.5)

    def test_constant_at_minus_a_is_a_fixed_point(self):
        V = constant_potential(-1.0)
        for l in (1, 2, 5, 17):
            W = shift_potential(V, l)
            xs = np.linspace(-10.0, 10.0, 41)
            assert np.max(np.abs(W.eval(xs) + 1.0)) <= 1e-15

    @pytest.mark.parametrize("l", [1, 5, 50])
    def test_shift_supremum_is_strictly_negative(self, l):
        V = gaussian_well()
        W = shift_potential(V, l)
        rng = np.random.default_rng(8675309)
        pts = rng.uniform(-100.0, 100.0, 10_000)
        assert np.max(W.eval(pts)) <= -V.a_bound / (l + 1) + 1e-15

    def test_truncation_zero_outside_ball_and_exact_inside(self):
        V = exp_well()
        W = truncate_potential(V, 3)
        inside = np.linspace(-2.99, 2.99, 51)
        outside = np.array([-10.0, -3.0, 3.0, 7.5])
        assert np.all(W.eval(inside) == V.eval(inside))
        assert np.all(W.eval(outside) == 0.0)

    def test_truncation_preserves_a_bound(self):
        V = gaussian_well(depth=2.5)
        assert truncate_potential(V, 4).a_bound == V.a_bound

    def test_invalid_indices_rejected(self):
        V = gaussian_well()
        with pytest.raises(DomainError):
            truncate_potential(V, 0)
        with pytest.raises(DomainError):
            shift_potential(V, 0)
        with pytest.raises(DomainError):
            shift_potential(V, 1.5)

    def test_shift_level_must_match_bound(self):
        V = gaussian_well(depth=1.0)
        with pytest.raises(DomainError):
            shift_potential(V, 2, a=0.5)


# ---------------------------------------------------------------------------
# resolvent diagnostics
# ---------------------------------------------------------------------------


class TestResolvent:
    def setup_method(self):
        self.V = gaussian_well()
        self.op = discretize(self.V, L=5.0, h=0.25)
        rng = np.random.default_rng(24680)
        self.u = rng.uniform(-1.0, 1.0, self.op.N)

    def test_matches_dense_complex_solve(self):
        H = oracle_dense_matrix(self.V, 5.0, 0.25)
        expected = np.linalg.solve(1j * np.eye(self.op.N) - H, self.u.astype(complex))
        got = resolvent_apply(self.op, self.u)
        norm_u = np.linalg.norm(self.u)
        assert np.linalg.norm(got - expected) <= 1e-10 * norm_u

    def test_matches_dense_solve_2d(self):
        V = square_well(depth=1.0, radius=1.0, nu=2)
        op = discretize(V, L=2.0, h=0.5)
        rng = np.random.default_rng(1122)
        u = rng.uniform(-1.0, 1.0, op.N)
        H = oracle_dense_matrix(V, 2.0, 0.5)
        expected = np.linalg.solve(1j * np.eye(op.N) - H, u.astype(complex))
        assert np.linalg.norm(resolvent_apply(op, u) - expected) <= 1e-10 * np.linalg.norm(u)

    def test_wrong_length_rejected(self):
        with pytest.raises(DomainError, match="vector length does not match"):
            resolvent_apply(self.op, np.ones(self.op.N + 1))

    def test_zero_vector_maps_to_zero(self):
        got = resolvent_apply(self.op, np.zeros(self.op.N))
        assert got.dtype == complex and not np.any(got)

    def test_resolvent_is_a_contraction(self):
        rng = np.random.default_rng(555)
        for _ in range(5):
            u = rng.uniform(-1.0, 1.0, self.op.N)
            w = resolvent_apply(self.op, u)
            assert np.linalg.norm(w) <= np.linalg.norm(u) * (1 + 1e-12)

    def test_residual_below_tolerance(self):
        H = oracle_dense_matrix(self.V, 5.0, 0.25)
        w = resolvent_apply(self.op, self.u)
        resid = self.u - (1j * w - H @ w)
        assert np.linalg.norm(resid) <= 1e-10 * np.linalg.norm(self.u)

    def test_truncation_gap_bounded_and_vanishing(self):
        op_full = discretize(self.V, L=10.0, h=0.25)
        rng = np.random.default_rng(77)
        u = rng.uniform(-1.0, 1.0, op_full.N)
        ru = resolvent_apply(op_full, u)
        rhs_prev = math.inf
        for k in range(1, 7):
            op_k = discretize(truncate_potential(self.V, k), L=10.0, h=0.25)
            lhs, rhs = operators._resolvent_gap(op_k, op_full, u, ru)
            assert lhs <= rhs + 1e-9
            assert rhs <= rhs_prev + 1e-15
            rhs_prev = rhs
        assert rhs_prev <= 1e-12 * np.linalg.norm(u)
        assert lhs <= 1e-9

    def test_shift_gap_bounded_and_shrinking(self):
        op_full = discretize(self.V, L=10.0, h=0.25)
        rng = np.random.default_rng(78)
        u = rng.uniform(-1.0, 1.0, op_full.N)
        ru = resolvent_apply(op_full, u)
        rhs_values = []
        for l in range(1, 21):
            op_l = discretize(shift_potential(self.V, l), L=10.0, h=0.25)
            lhs, rhs = operators._resolvent_gap(op_l, op_full, u, ru)
            assert lhs <= rhs + 1e-9
            rhs_values.append(rhs)
        assert rhs_values[-1] < rhs_values[0] / 5

    def test_small_metric_implies_small_resolvent_gap(self):
        V = self.V
        W = truncate_potential(V, 5)
        assert float(metric_d(W, V)) < 1e-6
        op_full = discretize(V, L=10.0, h=0.25)
        op_trunc = discretize(W, L=10.0, h=0.25)
        rng = np.random.default_rng(79)
        u = rng.uniform(-1.0, 1.0, op_full.N)
        lhs, _ = operators._resolvent_gap(op_trunc, op_full, u, resolvent_apply(op_full, u))
        assert lhs < 1e-9

    def test_grid_mismatch_rejected(self):
        other = discretize(self.V, L=5.0, h=0.5)
        u = np.ones(self.op.N)
        ru = resolvent_apply(self.op, u)
        with pytest.raises(DomainError):
            operators._resolvent_gap(other, self.op, u, ru)

    def test_same_matrix_compares_the_stencils(self):
        # truncation 6 of the Gaussian rounds to V on this grid, truncation 5 does not
        op_full = discretize(self.V, L=10.0, h=0.25)
        assert op_full._same_matrix(discretize(truncate_potential(self.V, 6), L=10.0, h=0.25))
        assert not op_full._same_matrix(discretize(truncate_potential(self.V, 5), L=10.0,
                                                   h=0.25))
        assert not op_full._same_matrix(discretize(self.V, L=10.0, h=0.5))
        plane = discretize(gaussian_well(nu=2), L=2.0, h=0.25)
        assert plane._same_matrix(discretize(gaussian_well(nu=2), L=2.0, h=0.25))
        assert not plane._same_matrix(discretize(self.V, L=56.5, h=0.5))  # N = 225 in 1-D


class TestGapShrinkage:
    def test_top_eigenvalue_magnitude_nonincreasing_in_box_size(self):
        V = square_well(depth=1.0, radius=1.0)
        mags = []
        for L in (10.0, 20.0, 40.0):
            op = discretize(V, L=L, h=0.25)
            mags.append(abs(op.lambda_max))
        assert mags[1] <= mags[0] + 1e-12
        assert mags[2] <= mags[1] + 1e-12


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


class TestPotentialSerialization:
    def _round_trip(self, V):
        W = potential_from_text(potential_to_text(V))
        assert W.kind == V.kind
        assert W.nu == V.nu
        assert W.a_bound == V.a_bound
        rng = np.random.default_rng(404)
        pts = rng.uniform(-20.0, 20.0, 200) if V.nu == 1 else rng.uniform(-20.0, 20.0, (200, 2))
        assert np.array_equal(W.eval(pts), V.eval(pts))
        return W

    def test_closed_form_round_trips(self):
        self._round_trip(constant_potential(-0.3))
        self._round_trip(gaussian_well(depth=1.7, width=0.9))
        self._round_trip(exp_well(depth=0.4, width=3.0, nu=2))
        self._round_trip(square_well(depth=2.0, radius=1.5))

    def test_sampled_round_trips(self):
        rng = np.random.default_rng(808)
        self._round_trip(sampled_potential(-rng.uniform(0, 1, 17), -4.0, 4.0, a_bound=1.0))
        self._round_trip(sampled_potential(-rng.uniform(0, 1, 16), -2.0, 2.0, nu=2, a_bound=1.0))

    def test_nested_wrapper_round_trips(self):
        V = truncate_potential(shift_potential(gaussian_well(nu=2), 3), 5)
        W = self._round_trip(V)
        assert W.base.kind == "shifted"
        assert W.base.base.kind == "gaussian-well"

    # one example per kind of the potential-kind table, built for a given nu
    _EXAMPLES = {
        "constant": lambda nu: constant_potential(-0.3, nu=nu),
        "gaussian-well": lambda nu: gaussian_well(depth=1.7, width=0.9, nu=nu),
        "exp-well": lambda nu: exp_well(depth=0.4, width=3.0, nu=nu),
        "square-well": lambda nu: square_well(depth=2.0, radius=1.5, nu=nu),
        "sampled": lambda nu: sampled_potential(-np.linspace(0.0, 1.0, 16), -2.0, 2.0, nu=nu,
                                                a_bound=1.0),
        "truncated": lambda nu: truncate_potential(square_well(nu=nu), 2),
        "shifted": lambda nu: shift_potential(exp_well(depth=1.2, nu=nu), 4),
    }

    @pytest.mark.parametrize("nu", [1, 2])
    @pytest.mark.parametrize("kind", sorted(operators._KINDS))
    def test_every_kind_round_trips(self, kind, nu):
        # a kind added to the table without an example here, or without text support, fails
        V = self._EXAMPLES[kind](nu)
        assert V.kind == kind
        W = self._round_trip(V)
        assert W.params == V.params
        assert potential_to_text(W) == potential_to_text(V)

    def test_readme_lists_every_kind_and_parameter(self):
        """The README "File formats" potential list matches the kind table exactly."""
        readme = open(os.path.join(os.path.dirname(__file__), "..", "README.md"),
                      encoding="utf-8").read()
        bullet = re.search(r"^- \*\*Potentials\*\*.*?(?=^- )", readme, flags=re.M | re.S)
        documented = {kind: re.findall(r"`(\w+)`", params)
                      for kind, params in re.findall(r"`([\w-]+)` \(([^)]*)\)", bullet.group(0))}
        assert documented == {kind: list(spec.params) for kind, spec in operators._KINDS.items()}

    def test_file_round_trip(self, tmp_path):
        V = shift_potential(exp_well(depth=1.2), 4)
        path = tmp_path / "well.potential"
        save_potential(V, path)
        W = load_potential(path)
        assert W.params == V.params
        assert W.base.params == V.base.params

    def test_malformed_text_rejected(self):
        with pytest.raises(DomainError):
            potential_from_text("measure atomic n=1\n")
        with pytest.raises(DomainError):
            potential_from_text("")

    # descriptors that skip the helper constructors get the same checks
    _BASE = "base.kind=square-well\nbase.nu=1\nbase.a_bound=1.0\nbase.depth=1.0\nbase.radius=1.0\n"

    @pytest.mark.parametrize("text, named", [
        ("potential kind=shifted nu=1 a_bound=1.0\nl=-1\na=1.0\n" + _BASE, "l > 0"),
        ("potential kind=shifted nu=1 a_bound=1.0\nl=1\na=2.0\n" + _BASE, "shift level"),
        ("potential kind=truncated nu=1 a_bound=1.0\nk=0\n" + _BASE, "k > 0"),
        ("potential kind=gaussian-well nu=1 a_bound=1.0\ndepth=1.0\nwidth=0\n", "width > 0"),
        ("potential kind=square-well nu=1 a_bound=1.0\ndepth=nan\nradius=1\n", "depth > 0"),
        ("potential kind=sampled nu=1 a_bound=1.0\ngrid_lo=1.0\ngrid_hi=-1.0\nvalues=-1,0\n",
         "grid_hi"),
        ("potential kind=sampled nu=1 a_bound=1.0\ngrid_lo=-1.0\ngrid_hi=1.0\nvalues=-1\n",
         "n >= 2"),
        ("potential kind=sampled nu=2 a_bound=1.0\ngrid_lo=-1.0\ngrid_hi=1.0\nn=3\n"
         "values=-1,0,0,-1\n", "n^2 values"),
        ("potential kind=gaussian-well nu=1 a_bound=1.0 nu=2\ndepth=1.0\nwidth=1.0\n",
         "nu= is given twice"),
        ("potential kind=gaussian-well nu=1 a_bound=1.0\ndepth=1.0\nwidth=1.0\nwidth=2.0\n",
         "width= is given twice"),
        ("potential kind=truncated nu=1 a_bound=1.0\nk=2\n" + _BASE + "base.kind=exp-well\n",
         "base.kind= is given twice"),
        ("potential kind=square-well nu=1 a_bound=1.0\ndepth 1.0\nradius=1.0\n", "depth 1.0"),
        ("potential kind=square-well nu=1 a_bound=1.0\n=1.0\nradius=1.0\n", "'=1.0'"),
    ], ids=["shift-index", "shift-level", "truncation-index", "zero-width", "nan-depth",
            "reversed-grid", "one-sample", "sample-count", "repeated-nu", "repeated-width",
            "repeated-base-kind", "no-equals", "no-key"])
    def test_parsed_parameters_are_checked(self, text, named):
        with pytest.raises(DomainError, match=re.escape(named)):
            potential_from_text(text)

    @pytest.mark.parametrize("block", [64, 39, 16], ids=["one-short-block", "one-full-block",
                                                          "ragged-last-block"])
    def test_streamed_spectrum_csv_matches_the_whole_text(self, tmp_path, monkeypatch, block):
        op = discretize(gaussian_well(), L=2.0, h=0.1)
        assert op.N == 39
        monkeypatch.setattr(errors, "_CSV_BLOCK_ROWS", block)
        spectrum_to_csv(op, tmp_path / "streamed.csv")
        write_ascii(tmp_path / "whole.csv",
                    csv_text(("index", "eigenvalue"), enumerate(op.eigenvalues.tolist())))
        assert (tmp_path / "streamed.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()

    def test_spectrum_csv_round_trips_eigenvalues(self, tmp_path):
        op = discretize(gaussian_well(), L=2.0, h=0.25)
        path = tmp_path / "spectrum.csv"
        spectrum_to_csv(op, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "index,eigenvalue"
        assert len(lines) == op.N + 1
        parsed = np.array([float(ln.split(",")[1]) for ln in lines[1:]])
        assert np.array_equal(parsed, op.eigenvalues)
        indices = [int(ln.split(",")[0]) for ln in lines[1:]]
        assert indices == list(range(op.N))

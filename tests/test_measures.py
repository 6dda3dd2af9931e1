"""Tests for semistab.measures.

Expected values are produced by independent oracles before being
asserted: mpmath high-precision arithmetic (different summation and
quadrature algorithms than the package), closed-form antiderivatives,
and direct small-case enumeration.
"""

import math
import os
import re

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import semistab as st
from semistab.errors import DomainError, InvariantViolation

mp.mp.dps = 60


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def oracle_lacunary_log_atoms(base, exponents, n):
    """(log_s, log_w) via mpmath, normalized to mass 1."""
    exps = [exponents[k % len(exponents)] for k in range(n)]
    log_s = [mp.mpf(2) ** (k + 1) * mp.log(base) for k in range(n)]
    raw = [exps[k] * log_s[k] for k in range(n)]
    m = max(raw)
    total = mp.log(mp.fsum(mp.e ** (r - m) for r in raw)) + m
    log_w = [r - total for r in raw]
    return log_s, log_w


def oracle_slopes_for_atoms(log_s, log_w, grid_nodes):
    """min/max log-log ball-mass increments, recomputed in high precision.

    ``log_s``/``log_w`` and ``grid_nodes`` are taken as the exact float
    coordinates (the membership test s < eps is a float-level contract;
    the acceptance window deliberately puts a node exactly on an atom),
    while all summation happens in mpmath precision.
    """
    log_balls = []
    for le in grid_nodes:
        inside = [mp.mpf(float(w)) for s, w in zip(log_s, log_w) if float(s) < float(le)]
        if not inside:
            log_balls.append(None)
            continue
        m = max(inside)
        log_balls.append(mp.log(mp.fsum(mp.e ** (w - m) for w in inside)) + m)
    slopes = []
    for j in range(len(grid_nodes) - 1):
        a, b = log_balls[j], log_balls[j + 1]
        step = mp.mpf(float(grid_nodes[j + 1])) - mp.mpf(float(grid_nodes[j]))
        if a is None:
            slopes.append(mp.inf)
        else:
            slopes.append((b - a) / step)
    return min(slopes), max(slopes)


def oracle_lacunary_slopes_fullprecision(base, exponents, n, log_lo, log_hi, n_scales):
    """Same estimate derived end-to-end in mpmath (atoms, grid, comparisons).

    At a knife-edge window boundary this can classify a boundary atom
    differently than the float64 route, so it is only used for
    threshold-level assertions, not node-level agreement.
    """
    log_s, log_w = oracle_lacunary_log_atoms(base, exponents, n)
    grid = [mp.mpf(log_lo) + (mp.mpf(log_hi) - mp.mpf(log_lo)) * j / (n_scales - 1)
            for j in range(n_scales)]
    log_balls = []
    for le in grid:
        inside = [w for s, w in zip(log_s, log_w) if s < le]
        if not inside:
            log_balls.append(None)
            continue
        m = max(inside)
        log_balls.append(mp.log(mp.fsum(mp.e ** (w - m) for w in inside)) + m)
    slopes = []
    for j in range(n_scales - 1):
        a, b = log_balls[j], log_balls[j + 1]
        if a is None:
            slopes.append(mp.inf)
        else:
            slopes.append((b - a) / (grid[j + 1] - grid[j]))
    return min(slopes), max(slopes)


def oracle_density_laplace(density, s_lo, s_hi, t):
    """mpmath tanh-sinh quadrature of density(s) * exp(-2 t s)."""
    f = lambda s: mp.mpf(density(float(s))) * mp.e ** (-2 * mp.mpf(t) * s)
    return mp.quad(f, [s_lo, s_hi])


# ---------------------------------------------------------------------------
# ball_mass
# ---------------------------------------------------------------------------


def test_ball_mass_monomial_profile_closed_form():
    # ball mass of the delta-profile measure is eps^(2 delta + 1)/(2 delta + 1)
    mu = st.monomial_profile_measure(0.75)
    assert st.ball_mass(mu, 1.0) == pytest.approx(0.4, rel=1e-14)
    for eps in (0.01, 0.3, 0.9):
        assert st.ball_mass(mu, eps) == pytest.approx(eps ** 2.5 / 2.5, rel=1e-12)


def test_monomial_profile_mass_closed_form():
    # the profile y**delta on [0, 1] has norm^2 1/(2 delta + 1)
    mu = st.monomial_profile_measure(0.75)
    assert mu.mass == pytest.approx(1.0 / 2.5, rel=1e-12)


def test_monomial_profile_ball_mass_below_one():
    mu = st.monomial_profile_measure(0.6)
    p = 2 * 0.6 + 1
    for eps in (1e-4, 0.03, 0.7):
        assert mu.ball_mass(eps) == pytest.approx(eps ** p / p, rel=1e-12)


@pytest.mark.parametrize("build", [
    lambda: st.monomial_profile_measure(0.0),
    lambda: st.uniform_measure(3.0, 1.0),
], ids=["monomial-delta-zero", "uniform-reversed"])
def test_profile_constructors_reject_bad_parameters(build):
    with pytest.raises(DomainError):
        build()


def test_ball_mass_two_atoms():
    mu = st.AtomicMeasure.from_points([-1.0, -2.0], [0.5, 0.5])
    assert st.ball_mass(mu, 3.0) == 1.0          # whole support
    assert st.ball_mass(mu, 1.5) == 0.5          # only the atom at -1
    assert st.ball_mass(mu, 1.0) == 0.0          # open ball excludes -1
    assert st.ball_mass(mu, 0.5) == 0.0


def test_ball_mass_rejects_nonpositive_radius():
    mu = st.AtomicMeasure.from_points([-1.0], [1.0])
    with pytest.raises(DomainError):
        st.ball_mass(mu, 0.0)
    with pytest.raises(DomainError):
        st.ball_mass(mu, -0.5)


@pytest.mark.parametrize("mu", [st.AtomicMeasure.from_points([-1.0], [1.0]),
                                st.power_law_measure(0.5)], ids=["atomic", "density"])
def test_nan_ball_radius_is_rejected(mu):
    for call in (mu.ball_mass, mu.log_ball_mass, lambda eps: st.ball_mass(mu, eps),
                 lambda le: mu.log_ball_mass(np.array([-1.0, le]))):
        with pytest.raises(DomainError):
            call(math.nan)


def test_ball_mass_monotone_on_random_radius_pairs():
    rng = np.random.default_rng(7)
    measures = [
        st.AtomicMeasure.from_points(-rng.uniform(0.01, 10.0, 15), rng.uniform(0.1, 1.0, 15)),
        st.power_law_measure(1.7),
        st.uniform_measure(0.5, 2.5, height=0.3),
        st.lacunary_measure(0.4, [1.0, 2.0], 8),
    ]
    for mu in measures:
        pairs = rng.uniform(1e-4, 5.0, size=(25, 2))
        for a, b in pairs:
            lo, hi = min(a, b), max(a, b)
            assert st.ball_mass(mu, lo) <= st.ball_mass(mu, hi) + 1e-15


# ---------------------------------------------------------------------------
# scaling_exponents
# ---------------------------------------------------------------------------


def test_scaling_exact_square_law():
    mu = st.power_law_measure(2.0)  # density 2 s on [0, 1]; ball mass eps^2
    est = st.scaling_exponents(mu, 1e-6, 0.1, 20)
    assert est.d_minus == pytest.approx(2.0, abs=1e-12)
    assert est.d_plus == pytest.approx(2.0, abs=1e-12)
    assert not est.convention_branch


def test_scaling_monomial_profile():
    # limit exponent is 2 delta + 1 = 2.5; tolerance covers finite-scale bias
    est = st.scaling_exponents(st.monomial_profile_measure(0.75), 1e-6, 0.1, 20)
    assert abs(est.d_minus - 2.5) <= 1e-3
    assert abs(est.d_plus - 2.5) <= 1e-3
    # raw per-scale ratios carry the ln(2 delta + 1) prefactor bias; they are
    # exposed unmodified for convergence inspection
    ratios = np.asarray(est.ratios)
    assert ratios.min() > 2.5 + 0.05
    assert est.per_scale_ratios[0][0] == pytest.approx(1e-6, rel=1e-12)


def test_scaling_gap_convention_branch():
    mu = st.AtomicMeasure.from_points([-1.0, -2.0], [0.5, 0.5])
    est = st.scaling_exponents(mu, 1e-6, 0.5, 20)
    assert math.isinf(est.d_minus) and est.d_minus > 0
    assert math.isinf(est.d_plus) and est.d_plus > 0
    assert est.convention_branch
    assert all(math.isinf(r) for _, r in est.per_scale_ratios)


@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0, 3.5])
def test_scaling_estimator_consistency_power_laws(gamma):
    est = st.scaling_exponents(st.power_law_measure(gamma), 1e-6, 0.1, 20)
    assert abs(est.d_minus - gamma) <= 1e-9
    assert abs(est.d_plus - gamma) <= 1e-9


def test_scaling_window_validation():
    mu = st.power_law_measure(1.0)
    with pytest.raises(DomainError):
        st.scaling_exponents(mu, 0.0, 0.1, 10)
    with pytest.raises(DomainError):
        st.scaling_exponents(mu, 0.2, 0.1, 10)
    with pytest.raises(DomainError):
        st.scaling_exponents(mu, 0.1, 1.5, 10)
    with pytest.raises(DomainError):
        st.scaling_exponents(mu, 1e-3, 0.1, 1)
    with pytest.raises(DomainError):
        st.scaling_exponents(mu, log_window=(-1.0, 0.5), n_scales=10)


def test_scaling_invariant_dminus_le_dplus_random():
    rng = np.random.default_rng(21)
    for _ in range(20):
        n = rng.integers(1, 12)
        mu = st.AtomicMeasure.from_points(
            -rng.uniform(1e-5, 3.0, n), rng.uniform(0.05, 2.0, n)
        )
        est = st.scaling_exponents(mu, 1e-6, 0.9, 25)
        assert est.d_minus <= est.d_plus


# ---------------------------------------------------------------------------
# laplace_norm_sq
# ---------------------------------------------------------------------------


def test_laplace_at_zero_returns_mass():
    rng = np.random.default_rng(3)
    mu_a = st.AtomicMeasure.from_points(-rng.uniform(0.1, 5.0, 10), rng.uniform(0.2, 2.0, 10))
    assert st.laplace_norm_sq(mu_a, 0.0) == pytest.approx(mu_a.mass, rel=1e-12)
    mu_d = st.monomial_profile_measure(0.6)
    assert st.laplace_norm_sq(mu_d, 0.0) == pytest.approx(1.0 / 2.2, rel=1e-12)
    assert st.laplace_norm_sq(st.power_law_measure(2.0), 0.0) == pytest.approx(1.0, rel=1e-12)


def test_laplace_two_atom_value():
    # direct two-term sum: 0.5 e^-2 + 0.5 e^-4
    mu = st.AtomicMeasure.from_points([-1.0, -2.0], [0.5, 0.5])
    expected = 0.5 * math.exp(-2.0) + 0.5 * math.exp(-4.0)
    assert st.laplace_norm_sq(mu, 1.0) == pytest.approx(expected, rel=1e-14)
    assert st.laplace_norm_sq(mu, 1.0, log_domain=True) == pytest.approx(
        math.log(expected), abs=1e-13
    )


def test_laplace_monomial_profile_asymptotic():
    # Gamma(2 delta + 1) / (2 t)^(2 delta + 1) at t = 1e3, cross-checked by
    # brute-force high-precision quadrature
    delta = 0.75
    mu = st.monomial_profile_measure(delta)
    t = 1e3
    val = st.laplace_norm_sq(mu, t)
    asym = float(mp.gamma(2 * delta + 1) / (2 * t) ** (2 * delta + 1))
    assert abs(val - asym) / asym < 0.02
    brute = float(oracle_density_laplace(lambda s: s ** 1.5, 0.0, 1.0, t))
    assert val == pytest.approx(brute, rel=1e-10)


def test_laplace_log_domain_far_support():
    # uniform density on s in [1, 3]: integral e^{-2 t s} ds = e^{-2t}(1 - e^{-4t})/(2t)
    mu = st.uniform_measure(1.0, 3.0)
    lv = st.laplace_norm_sq(mu, 1e3, log_domain=True)
    assert lv == pytest.approx(-2000.0 - math.log(2000.0), abs=1e-9)
    # linear domain underflows cleanly to 0; no exception, no NaN
    assert st.laplace_norm_sq(mu, 1e3) == 0.0


@pytest.mark.parametrize("t", [0.1, 1.0, 10.0])
def test_uniform_laplace_closed_form(t):
    # indicator profile on [1, 3]: integral e^{-2 t s} ds = (e^{-2t} - e^{-6t}) / (2t)
    mu = st.uniform_measure(1.0, 3.0)
    expected = (math.exp(-2.0 * t) - math.exp(-6.0 * t)) / (2.0 * t)
    assert st.laplace_norm_sq(mu, t) == pytest.approx(expected, rel=1e-10)


def test_laplace_monotone_in_t():
    for mu in (
        st.power_law_measure(1.3),
        st.lacunary_measure(0.5, [0.5, 4.0], 12),
        st.uniform_measure(0.2, 1.7),
    ):
        ts = np.geomspace(1e-3, 1e6, 40)
        vals = [st.laplace_norm_sq(mu, t, log_domain=True) for t in ts]
        assert all(b <= a + 1e-10 for a, b in zip(vals, vals[1:]))


def test_laplace_rejects_negative_t():
    mu = st.AtomicMeasure.from_points([-1.0], [1.0])
    with pytest.raises(DomainError):
        st.laplace_norm_sq(mu, -0.1)


# ---------------------------------------------------------------------------
# laplace_moment
# ---------------------------------------------------------------------------


def test_laplace_moment_uniform_closed_form():
    # integral_0^1 s^2 e^{-2s} ds = 1/4 - (5/4) e^{-2}
    mu = st.uniform_measure(0.0, 1.0)
    exact = 0.25 - 1.25 * math.exp(-2.0)
    assert st.laplace_moment(mu, 1.0) == pytest.approx(exact, rel=1e-12)


def test_laplace_moment_atomic_vs_oracle():
    rng = np.random.default_rng(11)
    pos = -rng.uniform(0.05, 6.0, 12)
    wts = rng.uniform(0.1, 1.5, 12)
    mu = st.AtomicMeasure.from_points(pos, wts)
    for t in (0.0, 0.3, 2.0):
        for shift in (0.0, 0.4):
            oracle = float(mp.fsum(
                mp.mpf(w) * (mp.mpf(p) + shift) ** 2 * mp.e ** (2 * mp.mpf(t) * mp.mpf(p))
                for p, w in zip(pos, wts)
            ))
            assert st.laplace_moment(mu, t, shift=shift) == pytest.approx(oracle, rel=1e-12)


def test_laplace_moment_shift_cancels_matching_atom():
    # an atom exactly at -shift contributes zero to the moment; only the
    # atom at -3 survives: 0.3 * (-3 + 1)^2 * e^(2 * 0.5 * -3)
    mu = st.AtomicMeasure.from_points([-1.0, -3.0], [0.7, 0.3])
    val = st.laplace_moment(mu, 0.5, shift=1.0)
    assert val == pytest.approx(0.3 * 4.0 * math.exp(-3.0), rel=1e-13)


def test_logsumexp_is_bit_identical_to_scipy():
    # the kernel's numpy copy of scipy.special.logsumexp, on rows with tied
    # maxima, -inf entries and all--inf rows, along the last axis and in 1-D
    from scipy.special import logsumexp

    from semistab.measures import _logsumexp

    rng = np.random.default_rng(2024)
    for _ in range(200):
        rows, cols = rng.integers(1, 9), rng.integers(1, 40)
        a = rng.normal(0.0, rng.choice([1.0, 40.0, 800.0]), (rows, cols)).round(rng.integers(0, 3))
        a[:, rng.integers(0, cols)] = a.max(axis=1)  # a tie at each row's maximum
        a[rng.uniform(size=a.shape) < 0.2] = -np.inf
        a[rng.integers(0, rows)] = -np.inf
        expected = logsumexp(a, axis=1)
        assert _logsumexp(a).tobytes() == expected.tobytes()
        for row in a:
            got = _logsumexp(row)
            assert isinstance(got, np.float64)
            assert got.tobytes() == np.float64(logsumexp(row)).tobytes()


# ---------------------------------------------------------------------------
# lacunary_measure
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mu", [
    st.AtomicMeasure.from_points([-0.0, -0.3, -1.0, -2.5, -7.0], [0.2, 0.1, 0.4, 0.2, 0.1]),
    st.lacunary_measure(0.5, [0.5, 4.0], 12),
    st.uniform_measure(0.5, 2.0),
    st.power_law_measure(2.0),
], ids=["atomic", "lacunary", "uniform", "power-law"])
@pytest.mark.parametrize("shift", [0.0, 0.25])
def test_laplace_moment_array_call_matches_scalar_calls(mu, shift):
    ts = np.geomspace(1e-3, 1e3, 17)
    batched = mu.log_laplace_moment(ts, shift=shift)
    assert isinstance(batched, np.ndarray) and batched.shape == ts.shape
    single = [mu.log_laplace_moment(float(t), shift=shift) for t in ts]
    assert all(isinstance(v, float) for v in single)
    assert batched.tobytes() == np.array(single).tobytes()


def test_lacunary_positions_base_half_n4():
    # atoms at -(1/2)^(2^k), k = 1..4: -2^-2, -2^-4, -2^-8, -2^-16
    mu = st.lacunary_measure(0.5, [1.0, 1.0, 1.0, 1.0], 4)
    expected_s = np.array([2.0 ** -16, 2.0 ** -8, 2.0 ** -4, 2.0 ** -2])
    assert np.allclose(-mu.positions, expected_s, rtol=1e-14)
    # with all exponents 1 the weights are proportional to the moduli
    expected_w = expected_s / expected_s.sum()
    assert np.allclose(mu.weights, expected_w, rtol=1e-13)
    assert mu.mass == pytest.approx(1.0, rel=1e-13)


def test_lacunary_exponent_cycling_matches_explicit_list():
    a = st.lacunary_measure(0.5, [0.5, 4.0], 12)
    b = st.lacunary_measure(0.5, [0.5, 4.0] * 6, 12)
    assert np.array_equal(a.log_s, b.log_s)
    assert np.array_equal(a.log_w, b.log_w)


def test_lacunary_alternating_acceptance_window():
    mu = st.lacunary_measure(0.5, [0.5, 4.0], 12)
    lw = (-2048.0 * math.log(2.0), -4.0 * math.log(2.0))
    est = st.scaling_exponents(mu, n_scales=257, log_window=lw)
    assert est.d_minus <= 0.7
    assert est.d_plus >= 3.0
    assert not est.convention_branch  # window floor sits exactly on atom 11
    # node-level agreement with a high-precision recomputation on the same
    # float grid (independent summation: pure-Python mpmath, no numpy)
    lo, hi = oracle_slopes_for_atoms(mu.log_s, mu.log_w, est.log_eps)
    assert est.d_minus == pytest.approx(float(lo), abs=1e-9)
    assert est.d_plus == pytest.approx(float(hi), rel=1e-9)
    # threshold robustness under an end-to-end extended-precision route,
    # which may flip the knife-edge boundary atom the other way
    lo_mp, hi_mp = oracle_lacunary_slopes_fullprecision(
        mp.mpf(1) / 2, [0.5, 4.0], 12, lw[0], lw[1], 257
    )
    assert float(lo_mp) <= 0.7
    assert float(hi_mp) >= 3.0


def test_lacunary_log_atoms_match_oracle():
    log_s, log_w = oracle_lacunary_log_atoms(mp.mpf(1) / 2, [0.5, 4.0], 12)
    mu = st.lacunary_measure(0.5, [0.5, 4.0], 12)
    # package stores ascending in log_s; oracle builds k = 1..n (descending s)
    for s_pkg, w_pkg, s_ora, w_ora in zip(
        mu.log_s, mu.log_w, reversed(log_s), reversed(log_w)
    ):
        assert s_pkg == pytest.approx(float(s_ora), rel=1e-15)
        assert w_pkg == pytest.approx(float(w_ora), rel=5e-13, abs=1e-9)


def test_lacunary_ball_positive_above_smallest_atom():
    mu = st.lacunary_measure(0.3, [2.0], 6)
    smallest = 0.3 ** (2 ** 6)
    for eps in (smallest * 1.01, 1e-20, 1e-3, 0.5):
        assert st.log_ball_mass(mu, math.log(eps)) > -math.inf


def test_lacunary_domain_errors():
    with pytest.raises(DomainError):
        st.lacunary_measure(0.5, [], 4)
    with pytest.raises(DomainError):
        st.lacunary_measure(1.5, [1.0], 4)
    with pytest.raises(DomainError):
        st.lacunary_measure(0.5, [-1.0], 4)
    with pytest.raises(DomainError):
        st.lacunary_measure(0.5, [1.0], 0)


# ---------------------------------------------------------------------------
# atomic construction and invariants
# ---------------------------------------------------------------------------


def test_atomic_merges_duplicate_positions():
    mu = st.AtomicMeasure.from_points([-1.0, -2.0, -1.0], [0.25, 0.5, 0.25])
    assert mu.n_atoms == 2
    assert st.ball_mass(mu, 1.5) == pytest.approx(0.5, rel=1e-14)


def test_atomic_orders_closest_to_zero_first():
    mu = st.AtomicMeasure.from_points([-3.0, -0.5, -1.0], [1.0, 2.0, 3.0])
    assert np.all(np.diff(mu.log_s) > 0)
    assert mu.positions[0] == pytest.approx(-0.5)


def test_atomic_atom_at_zero_is_representable():
    mu = st.AtomicMeasure.from_points([0.0, -1.0], [0.3, 0.7])
    assert math.isinf(mu.log_s[0]) and mu.log_s[0] < 0
    assert st.ball_mass(mu, 1e-12) == pytest.approx(0.3, rel=1e-14)
    # the zero atom freezes the Laplace transform at its weight
    assert st.laplace_norm_sq(mu, 1e9) == pytest.approx(0.3, rel=1e-12)


def test_atomic_construction_errors():
    with pytest.raises(DomainError):
        st.AtomicMeasure.from_points([], [])
    with pytest.raises(DomainError):
        st.AtomicMeasure.from_points([1.0], [1.0])       # positive position
    with pytest.raises(DomainError):
        st.AtomicMeasure.from_points([-1.0], [0.0])      # zero weight
    with pytest.raises(DomainError):
        st.AtomicMeasure.from_points([-1.0], [-2.0])     # negative weight
    with pytest.raises(DomainError):
        st.AtomicMeasure.from_points([-1.0, -2.0], [1.0])


def test_atomic_arrays_immutable():
    mu = st.AtomicMeasure.from_points([-1.0], [1.0])
    with pytest.raises(ValueError):
        mu.log_s[0] = 0.0


@settings(max_examples=50, deadline=None)
@given(
    hst.lists(hst.floats(min_value=-50.0, max_value=-1e-3), min_size=1, max_size=12),
    hst.data(),
)
def test_atomic_property_mass_and_monotonicity(positions, data):
    weights = data.draw(
        hst.lists(
            hst.floats(min_value=1e-3, max_value=10.0),
            min_size=len(positions),
            max_size=len(positions),
        )
    )
    mu = st.AtomicMeasure.from_points(positions, weights)
    assert st.laplace_norm_sq(mu, 0.0) == pytest.approx(float(np.sum(weights)), rel=1e-12)
    eps_a = data.draw(hst.floats(min_value=1e-4, max_value=100.0))
    eps_b = data.draw(hst.floats(min_value=1e-4, max_value=100.0))
    lo, hi = sorted((eps_a, eps_b))
    assert st.ball_mass(mu, lo) <= st.ball_mass(mu, hi) * (1 + 1e-12) + 1e-300
    t = data.draw(hst.floats(min_value=0.0, max_value=100.0))
    assert st.laplace_norm_sq(mu, t) <= mu.mass * (1 + 1e-12)


# ---------------------------------------------------------------------------
# density construction and invariants
# ---------------------------------------------------------------------------


def test_density_rejects_wrong_closed_form():
    with pytest.raises(InvariantViolation):
        st.DensityMeasure(
            s_lo=0.0,
            s_hi=1.0,
            density=lambda s: np.full_like(np.asarray(s, float), 1.0),
            # ln(eps) - ln 2: the uniform ball mass off by a factor 2
            log_ball_mass_fn=lambda le: np.minimum(le, 0.0) - math.log(2.0),
        )


def test_density_rejects_negative_density():
    with pytest.raises(InvariantViolation):
        st.DensityMeasure(s_lo=0.0, s_hi=1.0, density=lambda s: np.asarray(s) - 0.5)


def test_density_rejects_bad_support():
    with pytest.raises(DomainError):
        st.DensityMeasure(s_lo=1.0, s_hi=1.0, density=lambda s: np.ones_like(np.asarray(s)))
    with pytest.raises(DomainError):
        st.DensityMeasure(s_lo=-0.5, s_hi=1.0, density=lambda s: np.ones_like(np.asarray(s)))


def test_density_rejects_inconsistent_smooth_factor():
    with pytest.raises(InvariantViolation):
        st.DensityMeasure(
            s_lo=0.0,
            s_hi=1.0,
            density=lambda s: np.asarray(s, float) ** 2,
            alg_power=2.0,
            smooth_factor=lambda sig: 3.0,  # density is sig^2 * 1, not sig^2 * 3
        )


def _mp_log_first_segment(v0, slope, log_eps):
    eps = mp.e ** mp.mpf(log_eps)
    return mp.log(eps * (v0 + slope * eps / 2))


@pytest.mark.parametrize("mu, oracle", [
    (st.uniform_measure(0.0, 1.0), lambda le: mp.mpf(le)),
    (st.uniform_measure(0.0, 2.0, height=2.5), lambda le: mp.log(mp.mpf(2.5)) + le),
    (st.sampled_density_measure([0.0, 1.0], [1.0, 1.0]),
     lambda le: _mp_log_first_segment(1, 0, le)),
    (st.sampled_density_measure([0.0, 2.0, 3.0], [1.0, 3.0, 0.0]),
     lambda le: _mp_log_first_segment(1, 1, le)),
    (st.sampled_density_measure([0.0, 1.0], [0.0, 2.0]),
     lambda le: _mp_log_first_segment(0, 2, le)),
], ids=["uniform", "uniform-height", "sampled-flat", "sampled-rising", "sampled-from-zero"])
def test_density_ball_mass_below_double_range(mu, oracle):
    for le in (-2000.0, -745.5, -30.0):
        assert mu.log_ball_mass(le) == pytest.approx(float(oracle(le)), rel=1e-14)


# User densities without a closed form: density(s) = s^p (c0 + s) on [0, 1].
# The oracle integrates the ball mass exactly in mpmath.
_USER_DENSITIES = {
    0: st.DensityMeasure(0.0, 1.0, density=lambda s: 1.5 + s),
    2: st.DensityMeasure(0.0, 1.0, density=lambda s: s ** 2 * (2.0 + s), alg_power=2.0,
                         smooth_factor=lambda sig: 2.0 + sig),
    -0.5: st.DensityMeasure(0.0, 1.0, density=lambda s: s ** -0.5 * (1.0 + s), alg_power=-0.5,
                            smooth_factor=lambda sig: 1.0 + sig),
}


@pytest.mark.parametrize("p, c0", [(0, 1.5), (2, 2.0), (-0.5, 1.0)])
def test_user_density_ball_mass_below_double_range(p, c0):
    mu = _USER_DENSITIES[p]
    for le in (-700.0, -744.0, -2000.0):
        eps = mp.e ** mp.mpf(le)
        oracle = mp.log(c0 * eps ** (p + 1) / (p + 1) + eps ** (p + 2) / (p + 2))
        assert mu.log_ball_mass(le) == pytest.approx(float(oracle), rel=1e-14)


# A pure edge power: at ln eps = -700 eps is a normal double but eps^3 / 3 is not.
_CUBIC_BALL = st.DensityMeasure(0.0, 1.0, density=lambda s: s ** 2, alg_power=2.0,
                                smooth_factor=lambda sig: 1.0)


def test_user_density_ball_mass_in_the_underflow_band():
    for le in (-250.0, -500.0, -700.0):
        oracle = mp.log((mp.e ** mp.mpf(le)) ** 3 / 3)
        assert _CUBIC_BALL.log_ball_mass(le) == pytest.approx(float(oracle), rel=1e-14)


def test_user_density_with_edge_power_scaling_exponents():
    est = st.scaling_exponents(_CUBIC_BALL, log_window=(-2000.0, -1.0))
    assert not est.convention_branch
    assert est.d_minus == pytest.approx(3.0, abs=1e-12)
    assert est.d_plus == pytest.approx(3.0, abs=1e-12)


def test_user_density_ball_mass_keeps_minus_inf_without_edge_value():
    mu = st.DensityMeasure(0.0, 1.0, density=lambda s: s, alg_power=1.0,
                           smooth_factor=lambda sig: 1.0 * (sig > 0.0))
    assert mu.log_ball_mass(-2000.0) == -math.inf


def test_user_density_scaling_exponents_below_double_range():
    mu = st.DensityMeasure(0.0, 1.0, density=np.ones_like)
    est = st.scaling_exponents(mu, log_window=(-2000.0, -1.0))
    assert not est.convention_branch
    assert est.d_minus == pytest.approx(1.0, abs=1e-12)
    assert est.d_plus == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("mu", [
    st.uniform_measure(0.0, 1.0),
    st.sampled_density_measure([0.0, 1.0], [1.0, 1.0]),
], ids=["uniform", "sampled"])
def test_scaling_exponents_below_double_range(mu):
    est = st.scaling_exponents(mu, log_window=(-2000.0, -1.0))
    assert not est.convention_branch
    assert est.d_minus == pytest.approx(1.0, abs=1e-12)
    assert est.d_plus == pytest.approx(1.0, abs=1e-12)


def test_sampled_density_ball_mass_matches_trapezoid():
    grid = np.linspace(0.0, 2.0, 41)
    vals = 1.0 + 0.5 * np.sin(grid)
    mu = st.sampled_density_measure(grid, vals)
    for eps in (0.13, 0.77, 1.5, 2.5):
        hi = min(eps, 2.0)
        fine = np.linspace(0.0, hi, 20001)
        oracle = np.trapezoid(np.interp(fine, grid, vals), fine)
        assert st.ball_mass(mu, eps) == pytest.approx(float(oracle), rel=1e-7)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_atomic_roundtrip_exact_random():
    rng = np.random.default_rng(5)
    mu = st.AtomicMeasure.from_points(-rng.uniform(1e-8, 20.0, 17), rng.uniform(1e-6, 3.0, 17))
    back = st.measure_from_text(st.measure_to_text(mu))
    assert np.array_equal(back.log_s, mu.log_s)
    assert np.array_equal(back.log_w, mu.log_w)


def test_atomic_roundtrip_exact_extreme_scales():
    mu = st.lacunary_measure(0.5, [0.5, 4.0], 12)  # moduli down to 2^-4096
    back = st.measure_from_text(st.measure_to_text(mu))
    assert np.array_equal(back.log_s, mu.log_s)
    assert np.array_equal(back.log_w, mu.log_w)


def test_atomic_roundtrip_atom_at_zero():
    mu = st.AtomicMeasure.from_points([0.0, -2.0], [0.4, 0.6])
    back = st.measure_from_text(st.measure_to_text(mu))
    assert np.array_equal(back.log_s, mu.log_s)
    assert math.isinf(back.log_s[0])


@pytest.mark.parametrize(
    "mu",
    [
        st.power_law_measure(2.0),
        st.monomial_profile_measure(0.75),
        st.uniform_measure(1.0, 3.0, height=0.5),
    ],
    ids=["power-law", "monomial-profile", "uniform"],
)
def test_density_roundtrip_reproduces_values(mu):
    back = st.measure_from_text(st.measure_to_text(mu))
    assert back.kind == mu.kind
    assert back.s_lo == mu.s_lo and back.s_hi == mu.s_hi
    for eps in (0.3, 0.9, 1.7, 2.9):
        if eps <= back.s_hi + 1.0:
            assert st.ball_mass(back, eps) == st.ball_mass(mu, eps)
    assert back.log_laplace(2.0) == pytest.approx(mu.log_laplace(2.0), rel=1e-12)


def test_sampled_density_roundtrip():
    grid = np.linspace(0.5, 1.5, 11)
    vals = np.linspace(1.0, 2.0, 11)
    mu = st.sampled_density_measure(grid, vals)
    back = st.measure_from_text(st.measure_to_text(mu))
    assert np.array_equal(back.params["grid"], grid)
    assert np.array_equal(back.params["values"], vals)


def test_atomic_roundtrip_mass_beyond_double_range():
    mu = st.AtomicMeasure(log_s=[0.0, 1.0], log_w=[800.0, 0.0])
    assert mu.mass == math.inf
    back = st.measure_from_text(st.measure_to_text(mu))
    assert np.array_equal(back.log_w, mu.log_w)


# repeated, unknown and disagreeing entries are also exercised through the CLI
@pytest.mark.parametrize("text, named", [
    ("density kind=power-law mass=nan\ngamma=0.5\n", "mass=nan disagrees"),
    ("density kind=uniform support=1.0,3.0 mass=2.0000001\n", "mass=2.0000001 disagrees"),
    ("density kind=power-law\ngamma=0.5\n0.0 1.0\n", "malformed power-law measure line"),
    ("density kind=atomic n=1\n0.0 0.0\n", "unknown density kind: 'atomic'"),
    ("atomic n=1 support=0,1\n0.0 0.0\n", "unknown entries ['support']"),
], ids=["nan-mass", "uniform-mass", "stray-row", "atomic-as-density", "atomic-support"])
def test_measure_from_text_checks_every_entry(text, named):
    with pytest.raises(DomainError, match=re.escape(named)):
        st.measure_from_text(text)


def test_readme_lists_every_measure_family_and_entry():
    """The README "File formats" measure list matches the family table exactly."""
    readme = open(os.path.join(os.path.dirname(__file__), "..", "README.md"),
                  encoding="utf-8").read()
    bullet = re.search(r"^- \*\*Measures\*\*.*?(?=^- )", readme, flags=re.M | re.S)
    documented = {family: set(re.findall(r"`(\w+)`", entries))
                  for family, entries in re.findall(r"`([\w-]+)` \(([^)]*)\)", bullet.group(0))}
    assert documented == {family: own for family, (own, _) in st.measures._FAMILIES.items()}


def test_stated_mass_within_tolerance_loads():
    mu = st.measure_from_text("density kind=uniform support=1.0,3.0 mass=2.000000001\n")
    assert mu.mass == 2.0


def test_measure_file_io(tmp_path):
    mu = st.lacunary_measure(0.5, [1.0], 5)
    path = tmp_path / "witness.measure"
    st.save_measure(mu, path)
    back = st.load_measure(path)
    assert np.array_equal(back.log_s, mu.log_s)


@pytest.mark.parametrize("kind", ["density", "atomic", "my-profile"])
def test_unregistered_density_is_not_written(kind):
    # measure_from_text could not read it back, so to_text refuses it
    mu = st.DensityMeasure(0.0, 1.0, density=np.ones_like, kind=kind)
    with pytest.raises(DomainError, match=re.escape(repr(kind))):
        st.measure_to_text(mu)


def _mislabelled_uniform():
    # density 2s on [0, 1] labelled as the uniform density of height 1: same
    # support and mass, but ball_mass(0.5) is 0.25 here and 0.5 as labelled
    return st.DensityMeasure(0.0, 1.0, density=lambda s: 2.0 * s, kind="uniform",
                             params={"height": 1.0})


def test_mislabelled_density_is_not_written():
    mu = _mislabelled_uniform()
    assert mu.ball_mass(0.5) == pytest.approx(0.25)
    assert st.uniform_measure(0.0, 1.0).ball_mass(0.5) == pytest.approx(0.5)
    with pytest.raises(DomainError, match="uniform"):
        st.measure_to_text(mu)


def test_refused_save_leaves_the_file_as_it_was(tmp_path):
    path = tmp_path / "kept.measure"
    st.save_measure(st.power_law_measure(2.0), path)
    before = path.read_bytes()
    for refused in (st.DensityMeasure(0.0, 1.0, density=np.ones_like), _mislabelled_uniform()):
        with pytest.raises(DomainError):
            st.save_measure(refused, path)
        assert path.read_bytes() == before


def test_measure_from_text_rejects_garbage():
    with pytest.raises(DomainError):
        st.measure_from_text("")
    with pytest.raises(DomainError):
        st.measure_from_text("blob n=1\n0.0 0.0\n")
    with pytest.raises(DomainError):
        st.measure_from_text("atomic n=2 coords=log mass=1.0\n-1.0 -1.0\n")

"""Tests for semistab.measures.

Expected values are produced by independent oracles before being
asserted: mpmath high-precision arithmetic (different summation and
quadrature algorithms than the package), closed-form antiderivatives,
and direct small-case enumeration.
"""

import dataclasses
import math
import os
import re
import sys

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
    assert mu.ball_mass(1.0) == pytest.approx(0.4, rel=1e-14)
    for eps in (0.01, 0.3, 0.9):
        assert mu.ball_mass(eps) == pytest.approx(eps ** 2.5 / 2.5, rel=1e-12)


def test_monomial_profile_mass_closed_form():
    # the profile y**delta on [0, 1] has norm^2 1/(2 delta + 1)
    mu = st.monomial_profile_measure(0.75)
    assert mu.mass == pytest.approx(1.0 / 2.5, rel=1e-12)


def test_monomial_profile_ball_mass_below_one():
    mu = st.monomial_profile_measure(0.6)
    p = 2 * 0.6 + 1
    for eps in (1e-4, 0.03, 0.7):
        assert mu.ball_mass(eps) == pytest.approx(eps ** p / p, rel=1e-12)


def test_family_masses_are_exact():
    # exp(log_mass) is a few ulp off the exact mass: uniform(0, 2, 2.5) read
    # 5.000000000000001, and a saved file held that digit
    rng = np.random.default_rng(20191)
    for _ in range(100):
        lo = float(rng.choice([0.0, rng.uniform(0.0, 10.0)]))
        hi, h = lo + float(rng.uniform(1e-3, 10.0)), float(rng.uniform(1e-3, 10.0))
        mu = st.uniform_measure(lo, hi, h)
        assert mu.mass == h * (hi - lo)
        assert mu.mass == pytest.approx(math.exp(mu.log_mass), rel=1e-12)
        d = float(rng.uniform(1e-3, 20.0))
        mu = st.monomial_profile_measure(d)
        assert mu.mass == 1.0 / (2.0 * d + 1.0)
        assert mu.mass == pytest.approx(math.exp(mu.log_mass), rel=1e-12)
    for gamma in (0.3, 1.0, 2.0, 7.5):
        assert st.power_law_measure(gamma).mass == 1.0
    mu = st.uniform_measure(0.0, 2.0, 2.5)
    assert mu.mass == 5.0
    assert mu.to_text().splitlines()[0].endswith(" mass=5.0")


# ---------------------------------------------------------------------------
# family closed forms against the integral
# ---------------------------------------------------------------------------

# each family constructor states a closed-form log ball mass and (all but the
# sampled density) an exact mass; the integral of its density is the oracle
_FAMILY_CASES = {
    **{f"power-law-{g}": (st.power_law_measure, (g,)) for g in (0.3, 1.0, 2.0, 7.5, 105.0)},
    **{f"monomial-profile-{d}": (st.monomial_profile_measure, (d,))
       for d in (0.55, 0.75, 0.99, 534.0)},
    "uniform-from-zero": (st.uniform_measure, (0.0, 2.0, 2.5)),
    "uniform-offset": (st.uniform_measure, (0.5, 3.0, 0.25)),
    "uniform-subnormal-mass": (st.uniform_measure, (0.0, 1e-160, 1e-160)),
    "sampled-from-zero": (st.sampled_density_measure, ([0.0, 2.0, 3.0], [1.0, 3.0, 0.0])),
    "sampled-from-zero-vanishing": (st.sampled_density_measure, ([0.0, 1.0], [0.0, 2.0])),
    "sampled-offset": (st.sampled_density_measure,
                       (np.linspace(0.5, 1.5, 11), np.linspace(1.0, 2.0, 11))),
    "sampled-offset-sine": (st.sampled_density_measure,
                            (np.linspace(0.25, 2.0, 41), 1.0 + 0.5 * np.sin(np.arange(41)))),
    "sampled-at-1e6": (st.sampled_density_measure,
                       ([1e6, 1e6 + 1e-6, 1e6 + 2e-6], [1.0, 2.0, 1.0])),
}


def family_check_radii(mu):
    """10 fixed pseudo-random radii inside the support."""
    rng = np.random.default_rng(774411)
    return mu.s_lo + (mu.s_hi - mu.s_lo) * rng.uniform(0.02, 0.98, size=10)


@pytest.mark.parametrize("case", _FAMILY_CASES)
def test_family_closed_form_and_mass_match_the_integral(case):
    build, args = _FAMILY_CASES[case]
    mu = build(*args)
    # both sides read the radius exp(ln eps) the closed form sees; an empty
    # ball on both sides agrees
    for eps in family_check_radii(mu):
        le = math.log(eps)
        closed, by_quad = float(mu.log_ball_mass(le)), mu._log_ball_mass_by_quad(le)
        assert closed == by_quad or abs(closed - by_quad) <= 1e-8, eps
    # a subnormal mass carries fewer digits than 1e-12 asks for
    assert math.isclose(mu.mass, math.exp(mu.log_mass), rel_tol=1e-12,
                        abs_tol=sys.float_info.min)


def test_family_build_integrates_once_and_writes_without_integrating(monkeypatch):
    from scipy import integrate

    calls = []
    quad = integrate.quad
    monkeypatch.setattr(integrate, "quad", lambda *a, **k: calls.append(1) or quad(*a, **k))
    for build, args in _FAMILY_CASES.values():
        del calls[:]
        mu = build(*args)
        assert len(calls) == 1  # the mass
        text = mu.to_text()
        assert len(calls) == 1
        st.measure_from_text(text)
        assert len(calls) == 2


@pytest.mark.parametrize("build", [
    lambda: st.monomial_profile_measure(0.0),
    lambda: st.uniform_measure(3.0, 1.0),
    lambda: st.uniform_measure(0.0, 1.0, height=0.0),
], ids=["monomial-delta-zero", "uniform-reversed", "uniform-height-zero"])
def test_profile_constructors_reject_bad_parameters(build):
    with pytest.raises(DomainError):
        build()


def test_ball_mass_two_atoms():
    mu = st.AtomicMeasure.from_points([-1.0, -2.0], [0.5, 0.5])
    assert mu.ball_mass(3.0) == 1.0          # whole support
    assert mu.ball_mass(1.5) == 0.5          # only the atom at -1
    assert mu.ball_mass(1.0) == 0.0          # open ball excludes -1
    assert mu.ball_mass(0.5) == 0.0


def test_ball_mass_rejects_nonpositive_radius():
    mu = st.AtomicMeasure.from_points([-1.0], [1.0])
    with pytest.raises(DomainError):
        mu.ball_mass(0.0)
    with pytest.raises(DomainError):
        mu.ball_mass(-0.5)


@pytest.mark.parametrize("mu", [st.AtomicMeasure.from_points([-1.0], [1.0]),
                                st.power_law_measure(0.5)], ids=["atomic", "density"])
def test_nan_ball_radius_is_rejected(mu):
    for call in (mu.ball_mass, mu.log_ball_mass,
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
            assert mu.ball_mass(lo) <= mu.ball_mass(hi) + 1e-15


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
    with pytest.raises(DomainError, match="either a linear window or log_window is required"):
        st.scaling_exponents(mu)


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
# log_laplace
# ---------------------------------------------------------------------------


def test_laplace_at_zero_returns_mass():
    rng = np.random.default_rng(3)
    mu_a = st.AtomicMeasure.from_points(-rng.uniform(0.1, 5.0, 10), rng.uniform(0.2, 2.0, 10))
    assert math.exp(mu_a.log_laplace(0.0)) == pytest.approx(mu_a.mass, rel=1e-12)
    mu_d = st.monomial_profile_measure(0.6)
    assert math.exp(mu_d.log_laplace(0.0)) == pytest.approx(1.0 / 2.2, rel=1e-12)
    assert math.exp(st.power_law_measure(2.0).log_laplace(0.0)) == pytest.approx(1.0, rel=1e-12)


def test_laplace_two_atom_value():
    # direct two-term sum: 0.5 e^-2 + 0.5 e^-4
    mu = st.AtomicMeasure.from_points([-1.0, -2.0], [0.5, 0.5])
    expected = 0.5 * math.exp(-2.0) + 0.5 * math.exp(-4.0)
    assert math.exp(mu.log_laplace(1.0)) == pytest.approx(expected, rel=1e-14)
    assert mu.log_laplace(1.0) == pytest.approx(math.log(expected), abs=1e-13)


def test_laplace_monomial_profile_asymptotic():
    # Gamma(2 delta + 1) / (2 t)^(2 delta + 1) at t = 1e3, cross-checked by
    # brute-force high-precision quadrature
    delta = 0.75
    mu = st.monomial_profile_measure(delta)
    t = 1e3
    val = math.exp(mu.log_laplace(t))
    asym = float(mp.gamma(2 * delta + 1) / (2 * t) ** (2 * delta + 1))
    assert abs(val - asym) / asym < 0.02
    brute = float(oracle_density_laplace(lambda s: s ** 1.5, 0.0, 1.0, t))
    assert val == pytest.approx(brute, rel=1e-10)


def test_laplace_log_domain_far_support():
    # uniform density on s in [1, 3]: integral e^{-2 t s} ds = e^{-2t}(1 - e^{-4t})/(2t)
    mu = st.uniform_measure(1.0, 3.0)
    assert mu.log_laplace(1e3) == pytest.approx(-2000.0 - math.log(2000.0), abs=1e-9)


@pytest.mark.parametrize("t", [0.1, 1.0, 10.0])
def test_uniform_laplace_closed_form(t):
    # indicator profile on [1, 3]: integral e^{-2 t s} ds = (e^{-2t} - e^{-6t}) / (2t)
    mu = st.uniform_measure(1.0, 3.0)
    expected = (math.exp(-2.0 * t) - math.exp(-6.0 * t)) / (2.0 * t)
    assert math.exp(mu.log_laplace(t)) == pytest.approx(expected, rel=1e-10)


def test_laplace_monotone_in_t():
    for mu in (
        st.power_law_measure(1.3),
        st.lacunary_measure(0.5, [0.5, 4.0], 12),
        st.uniform_measure(0.2, 1.7),
    ):
        ts = np.geomspace(1e-3, 1e6, 40)
        vals = [mu.log_laplace(t) for t in ts]
        assert all(b <= a + 1e-10 for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# log_laplace_moment
# ---------------------------------------------------------------------------


def test_laplace_moment_uniform_closed_form():
    # integral_0^1 s^2 e^{-2s} ds = 1/4 - (5/4) e^{-2}
    mu = st.uniform_measure(0.0, 1.0)
    exact = 0.25 - 1.25 * math.exp(-2.0)
    assert math.exp(mu.log_laplace_moment(1.0)) == pytest.approx(exact, rel=1e-12)


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
            assert math.exp(mu.log_laplace_moment(t, shift=shift)) == pytest.approx(
                oracle, rel=1e-12)


def test_laplace_moment_shift_cancels_matching_atom():
    # an atom exactly at -shift contributes zero to the moment; only the
    # atom at -3 survives: 0.3 * (-3 + 1)^2 * e^(2 * 0.5 * -3)
    mu = st.AtomicMeasure.from_points([-1.0, -3.0], [0.7, 0.3])
    val = math.exp(mu.log_laplace_moment(0.5, shift=1.0))
    assert val == pytest.approx(0.3 * 4.0 * math.exp(-3.0), rel=1e-13)


def row_logsumexp(a):
    """ln sum exp(a) along the last axis, scipy.special.logsumexp's algorithm
    as the kernel took it row by row before its blocks were atoms-major."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = np.max(a, axis=-1, keepdims=True)
        top = a == a_max
        m = np.sum(top, axis=-1, keepdims=True, dtype=float)
        rest = np.where(top, -np.inf, a)
        rest -= a_max
        s = np.sum(np.exp(rest, out=rest), axis=-1, keepdims=True)
        out = (np.log1p(np.where(s == 0, s, s / m)) + np.log(m) + a_max)[..., 0]
        bad = ~np.isfinite(out)
        if np.any(bad):
            out = np.where(bad, np.log(np.sum(np.exp(a), axis=-1)), out)
    return out[()]


def test_logsumexp_is_bit_identical_to_scipy():
    # the kernel's numpy copy of scipy.special.logsumexp, on rows with tied
    # maxima, -inf entries and all--inf rows, a stack of rows and one row at a time
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
        assert _logsumexp(a.T.copy()).tobytes() == expected.tobytes()
        for row in a:
            got = _logsumexp(row[:, None].copy())
            assert got.shape == (1,)
            assert got.tobytes() == np.float64(logsumexp(row)).tobytes()


def row_major_log_transform(log_s, log_coef, t):
    """The atomic kernel as it was before blocks were built atoms-major: blocks
    of ``_CHUNK_ELEMENTS // n`` (measure, t) rows in (measure, t) order, cut
    across measures, gathered through divmod index arrays and reduced along
    each row's atoms."""
    from semistab.measures import _CHUNK_ELEMENTS

    n_t = t.size
    s = np.exp(log_s)
    rows = max(1, _CHUNK_ELEMENTS // log_s.shape[1])
    out = np.empty(log_s.shape[0] * n_t)
    for r in range(0, out.size, rows):
        m, j = np.divmod(np.arange(r, min(r + rows, out.size)), n_t)
        terms = s[m]
        with np.errstate(over="ignore"):
            terms *= 2.0 * t[j][:, None]
        out[r : r + rows] = row_logsumexp(np.subtract(log_coef[m], terms, out=terms))
    return out.reshape(log_s.shape[0], n_t)


def kernel_stack(rng, n_measures, n_atoms, case):
    """(log_s, log_coef) of a stack of n_measures measures of n_atoms atoms each,
    the atoms spread over 0.01..10 with log weights of a few units, and one
    edge case laid over them."""
    log_s = np.log(rng.uniform(0.01, 10.0, (n_measures, n_atoms)))
    log_coef = np.log(rng.uniform(0.05, 1.0, (n_measures, n_atoms)))
    if case == "tied-maxima":  # the nearest, heaviest atom, repeated: every row's max ties
        for k in (0, n_atoms // 2, n_atoms - 1):
            log_s[:, k], log_coef[:, k] = math.log(0.005), 0.0
    elif case == "atom-at-zero":  # the moment at shift 0 of an atom at 0: no term
        log_s[::2, 0] = -np.inf
        log_coef[::2, 0] = -np.inf
        log_s[1::2, 0] = -np.inf  # the transform's atom at 0: the t-independent term
    elif case == "weights-near-745":
        log_coef = -745.0 + rng.uniform(-1.0, 1.0, log_coef.shape)
    elif case == "overflowing-2ts":  # 2 t s = inf at the largest times: exact zero terms
        log_s[:, ::2] = rng.uniform(700.0, 709.0, log_s[:, ::2].shape)
    elif case == "all-minus-inf":  # every term -inf in every row of measure 0
        log_coef[0] = -np.inf
    return log_s, log_coef


KERNEL_CASES = ["plain", "tied-maxima", "atom-at-zero", "weights-near-745", "overflowing-2ts",
                "all-minus-inf"]


class TestAtomsMajorKernel:
    """The atomic kernel is bit for bit the row-major kernel it replaced, for
    every atom count around numpy's pairwise-sum block edges (8 and 128) and
    both block shapes (whole measures, t-ranges)."""

    TS = np.concatenate([np.geomspace(1e-2, 1e3, 197), [1e-300, 1e12, 1e300]])

    @pytest.mark.parametrize("case", KERNEL_CASES)
    @pytest.mark.parametrize("n_atoms", [1, 2, 7, 8, 9, 16, 20, 127, 129, 500])
    def test_matches_the_row_major_kernel(self, n_atoms, case):
        from semistab.measures import _atomic_log_transform

        rng = np.random.default_rng(1000 + n_atoms)
        n_measures = 3 if n_atoms >= 127 else 30
        log_s, log_coef = kernel_stack(rng, n_measures, n_atoms, case)
        got = _atomic_log_transform(log_s, log_coef, self.TS)
        want = row_major_log_transform(log_s, log_coef, self.TS)
        assert got.shape == (n_measures, self.TS.size)
        assert got.tobytes() == want.tobytes()
        if case == "all-minus-inf":
            assert np.all(np.isneginf(got[0])) and np.all(np.isfinite(got[1:]))
        if case == "overflowing-2ts":  # a lone atom that overflows leaves its row -inf
            assert np.all(np.isfinite(got)) == (n_atoms > 1)

    @pytest.mark.parametrize("chunk", [1, 143, 4_000, 10 ** 9])
    @pytest.mark.parametrize("n_atoms", [9, 129, 500])
    def test_any_block_size_matches(self, monkeypatch, n_atoms, chunk):
        # 1 takes one (measure, t) row a block; 10^9 takes every stack as one block
        import semistab.measures as ms

        monkeypatch.setattr(ms, "_CHUNK_ELEMENTS", chunk)
        rng = np.random.default_rng(77)
        for case in KERNEL_CASES:
            log_s, log_coef = kernel_stack(rng, 4, n_atoms, case)
            got = ms._atomic_log_transform(log_s, log_coef, self.TS)
            assert got.tobytes() == row_major_log_transform(log_s, log_coef, self.TS).tobytes()

    def test_a_long_t_grid_spans_several_blocks_of_one_measure(self, monkeypatch):
        import semistab.measures as ms

        blocks = []
        inner = ms._block_log_transform

        def spy(two_s, log_coef, t):
            blocks.append((two_s.shape[0], t.size))
            return inner(two_s, log_coef, t)

        monkeypatch.setattr(ms, "_block_log_transform", spy)
        rng = np.random.default_rng(5)
        log_s, log_coef = kernel_stack(rng, 2, 20, "tied-maxima")
        ts = np.geomspace(1e-3, 1e4, 3000)
        got = ms._atomic_log_transform(log_s, log_coef, ts)
        assert got.tobytes() == row_major_log_transform(log_s, log_coef, ts).tobytes()
        rows = ms._CHUNK_ELEMENTS // 20
        assert blocks == [(1, rows)] * 3 + [(1, 3000 - 3 * rows)] + [(1, rows)] * 3 + [
            (1, 3000 - 3 * rows)]

    def test_mixed_count_stack_matches(self, monkeypatch):
        import semistab.measures as ms

        rng = np.random.default_rng(8)
        mus = [st.AtomicMeasure.from_points(rng.uniform(-10.0, -0.5, n), rng.uniform(0.1, 1.0, n))
               for n in (20, 7, 129, 20, 1, 7, 500)]
        shifts = [0.0, 0.25, 0.5, 0.0, 0.4, 0.0, 0.3]
        ts = np.geomspace(1e-2, 1e3, 150)
        got = [ms._log_laplace_stack(mus, ts, a) for a in (None, shifts)]
        monkeypatch.setattr(ms, "_atomic_log_transform", row_major_log_transform)
        for new, a in zip(got, (None, shifts)):
            assert new.tobytes() == ms._log_laplace_stack(mus, ts, a).tobytes()

    def test_logsumexp_is_the_row_logsumexp(self):
        # rows with tied maxima, -inf entries, an inf entry and every entry -inf;
        # the last two take the ln sum exp fallback (without it they read nan)
        from semistab.measures import _logsumexp

        rng = np.random.default_rng(4242)
        for _ in range(200):
            rows, n = rng.integers(2, 300), rng.integers(1, 140)
            a = rng.normal(0.0, rng.choice([1.0, 40.0, 800.0]), (rows, n)).round(rng.integers(0, 3))
            a[:, rng.integers(0, n)] = a.max(axis=1)
            a[rng.uniform(size=a.shape) < 0.2] = -np.inf
            empty, infinite = rng.choice(rows, 2, replace=False)
            a[empty] = -np.inf
            a[infinite, rng.integers(0, n)] = np.inf
            want = row_logsumexp(a)
            assert np.any(np.isneginf(want)) and np.any(np.isposinf(want))
            assert _logsumexp(a.T.copy()).tobytes() == want.tobytes()

    @pytest.mark.parametrize("n_atoms", [20, 500])
    def test_block_lays_its_longer_axis_contiguous(self, monkeypatch, n_atoms):
        # every block is an (atoms, rows) array; 20 atoms: 4 measures x 200 t =
        # 800 rows a block, laid rows-contiguous; 500 atoms: 32 t of one measure
        # a block, laid atoms-contiguous
        import semistab.measures as ms

        blocks = []
        inner = ms._logsumexp
        monkeypatch.setattr(ms, "_logsumexp", lambda a: (
            blocks.append((a.shape, a.flags.c_contiguous, a.T.flags.c_contiguous)), inner(a))[1])
        rng = np.random.default_rng(9)
        mus = [st.AtomicMeasure.from_points(rng.uniform(-10.0, 0.0, n_atoms),
                                            rng.uniform(0.1, 1.0, n_atoms)) for _ in range(8)]
        ms._log_laplace_stack(mus, np.geomspace(1e-2, 1e3, 200))
        rows = ms._CHUNK_ELEMENTS // n_atoms
        if n_atoms == 20:
            assert blocks == [((20, 4 * 200), True, False)] * 2
        else:
            assert blocks == 8 * ([((500, rows), False, True)] * 6
                                  + [((500, 200 - 6 * rows), False, True)])


# ---------------------------------------------------------------------------
# density transforms in the log domain, to t = 1e300
# ---------------------------------------------------------------------------

# t from where every family's integral is a normal double to where it is far
# below double range (the power law's reaches e^-2417 at gamma = 3.5)
_HUGE_TS = (1e-2, 1.0, 1e3, 1e12, 1e160, 1e170, 1e300)


def _log_edge_moment(k, t):
    """ln integral_0^1 s^(k-1) e^{-2 t s} ds = ln Gamma(k) P(k, 2t) / (2t)^k (DLMF 8.2.1)."""
    from scipy.special import gammainc, gammaln

    return gammaln(k) - k * math.log(2.0 * t) + math.log(gammainc(k, 2.0 * t))


def _log_shifted_edge_moment(k, t, a):
    """ln integral_0^1 s^(k-1) (s + a)^2 e^{-2 t s} ds for a >= 0, expanded in
    powers of s so that every term is positive."""
    terms = [_log_edge_moment(k + 2, t)]
    if a > 0.0:
        terms += [math.log(2.0 * a) + _log_edge_moment(k + 1, t),
                  2.0 * math.log(a) + _log_edge_moment(k, t)]
    return float(mp.log(mp.fsum(mp.e ** mp.mpf(v) for v in terms)))


@pytest.mark.parametrize("family, k, log_c", [
    ("power-law", 0.5, math.log(0.5)),
    ("power-law", 1.0, 0.0),
    ("power-law", 2.0, math.log(2.0)),
    ("power-law", 3.5, math.log(3.5)),
    ("power-law", 9.0, math.log(9.0)),
    ("power-law", 12.0, math.log(12.0)),
    ("monomial-profile", 2.5, 0.0),
    ("monomial-profile", 2.8, 0.0),
], ids=["gamma-0.5", "gamma-1", "gamma-2", "gamma-3.5", "gamma-9", "gamma-12", "delta-0.75",
        "delta-0.9"])
@pytest.mark.parametrize("t", _HUGE_TS)
def test_edge_power_transforms_match_the_closed_form(family, k, log_c, t):
    # density c s^(k-1) on [0, 1]: gamma s^(gamma-1), or s^(2 delta) with k = 2 delta + 1
    mu = (st.power_law_measure(k) if family == "power-law"
          else st.monomial_profile_measure((k - 1.0) / 2.0))
    close = dict(rel=1e-14, abs=1e-13)
    assert mu.log_laplace(t) == pytest.approx(log_c + _log_edge_moment(k, t), **close)
    # shift -a puts every atom of (shift - s)^2 = (s + a)^2 on the same side
    for a in (0.0, 0.5):
        assert mu.log_laplace_moment(t, -a) == pytest.approx(
            log_c + _log_shifted_edge_moment(k, t, a), **close)


def test_high_edge_powers_integrate_on_the_plain_rule():
    # u^alg is a factor of the integrand for alg > 0: the endpoint-weighted rule
    # refused gamma = 9 at t = 1314.15 (error estimate 60) and returned ln values
    # 150 too high at gamma = 105, and the monomial profile's mass was NaN past
    # delta = 509.85
    assert st.power_law_measure(9.0).log_laplace(1314.15) == pytest.approx(
        math.log(9.0) + _log_edge_moment(9.0, 1314.15), rel=1e-14)
    for t in (1e3, 1e10):
        assert st.power_law_measure(105.0).log_laplace(t) == pytest.approx(
            math.log(105.0) + _log_edge_moment(105.0, t), rel=1e-13)
    for delta in (534.0, 1000.0):
        mu = st.monomial_profile_measure(delta)
        assert mu.log_mass == pytest.approx(-math.log(2.0 * delta + 1.0), rel=1e-12)
    # u^alg overflows past u = e^(709 / alg), inside the transform's [0, 745]
    # once alg exceeds about 107: refused, never a bare OverflowError
    with pytest.raises(InvariantViolation, match="did not converge"):
        st.power_law_measure(171.0).log_laplace(1e3)


@pytest.mark.parametrize("mu", [
    st.AtomicMeasure.from_points([-0.5, -2.0], [0.3, 0.7]),
    st.AtomicMeasure.from_points([0.0], [1.0]),
    st.power_law_measure(2.0),
    st.uniform_measure(0.5, 2.0),
], ids=["atomic", "atom-at-zero", "power-law", "uniform"])
@pytest.mark.parametrize("moment", [False, True], ids=["laplace", "moment"])
def test_laplace_transforms_refuse_non_finite_times(mu, moment):
    transform = mu.log_laplace_moment if moment else mu.log_laplace
    # the semigroup's times are t >= 0: a negative t, however small, is refused
    for t in (math.nan, math.inf, -math.inf, [1.0, math.nan], -0.5, -1e-300, -1e308,
              [1.0, -1.0]):
        with pytest.raises(DomainError, match="times t must be finite and >= 0"):
            transform(t)
    assert transform(-0.0) == transform(0.0)  # -0.0 is t = 0, bit for bit
    # 2 t overflows past 9e307, yet every finite t has a value
    for t in (1e308, sys.float_info.max):
        assert not math.isnan(transform(t)), t
    if not moment and isinstance(mu, st.AtomicMeasure) and mu.s_lo == 0.0:
        # the atom at 0 keeps its weight at every t: ln 1 = 0 exactly
        assert transform(1e308) == transform(sys.float_info.max) == 0.0
    if not moment and isinstance(mu, st.DensityMeasure) and mu.kind == "power-law":
        # Gamma(3) / (2 t)^2, the power law gamma = 2's transform at large t
        want = math.lgamma(3) - 2 * (math.log(2) + math.log(1e308))
        assert transform(1e308) == pytest.approx(want, rel=1e-14)


@pytest.mark.parametrize("t", _HUGE_TS)
def test_uniform_transform_matches_the_closed_form(t):
    # integral_0^2 2.5 e^{-2 t s} ds = 2.5 (1 - e^{-4t}) / (2t)
    mu = st.uniform_measure(0.0, 2.0, height=2.5)
    exact = math.log(2.5) - math.log(2.0 * t) + math.log(-math.expm1(-4.0 * t))
    assert mu.log_laplace(t) == pytest.approx(exact, rel=1e-14, abs=1e-13)


def oracle_log_transform(density, s_lo, s_hi, t, shift=None, breaks=()):
    """mpmath ln integral density(s) [(shift - s)^2] e^{-2 t s} ds over [s_lo, s_hi].

    ``density`` takes sig = s - s_lo, so values near the inner edge keep their
    digits, and e^{-2 t s_lo} is carried in log.  mpmath's quadrature error
    test is absolute, so the integral runs over u = 2 t sig, cut at the
    density's breaks and at u = 2^k, of the integrand divided by its larger
    value at u = min(1, width / 2) and u = width / 3.
    """
    t, lo = mp.mpf(t), mp.mpf(s_lo)
    scale = 1 / (2 * t)
    width = (mp.mpf(s_hi) - lo) / scale
    cuts = {(mp.mpf(b) - lo) / scale for b in breaks} | {mp.mpf(2) ** k for k in range(-1, 11)}
    pts = [mp.mpf(0)] + sorted(c for c in cuts if 0 < c < width) + [width]

    def f(u):
        sig = u * scale
        val = density(sig) * mp.exp(-u)
        return val if shift is None else val * (shift - lo - sig) ** 2

    with mp.workdps(30):
        norm = max(abs(f(min(mp.mpf(1), width / 2))), abs(f(width / 3)))
        return -2 * t * lo + mp.log(mp.quad(lambda u: f(u) / norm, pts) * norm * scale)


def _mp_interp(grid, vals):
    """The piecewise-linear interpolant through (grid, vals), in sig = s - grid[0]."""
    g = [mp.mpf(x) - mp.mpf(grid[0]) for x in grid]

    def f(sig):
        j = max(i for i in range(len(g) - 1) if g[i] <= sig)
        return vals[j] + (vals[j + 1] - vals[j]) * (sig - g[j]) / (g[j + 1] - g[j])
    return f


# every shipped family, with the density as a function of sig = s - s_lo
_DENSITY_ORACLES = {
    "power-law-0.5": (st.power_law_measure(0.5), lambda sig: mp.mpf(0.5) * sig ** -0.5, ()),
    "power-law-3.5": (st.power_law_measure(3.5), lambda sig: mp.mpf(3.5) * sig ** 2.5, ()),
    "monomial-0.6": (st.monomial_profile_measure(0.6), lambda sig: sig ** mp.mpf(1.2), ()),
    "uniform": (st.uniform_measure(0.0, 2.0, height=2.5), lambda sig: mp.mpf(2.5), ()),
    "sampled-from-zero": (st.sampled_density_measure([0.0, 1.0], [0.0, 2.0]),
                          _mp_interp([0.0, 1.0], [0, 2]), ()),
    "sampled-kinked": (st.sampled_density_measure([0.0, 0.3, 1.0], [1.0, 2.0, 0.5]),
                       _mp_interp([0.0, 0.3, 1.0], [1, 2, mp.mpf(0.5)]), (0.3,)),
}


@pytest.mark.parametrize("name", sorted(_DENSITY_ORACLES))
@pytest.mark.parametrize("t", (1e-2, 1e3, 1e12, 1e160, 1e300))
def test_density_transforms_match_mpmath(name, t):
    mu, density, breaks = _DENSITY_ORACLES[name]
    for shift in (None, 0.0, 0.5, -0.5):
        got = mu.log_laplace(t) if shift is None else mu.log_laplace_moment(t, shift)
        oracle = oracle_log_transform(density, mu.s_lo, mu.s_hi, t, shift, breaks)
        assert got == pytest.approx(float(oracle), rel=1e-14, abs=1e-12), shift


@pytest.mark.parametrize("name", ["power-law-2", "power-law-0.5", "uniform-0.5-2",
                                  "sampled-kinked"])
@pytest.mark.parametrize("t", (-1e-3, -1.0, -400.0, -1e308))
def test_density_transform_of_a_growing_orbit_is_refused(name, t, monkeypatch):
    # t < 0 is no time of the semigroup: each transform refuses it at its entry,
    # alone or in a vector with a valid t, before any quadrature runs, and the
    # measure's t >= 0 values are untouched afterwards
    mu = {
        "power-law-2": st.power_law_measure(2.0),
        "power-law-0.5": st.power_law_measure(0.5),
        "uniform-0.5-2": st.uniform_measure(0.5, 2.0),
        "sampled-kinked": _DENSITY_ORACLES["sampled-kinked"][0],
    }[name]
    before = mu.log_laplace([0.0, -t]).tolist()

    def no_quad(*args, **kwargs):
        raise AssertionError("a refused time reached the quadrature")

    monkeypatch.setattr(st.DensityMeasure, "_quad", no_quad)
    for shift in (None, 0.0, 0.3, 3.0):
        for arg in (t, [1.0, t]):
            with pytest.raises(DomainError, match="times t must be finite and >= 0"):
                mu.log_laplace(arg) if shift is None else mu.log_laplace_moment(arg, shift)
    monkeypatch.undo()
    assert mu.log_laplace([0.0, -t]).tolist() == before


def test_density_breaks_at_a_subnormal_scale_raise_no_warning():
    # at t = 1e308 the scale 1/(2t) is subnormal, and a break's offset over it
    # overflows: it lies past every node, so it is dropped without a warning
    mu = _DENSITY_ORACLES["sampled-kinked"][0]
    # h(0) / (2 t) with h(0) = 1 at the lower edge
    assert mu.log_laplace(1e308) == pytest.approx(-math.log(2.0) - math.log(1e308), rel=1e-14)


# ln transform bits at t >= 0, from before the t < 0 branch: log_laplace at
# t = 0, 1e-3, 1, 400, 1e308, then log_laplace_moment(t, 0.3) at t = 0, 1, 400
_NONNEGATIVE_T_BITS = {
    "power-law-2": ["0x0.0p+0", "-0x1.5d7f073389dfbp-10", "-0x1.36caddacb0400p+0",
                    "-0x1.95a26ab638730p+3", "-0x1.62c579e3609a5p+10", "-0x1.a925ae2cbedfdp+0",
                    "-0x1.a660457e1721dp+1", "-0x1.e3391f993742fp+3"],
    "power-law-0.5": ["0x0.0p+0", "-0x1.5d6ea09f8b890p-11", "-0x1.07210331a8cb4p-1",
                      "-0x1.bb46788d7d0dbp+1", "-0x1.6310c1ff0f238p+8", "-0x1.34378fcbda721p+1",
                      "-0x1.a4c656627fe3ep+1", "-0x1.7803361c2a619p+2"],
    "uniform-0.5-2": ["0x1.9f323ecbf984cp-2", "0x1.9ca2fbcd7713bp-2", "-0x1.be84f6a5cd4ebp+0",
                      "-0x1.96af42b6d4cabp+8", "-0x1.1ccf385ebc8a0p+1023", "0x1.f7713617f9756p-2",
                      "-0x1.34ed590260dffp+1", "-0x1.99e417c808586p+8"],
}


@pytest.mark.parametrize("name", sorted(_NONNEGATIVE_T_BITS))
def test_density_transform_at_nonnegative_t_keeps_its_bits(name):
    mu = {"power-law-2": st.power_law_measure(2.0), "power-law-0.5": st.power_law_measure(0.5),
          "uniform-0.5-2": st.uniform_measure(0.5, 2.0)}[name]
    got = ([mu.log_laplace(t) for t in (0.0, 1e-3, 1.0, 400.0, 1e308)]
           + [mu.log_laplace_moment(t, 0.3) for t in (0.0, 1.0, 400.0)])
    assert [x.hex() for x in got] == _NONNEGATIVE_T_BITS[name]


def test_density_vanishing_at_an_inner_edge_stays_finite():
    # density 0 at s_lo = 0.5: at large t only sig ~ 1/t matters, which 0.5 + sig
    # would round away; the result is -2 t s_lo plus what its last bit resolves
    grid, vals = [0.5, 1.0, 2.0], [0.0, 1.0, 0.0]
    mu = st.sampled_density_measure(grid, vals)
    density = _mp_interp(grid, vals)
    for t in (1e3, 1e12, 1e100, 1e300):
        for shift in (None, 0.0, 0.7):
            got = mu.log_laplace(t) if shift is None else mu.log_laplace_moment(t, shift)
            oracle = oracle_log_transform(density, 0.5, 2.0, t, shift, (1.0,))
            assert got == pytest.approx(float(oracle), rel=1e-15, abs=1e-12), (t, shift)


def test_sampled_density_with_segments_near_rounding_loads():
    # segments of 1e-9 at s = 1: the density is read at offsets sig from the
    # edge, which 1 + sig would round
    mu = st.sampled_density_measure([1.0, 1.0 + 1e-9, 1.0 + 3e-9], [1.0, 2.0, 1.0])
    assert mu.mass == pytest.approx(4.5e-9, rel=1e-7)


def _linear_log_transform(mu, t, shift=None):
    """The linear-space quadrature the density transform used before it was
    rescaled (integrand sig^alg h(sig) [(c - sig)^2] e^{-2 t sig}, cut where
    the exponential underflows); right while the integral is a normal double."""
    width = mu.s_hi - mu.s_lo
    upper = min(width, 745.0 / (2.0 * t)) if t > 0.0 else width
    smooth = mu.smooth_factor
    c = 0.0 if shift is None else shift - mu.s_lo
    power = 0 if shift is None else 2
    f = lambda sig: float(smooth(sig)) * (c - sig) ** power * math.exp(-2.0 * t * sig)
    return -2.0 * t * mu.s_lo + math.log(mu._quad(f, upper, mu._points(1.0, upper)))


@pytest.mark.parametrize("mu", [
    st.power_law_measure(0.5), st.power_law_measure(3.5), st.monomial_profile_measure(0.75),
    st.uniform_measure(1.0, 3.0), st.uniform_measure(0.0, 0.25, height=3.0),
    st.sampled_density_measure([0.2, 0.5, 1.5], [1.0, 3.0, 0.5]),
], ids=["gamma-0.5", "gamma-3.5", "delta-0.75", "uniform-far", "uniform-short", "sampled"])
def test_rescaled_transform_agrees_with_the_linear_one(mu):
    # where the linear-space integral is a normal double (t <= 1e12), the two
    # agree to 1e-13 in log, relative to the value where -2 t s_lo dominates it
    for t in np.geomspace(1e-2, 1e12, 15).tolist():
        for shift in (None, 0.0, 0.4, -0.4):
            got = mu.log_laplace(t) if shift is None else mu.log_laplace_moment(t, shift)
            old = _linear_log_transform(mu, t, shift)
            assert abs(got - old) <= 1e-13 * max(1.0, abs(old)), (t, shift)


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
        assert mu.log_ball_mass(math.log(eps)) > -math.inf


def test_lacunary_domain_errors():
    with pytest.raises(DomainError):
        st.lacunary_measure(0.5, [], 4)
    with pytest.raises(DomainError):
        st.lacunary_measure(1.5, [1.0], 4)
    with pytest.raises(DomainError):
        st.lacunary_measure(0.5, [-1.0], 4)
    with pytest.raises(DomainError):
        st.lacunary_measure(0.5, [1.0], 0)
    with pytest.raises(DomainError, match="n_atoms above 900"):
        st.lacunary_measure(0.5, [1.0], 901)
    assert st.lacunary_measure(0.5, [1.0], 900).n_atoms == 900


# ---------------------------------------------------------------------------
# atomic construction and invariants
# ---------------------------------------------------------------------------


def test_atomic_merges_duplicate_positions():
    mu = st.AtomicMeasure.from_points([-1.0, -2.0, -1.0], [0.25, 0.5, 0.25])
    assert mu.n_atoms == 2
    assert mu.ball_mass(1.5) == pytest.approx(0.5, rel=1e-14)


def test_atomic_orders_closest_to_zero_first():
    mu = st.AtomicMeasure.from_points([-3.0, -0.5, -1.0], [1.0, 2.0, 3.0])
    assert np.all(np.diff(mu.log_s) > 0)
    assert mu.positions[0] == pytest.approx(-0.5)


def test_atomic_atom_at_zero_is_representable():
    mu = st.AtomicMeasure.from_points([0.0, -1.0], [0.3, 0.7])
    assert math.isinf(mu.log_s[0]) and mu.log_s[0] < 0
    assert mu.ball_mass(1e-12) == pytest.approx(0.3, rel=1e-14)
    # the zero atom freezes the Laplace transform at its weight
    assert math.exp(mu.log_laplace(1e9)) == pytest.approx(0.3, rel=1e-12)


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


@pytest.mark.parametrize("log_s, log_w, message", [
    ([math.nan], [0.0], "|position| <= exp(709) and not be NaN"),
    ([709.5], [0.0], "|position| <= exp(709) and not be NaN"),
    ([-1.0], [math.inf], "atom log-weights must be finite"),
    ([-1.0], [-math.inf], "atom log-weights must be finite"),
    ([], [], "at least one atom"),
    ([-1.0, 0.0], [0.0], "log_s and log_w must have the same length"),
], ids=["nan-position", "position-above-exp-709", "infinite-weight", "zero-weight", "empty",
        "length-mismatch"])
def test_atomic_log_coordinate_guards(log_s, log_w, message):
    with pytest.raises(DomainError, match=re.escape(message)):
        st.AtomicMeasure(log_s=np.array(log_s), log_w=np.array(log_w))


def test_atomic_position_cap_is_exp_709():
    assert st.AtomicMeasure.from_points([-math.exp(709.0)], [1.0]).log_s[0] <= 709.0
    with pytest.raises(DomainError, match=re.escape("|position| <= exp(709)")):
        st.AtomicMeasure.from_points([-1e308], [1.0])


def _stack(rng, n_measures, n_atoms):
    pos = rng.uniform(-10.0, 0.0, (n_measures, n_atoms))
    pos[1, :3] = [-2.5, -2.5, 0.0]  # a merged duplicate and an atom at 0
    return pos, rng.uniform(0.05, 1.0, (n_measures, n_atoms))


def test_stack_from_points_is_from_points_row_by_row():
    pos, wts = _stack(np.random.default_rng(4), 6, 9)
    stacked = st.AtomicMeasure.stack_from_points(pos, wts)
    assert [mu.n_atoms for mu in stacked] == [9, 8, 9, 9, 9, 9]
    for mu, p, w in zip(stacked, pos, wts):
        one = st.AtomicMeasure.from_points(p, w)
        for got, want in ((mu.log_s, one.log_s), (mu.log_w, one.log_w),
                          (mu._prefix, one._prefix)):
            assert got.tobytes() == want.tobytes()
            assert not got.flags.writeable
        assert mu.to_text() == one.to_text()


@pytest.mark.parametrize("row, value, message", [
    ("pos", math.nan, "positions must be finite and <= 0"),
    ("pos", 0.5, "positions must be finite and <= 0"),
    ("pos", -1e308, "|position| <= exp(709)"),
    ("wts", 0.0, "weights must be finite and > 0"),
    ("wts", math.inf, "weights must be finite and > 0"),
], ids=["nan-position", "positive-position", "position-above-exp-709", "zero-weight",
        "infinite-weight"])
def test_stack_from_points_checks_every_row(row, value, message):
    pos, wts = _stack(np.random.default_rng(5), 4, 5)
    (pos if row == "pos" else wts)[3, 2] = value  # only the last measure is bad
    with pytest.raises(DomainError, match=re.escape(message)):
        st.AtomicMeasure.stack_from_points(pos, wts)


def test_stack_from_points_shape_guards():
    with pytest.raises(DomainError, match="same length"):
        st.AtomicMeasure.stack_from_points(np.full((2, 3), -1.0), np.ones((2, 4)))
    with pytest.raises(DomainError, match="same length"):
        st.AtomicMeasure.stack_from_points(np.full(3, -1.0), np.ones(3))
    with pytest.raises(DomainError, match="at least one atom"):
        st.AtomicMeasure.stack_from_points(np.empty((2, 0)), np.empty((2, 0)))


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
    assert math.exp(mu.log_laplace(0.0)) == pytest.approx(float(np.sum(weights)), rel=1e-12)
    eps_a = data.draw(hst.floats(min_value=1e-4, max_value=100.0))
    eps_b = data.draw(hst.floats(min_value=1e-4, max_value=100.0))
    lo, hi = sorted((eps_a, eps_b))
    assert mu.ball_mass(lo) <= mu.ball_mass(hi) * (1 + 1e-12) + 1e-300
    t = data.draw(hst.floats(min_value=0.0, max_value=100.0))
    assert math.exp(mu.log_laplace(t)) <= mu.mass * (1 + 1e-12)


# ---------------------------------------------------------------------------
# density construction and invariants
# ---------------------------------------------------------------------------


def test_density_rejects_negative_density():
    with pytest.raises(InvariantViolation):
        st.DensityMeasure(s_lo=0.0, s_hi=1.0, smooth_factor=lambda sig: sig - 0.5)


def test_density_sign_check_is_relative_to_the_density():
    # negative on [0, 0.4) at any scale: the floor is 1e-12 of the largest value
    with pytest.raises(InvariantViolation, match="finite and nonnegative"):
        st.DensityMeasure(0.0, 1.0, smooth_factor=lambda sig: 1e-20 * (sig - 0.4))
    mu = st.DensityMeasure(0.0, 1.0, smooth_factor=lambda sig: 1e-20 * (1.0 + sig))
    assert mu.log_ball_mass(math.log(0.3)) == pytest.approx(math.log(1e-20 * 0.345), rel=1e-14)


def test_density_negative_between_the_check_points_is_refused_not_nan():
    # a dip of width 1e-3 at s = 0.3 falls between the 32 points construction
    # reads; the integral over [0, 0.31] is about 0.31 - 0.45 < 0
    mu = st.DensityMeasure(
        0.0, 1.0, smooth_factor=lambda sig: 1.0 - 254.0 * math.exp(-(((sig - 0.3) / 1e-3) ** 2)))
    with pytest.raises(InvariantViolation, match="negative on part of the support"):
        mu.log_ball_mass(math.log(0.31))


def test_density_rejects_bad_support():
    with pytest.raises(DomainError):
        st.DensityMeasure(s_lo=1.0, s_hi=1.0, smooth_factor=lambda sig: 1.0)
    with pytest.raises(DomainError):
        st.DensityMeasure(s_lo=-0.5, s_hi=1.0, smooth_factor=lambda sig: 1.0)


@pytest.mark.parametrize("extra, message", [
    (dict(alg_power=-1.0), "alg_power must be > -1"),
], ids=["alg-power-minus-one"])
def test_density_edge_guards(extra, message):
    with pytest.raises(DomainError, match=re.escape(message)):
        st.DensityMeasure(s_lo=0.0, s_hi=1.0, smooth_factor=lambda sig: 1.0, **extra)


def test_density_takes_its_smooth_factor_by_keyword_only():
    # the old density(s) callable, by name or in third place, is never misread
    with pytest.raises(TypeError, match="density"):
        st.DensityMeasure(0.0, 1.0, density=lambda s: 1.0)
    with pytest.raises(TypeError, match="positional"):
        st.DensityMeasure(0.0, 1.0, lambda sig: 1.0)
    with pytest.raises(TypeError, match="smooth_factor"):
        st.DensityMeasure(0.0, 1.0, alg_power=1.0)
    fields = [f.name for f in dataclasses.fields(st.DensityMeasure)]
    assert fields == ["s_lo", "s_hi", "smooth_factor", "alg_power", "quad_breaks"]


def test_density_reads_its_smooth_factor_at_the_offset_from_the_inner_edge():
    # h(sig) = sig on [1/2, 1] is the density s - 1/2: mass 1/8, and
    # (eps - 1/2)^2 / 2 in the ball of radius eps
    mu = st.DensityMeasure(0.5, 1.0, smooth_factor=lambda sig: sig)
    assert mu.mass == pytest.approx(0.125, rel=1e-12)
    assert mu.log_ball_mass(math.log(0.75)) == pytest.approx(math.log(0.25 ** 2 / 2), rel=1e-12)


def test_narrow_feature_given_as_a_break_is_integrated():
    # a peak of width 1e-3 at s = 0.3: the quadrature sees the density only at
    # its nodes and breaks, so the peak is integrated once 0.3 is a break
    mu = st.DensityMeasure(
        0.0, 1.0, smooth_factor=lambda sig: 1.0 + 254.0 * math.exp(-(((sig - 0.3) / 1e-3) ** 2)),
        quad_breaks=np.array([0.3]))
    exact = 1.0 + 254.0 * 1e-3 * math.sqrt(math.pi) / 2.0 * (math.erf(0.7 / 1e-3)
                                                           + math.erf(0.3 / 1e-3))
    assert mu.mass == pytest.approx(exact, rel=1e-12)


def test_density_rejects_zero_mass():
    with pytest.raises(InvariantViolation, match="total mass must be finite and positive"):
        st.DensityMeasure(s_lo=0.0, s_hi=1.0, smooth_factor=lambda sig: 0.0)


@pytest.mark.parametrize("grid, values, error, message", [
    ([0.0, 1.0, 2.0], [1.0, 1.0], DomainError, "matching sample arrays with at least 2 points"),
    ([0.0], [1.0], DomainError, "matching sample arrays with at least 2 points"),
    ([0.0, 1.0, 1.0], [1.0, 1.0, 1.0], DomainError, "strictly increasing"),
    ([-0.5, 1.0], [1.0, 1.0], DomainError, "must lie in s >= 0"),
    ([0.0, 1.0], [1.0, -0.5], InvariantViolation, "finite and nonnegative"),
    ([0.0, 1.0], [1.0, math.inf], InvariantViolation, "finite and nonnegative"),
], ids=["length-mismatch", "one-point", "repeated-node", "negative-node", "negative-value",
        "infinite-value"])
def test_sampled_density_grid_guards(grid, values, error, message):
    with pytest.raises(error, match=re.escape(message)):
        st.sampled_density_measure(grid, values)


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
    0: st.DensityMeasure(0.0, 1.0, smooth_factor=lambda sig: 1.5 + sig),
    2: st.DensityMeasure(0.0, 1.0, alg_power=2.0, smooth_factor=lambda sig: 2.0 + sig),
    -0.5: st.DensityMeasure(0.0, 1.0, alg_power=-0.5, smooth_factor=lambda sig: 1.0 + sig),
}


@pytest.mark.parametrize("p, c0", [(0, 1.5), (2, 2.0), (-0.5, 1.0)])
def test_user_density_ball_mass_below_double_range(p, c0):
    mu = _USER_DENSITIES[p]
    for le in (-700.0, -744.0, -2000.0):
        eps = mp.e ** mp.mpf(le)
        oracle = mp.log(c0 * eps ** (p + 1) / (p + 1) + eps ** (p + 2) / (p + 2))
        assert mu.log_ball_mass(le) == pytest.approx(float(oracle), rel=1e-14)


# A pure edge power: at ln eps = -700 eps is a normal double but eps^3 / 3 is not.
_CUBIC_BALL = st.DensityMeasure(0.0, 1.0, alg_power=2.0, smooth_factor=lambda sig: 1.0)


def test_user_density_ball_mass_in_the_underflow_band():
    for le in (-250.0, -500.0, -700.0):
        oracle = mp.log((mp.e ** mp.mpf(le)) ** 3 / 3)
        assert _CUBIC_BALL.log_ball_mass(le) == pytest.approx(float(oracle), rel=1e-14)


def test_user_density_with_edge_power_scaling_exponents():
    est = st.scaling_exponents(_CUBIC_BALL, log_window=(-2000.0, -1.0))
    assert not est.convention_branch
    assert est.d_minus == pytest.approx(3.0, abs=1e-12)
    assert est.d_plus == pytest.approx(3.0, abs=1e-12)


def test_user_density_breaks_leave_the_ball_mass_below_double_range_unchanged():
    # eps = e^-2000 is 0.0 as a double: no break lies inside the scaled range
    mu = st.DensityMeasure(0.0, 1.0, smooth_factor=lambda sig: 1.0 + sig,
                           quad_breaks=np.array([0.0, 0.5, 1.0]))
    assert mu.log_ball_mass(-2000.0) == -2000.0
    assert mu.log_ball_mass(math.log(0.7)) == pytest.approx(math.log(0.7 + 0.245), rel=1e-14)


def test_user_density_ball_mass_keeps_minus_inf_without_edge_value():
    mu = st.DensityMeasure(0.0, 1.0, alg_power=1.0, smooth_factor=lambda sig: 1.0 * (sig > 0.0))
    assert mu.log_ball_mass(-2000.0) == -math.inf


def test_user_density_scaling_exponents_below_double_range():
    mu = st.DensityMeasure(0.0, 1.0, smooth_factor=lambda sig: 1.0)
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
        assert mu.ball_mass(eps) == pytest.approx(float(oracle), rel=1e-7)


def test_inner_edge_power_ball_mass_keeps_its_log():
    # a density (s - 1/2)^30 on [1/2, 3/2]: one ulp above the inner edge the
    # ball mass (eps - 1/2)^31 / 31 is about exp(-1142), far below double range
    mu = st.DensityMeasure(0.5, 1.5, alg_power=30.0, smooth_factor=lambda sig: 1.0)
    for eps in (math.nextafter(0.5, 1.0), 0.75):
        want = 31.0 * math.log(eps - 0.5) - math.log(31.0)
        assert mu.log_ball_mass(math.log(eps)) == pytest.approx(want, rel=1e-14)
    assert mu.log_ball_mass(math.log(0.5)) == -math.inf
    assert mu.ball_mass(0.75) == pytest.approx(0.25 ** 31 / 31, rel=1e-13)
    assert mu.mass == pytest.approx(1.0 / 31.0, rel=1e-15)


def test_density_mass_is_one_log_integral_of_a_tiny_support():
    # mass 1e-16^31 / 31: its log is finite though the mass underflows to 0.0
    mu = st.DensityMeasure(0.5, 0.5 + 1e-16, alg_power=30.0, smooth_factor=lambda sig: 1.0)
    width = mu.s_hi - mu.s_lo
    assert mu.log_mass == pytest.approx(31.0 * math.log(width) - math.log(31.0), rel=1e-14)
    assert mu.mass == 0.0


def test_sampled_density_with_short_segments_far_from_zero():
    # segments of 1e-6 at s = 1e6, where an ulp of s is 1.2e-10; the closed form
    # is checked against the integral in the sampled-at-1e6 family case
    grid, vals = np.array([1e6, 1e6 + 1e-6, 1e6 + 2e-6]), np.array([1.0, 2.0, 1.0])
    mu = st.sampled_density_measure(grid, vals)
    trapezoid = float(np.sum(0.5 * (vals[1:] + vals[:-1]) * np.diff(grid)))
    assert mu.mass == pytest.approx(trapezoid, rel=1e-12)


@pytest.mark.parametrize("log_w, linear", [(800.0, math.inf), (-800.0, 0.0)],
                         ids=["overflow", "underflow"])
def test_linear_accessors_leave_double_range_without_error(log_w, linear):
    mu = st.AtomicMeasure([-1.0], [log_w])  # one atom at -e^-1, weight e^log_w
    assert mu.mass == linear
    assert mu.ball_mass(1.0) == linear
    assert mu.log_laplace(0.0) == log_w


def test_density_ball_mass_is_the_exp_of_its_log():
    mu = _USER_DENSITIES[2]
    for eps in (1e-3, 0.3, 0.9, 2.0):
        assert mu.ball_mass(eps) == math.exp(mu.log_ball_mass(math.log(eps)))
    assert mu.ball_mass(2.0) == mu.mass
    with pytest.raises(DomainError, match="ball radius must be positive"):
        mu.ball_mass(0.0)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_atomic_roundtrip_exact_random():
    rng = np.random.default_rng(5)
    mu = st.AtomicMeasure.from_points(-rng.uniform(1e-8, 20.0, 17), rng.uniform(1e-6, 3.0, 17))
    back = st.measure_from_text(mu.to_text())
    assert np.array_equal(back.log_s, mu.log_s)
    assert np.array_equal(back.log_w, mu.log_w)


def test_atomic_roundtrip_exact_extreme_scales():
    mu = st.lacunary_measure(0.5, [0.5, 4.0], 12)  # moduli down to 2^-4096
    back = st.measure_from_text(mu.to_text())
    assert np.array_equal(back.log_s, mu.log_s)
    assert np.array_equal(back.log_w, mu.log_w)


def test_atomic_roundtrip_atom_at_zero():
    mu = st.AtomicMeasure.from_points([0.0, -2.0], [0.4, 0.6])
    back = st.measure_from_text(mu.to_text())
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
    back = st.measure_from_text(mu.to_text())
    assert back.kind == mu.kind
    assert back.s_lo == mu.s_lo and back.s_hi == mu.s_hi
    for eps in (0.3, 0.9, 1.7, 2.9):
        if eps <= back.s_hi + 1.0:
            assert back.ball_mass(eps) == mu.ball_mass(eps)
    assert back.log_laplace(2.0) == pytest.approx(mu.log_laplace(2.0), rel=1e-12)


def test_sampled_density_roundtrip():
    grid = np.linspace(0.5, 1.5, 11)
    vals = np.linspace(1.0, 2.0, 11)
    mu = st.sampled_density_measure(grid, vals)
    text = mu.to_text()
    back = st.measure_from_text(text)
    assert back.to_text() == text
    assert np.array_equal(back.smooth_factor(grid - grid[0]), vals)
    le = np.log(family_check_radii(mu))
    assert np.array_equal(back.log_ball_mass(le), mu.log_ball_mass(le))


def test_atomic_roundtrip_mass_beyond_double_range():
    mu = st.AtomicMeasure(log_s=[0.0, 1.0], log_w=[800.0, 0.0])
    assert mu.mass == math.inf
    back = st.measure_from_text(mu.to_text())
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


@pytest.mark.parametrize("text", [
    "density kind=power-law\ngamma=1e308\n",
    "density kind=uniform support=0,1e308\nheight=1e308\n",
    "density kind=sampled-density\nn=2\n0.0 1e308\n1.0 1e308\n",
    "density kind=sampled-density\nn=2\n0.0 1.0\n1e-320 2.0\n",
], ids=["power-law-huge-gamma", "uniform-huge-mass", "sampled-huge-values", "sampled-subnormal"])
def test_measure_file_the_family_refuses_is_bad_input(text):
    # the family's own checks refuse these parameters; read from a file they
    # are bad input, as for potentials
    with pytest.raises(DomainError, match="measure: "):
        st.measure_from_text(text)


def test_power_law_refuses_a_gamma_that_rounds_its_edge_power_to_minus_one():
    # gamma - 1 rounds to -1 for gamma <= 2^-54; the family names gamma, and
    # read from a file the refusal stays bad input
    named = re.escape("gamma=1e-17 is too small: its edge power gamma - 1 rounds to -1")
    with pytest.raises(DomainError, match=named):
        st.power_law_measure(1e-17)
    with pytest.raises(DomainError, match=named):
        st.measure_from_text("density kind=power-law\ngamma=1e-17\n")
    assert st.power_law_measure(2.0 ** -53).kind == "power-law"


@pytest.mark.parametrize("gamma", [1e-6, 1e-12, 1e-16])
def test_power_law_refuses_a_gamma_whose_rounded_edge_power_moves_the_mass(gamma):
    # the density gamma s^alg with alg = gamma - 1 rounded has mass
    # gamma / (alg + 1), not the stated 1: +2.2e-5 in ln at 1e-12, -0.105 at 1e-16
    named = re.escape(f"gamma={gamma!r} is too small: its edge power gamma - 1 rounds to "
                      f"{gamma - 1.0!r}")
    with pytest.raises(DomainError, match=named):
        st.power_law_measure(gamma)
    with pytest.raises(DomainError, match=named):
        st.measure_from_text(f"density kind=power-law\ngamma={gamma!r}\n")


def test_power_law_at_gamma_1e_4_keeps_its_stated_mass():
    mu = st.power_law_measure(1e-4)
    assert mu.mass == 1.0 and abs(mu.log_mass) <= 1e-12


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


def test_density_of_no_family_is_not_written():
    # measure_from_text could not read it back, so to_text refuses it
    mu = st.DensityMeasure(0.0, 1.0, smooth_factor=lambda sig: 1.0)
    assert mu.kind == "density"
    with pytest.raises(DomainError, match="a density of kind 'density' has no measure file"):
        mu.to_text()


def test_refused_save_leaves_the_file_as_it_was(tmp_path):
    path = tmp_path / "kept.measure"
    st.save_measure(st.power_law_measure(2.0), path)
    before = path.read_bytes()
    with pytest.raises(DomainError):
        st.save_measure(st.DensityMeasure(0.0, 1.0, smooth_factor=lambda sig: 1.0), path)
    assert path.read_bytes() == before


def test_measure_from_text_rejects_garbage():
    with pytest.raises(DomainError):
        st.measure_from_text("")
    with pytest.raises(DomainError):
        st.measure_from_text("blob n=1\n0.0 0.0\n")
    with pytest.raises(DomainError):
        st.measure_from_text("atomic n=2 coords=log mass=1.0\n-1.0 -1.0\n")
    with pytest.raises(DomainError, match="unsupported atomic coordinate encoding"):
        st.measure_from_text("atomic n=1 coords=linear\n-1.0 1.0\n")


# ---------------------------------------------------------------------------
# package exports
# ---------------------------------------------------------------------------


def test_package_exports_are_the_layer_modules_all():
    import types

    from semistab import errors, experiments, measures, operators, semigroup

    public = {name for name, value in vars(st).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    declared = set().union(*(mod.__all__ for mod in (measures, operators, semigroup, experiments)))
    error_classes = {"DomainError", "InvariantViolation", "PreconditionError", "ResourceCapError"}
    assert public == declared | error_classes
    assert all(getattr(st, name) is getattr(errors, name) for name in error_classes)
    # the module-level duplicates of the measure methods are gone
    for name in ("ball_mass", "log_ball_mass", "laplace_norm_sq", "laplace_moment",
                 "measure_to_text"):
        for module in (st, measures):
            with pytest.raises(AttributeError):
                getattr(module, name)
    for cls in (st.AtomicMeasure, st.DensityMeasure):
        with pytest.raises(AttributeError):
            cls.describe
    probe = st.gdelta_probe(st.lacunary_measure(0.5, [0.5, 4.0], 6), 0.7, n_t=11)
    with pytest.raises(TypeError):
        iter(probe)

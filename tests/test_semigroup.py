"""Tests for orbit evolution, decay exponents, stability classification,
decay bounds, and the weighted-orbit oscillation probe.

Oracles: closed-form single-exponential orbits, mpmath brute-force
log-domain sums for lacunary measures, mpmath quadrature for density
orbits, and direct antiderivatives for the bound examples.
"""

import math
import re
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from scipy.special import logsumexp

from semistab import (
    AtomicMeasure,
    BetaDescriptor,
    DomainError,
    InvariantViolation,
    OrbitTrace,
    PreconditionError,
    DecayExponentEstimate,
    StabilityVerdict,
    check_fn_membership,
    classify_stability,
    constant_potential,
    decay_exponents,
    discretize,
    evolve_norms,
    gdelta_probe,
    lacunary_measure,
    laplace_moment,
    monomial_profile_measure,
    orbit_to_csv,
    power_law_measure,
    range_bound_check,
    scaling_exponents,
    shifted_range_bound_check,
    shifted_range_bound_checks,
    uniform_measure,
)
from semistab import errors
from semistab.errors import csv_text, write_ascii

LACUNARY = dict(scale_base=0.5, exponents=(0.5, 4.0), n_atoms=12)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def oracle_lacunary_log_norm(t, scale_base=0.5, exponents=(0.5, 4.0), n_atoms=12, dps=80):
    """ln ||e^{tA}x||^2 for the lacunary measure, all in mpmath."""
    with mp.workdps(dps):
        log_b = mp.log(mp.mpf(scale_base))
        log_s = [mp.mpf(2) ** k * log_b for k in range(1, n_atoms + 1)]
        raw_w = [exponents[(k - 1) % len(exponents)] * ls for k, ls in
                 zip(range(1, n_atoms + 1), log_s)]
        m = max(raw_w)
        log_z = m + mp.log(mp.fsum(mp.e ** (w - m) for w in raw_w))
        log_w = [w - log_z for w in raw_w]
        terms = [lw - 2 * mp.mpf(t) * mp.e ** ls for lw, ls in zip(log_w, log_s)]
        mt = max(terms)
        return float(mt + mp.log(mp.fsum(mp.e ** (x - mt) for x in terms)))


def random_atomic(rng, n_atoms=20, pos_lo=-10.0, pos_hi=0.0):
    positions = rng.uniform(pos_lo, pos_hi, n_atoms)
    weights = rng.uniform(0.1, 1.0, n_atoms)
    return AtomicMeasure.from_points(positions, weights)


# ---------------------------------------------------------------------------
# orbit traces
# ---------------------------------------------------------------------------


class TestEvolveNorms:
    def test_single_atom_is_exactly_minus_two_t(self):
        mu = AtomicMeasure.from_points([-1.0], [1.0])
        trace = evolve_norms(mu, 0.5, 50.0, 41)
        assert np.array_equal(trace.log_norm_sq, -2.0 * trace.t)

    def test_small_time_limit_recovers_mass(self):
        mu = AtomicMeasure.from_points([-1.0, -2.0], [0.5, 0.5])
        trace = evolve_norms(mu, 1e-12, 1e-9, 16)
        assert abs(trace.log_norm_sq[0] - trace.log_mass) <= 1e-8

    def test_monomial_profile_slope_approaches_its_exponent(self):
        mu = monomial_profile_measure(0.75)
        trace = evolve_norms(mu, 1.0, 1e4, 81)
        slopes = np.diff(trace.log_norm_sq) / np.diff(np.log(trace.t))
        assert abs(slopes[-1] + 2.5) <= 5e-3

    def test_density_orbit_matches_mp_quadrature(self):
        mu = monomial_profile_measure(0.75)
        got = float(mu.log_laplace(1e3))
        with mp.workdps(60):
            val = mp.quad(lambda s: mp.e ** (-2000 * s) * s ** mp.mpf(1.5),
                          [0, mp.mpf("0.01"), 1])
            expected = float(mp.log(val))
        assert abs(got - expected) <= 1e-9

    def test_lacunary_trace_matches_mp_oracle_at_nodes(self):
        mu = lacunary_measure(**LACUNARY)
        trace = evolve_norms(mu, 10.0, 1e12, 25)
        for t, got in zip(trace.t, trace.log_norm_sq):
            assert abs(got - oracle_lacunary_log_norm(float(t))) <= 1e-9

    def test_chunking_does_not_change_values(self):
        rng = np.random.default_rng(606)
        mu = AtomicMeasure.from_points(rng.uniform(-5.0, -0.1, 600),
                                       rng.uniform(0.1, 1.0, 600))
        trace = evolve_norms(mu, 0.1, 1e4, 1000)  # forces several chunks
        s = np.exp(mu.log_s)
        rowwise = [logsumexp(mu.log_w - 2.0 * t * s) for t in trace.t]
        np.testing.assert_allclose(trace.log_norm_sq, rowwise, rtol=0.0, atol=1e-12)

    def test_contraction_holds_on_random_measures(self):
        rng = np.random.default_rng(909)
        for _ in range(10):
            mu = random_atomic(rng)
            trace = evolve_norms(mu, 0.01, 1e3, 64)
            assert np.all(np.diff(trace.log_norm_sq) <= 1e-12)
            assert np.all(trace.log_norm_sq <= trace.log_mass + 1e-12)

    def test_invalid_grids_rejected(self):
        mu = AtomicMeasure.from_points([-1.0], [1.0])
        with pytest.raises(DomainError):
            evolve_norms(mu, 0.0, 1.0, 10)
        with pytest.raises(DomainError):
            evolve_norms(mu, 2.0, 1.0, 10)
        with pytest.raises(DomainError):
            evolve_norms(mu, 1.0, 2.0, 1)
        with pytest.raises(DomainError):
            evolve_norms(mu, 1.0, math.inf, 10)

    def test_trace_invariants_enforced(self):
        with pytest.raises(DomainError):
            OrbitTrace(t=np.array([2.0, 1.0]), log_norm_sq=np.array([-1.0, -2.0]),
                       log_mass=0.0)
        with pytest.raises(InvariantViolation):
            OrbitTrace(t=np.array([1.0, 2.0]), log_norm_sq=np.array([-2.0, -1.0]),
                       log_mass=0.0)
        with pytest.raises(InvariantViolation):
            OrbitTrace(t=np.array([1.0, 2.0]), log_norm_sq=np.array([0.5, 0.4]),
                       log_mass=0.0)
        with pytest.raises(DomainError):
            OrbitTrace(t=np.array([1.0, 2.0]), log_norm_sq=np.array([-1.0, -2.0]),
                       log_mass=math.inf)

    @pytest.mark.parametrize("t, vals, error, message", [
        ([1.0], [0.0], DomainError, "matching 1-D grids with at least 2 points"),
        ([1.0, 2.0], [0.0], DomainError, "matching 1-D grids with at least 2 points"),
        ([-1.0, 2.0], [0.0, -1.0], DomainError, "times must be finite and positive"),
        ([1.0, math.inf], [0.0, -1.0], DomainError, "times must be finite and positive"),
        ([1.0, 2.0], [0.0, math.nan], InvariantViolation, "log orbit norms must be finite"),
        ([1.0, 2.0], [0.0, -math.inf], InvariantViolation, "log orbit norms must be finite"),
    ], ids=["one-point", "length-mismatch", "negative-time", "infinite-time", "nan-norm",
            "zero-norm"])
    def test_trace_grid_guards(self, t, vals, error, message):
        with pytest.raises(error, match=re.escape(message)):
            OrbitTrace(t=np.array(t), log_norm_sq=np.array(vals), log_mass=0.0)


class TestOrbitCsv:
    @pytest.mark.parametrize("blocks, extra_rows", [(1, -1), (1, 0), (2, 3)],
                             ids=["one-short-block", "one-full-block", "ragged-last-block"])
    def test_streamed_csv_matches_the_whole_text(self, tmp_path, blocks, extra_rows):
        # the header and n_t rows, written _CSV_BLOCK_ROWS rows at a time
        n_t = blocks * errors._CSV_BLOCK_ROWS + extra_rows
        trace = evolve_norms(AtomicMeasure.from_points([-1.0, -0.1], [1.0, 2.0]), 0.5, 2e3, n_t)
        orbit_to_csv(trace, tmp_path / "streamed.csv")
        rows = [(t, v, r if math.log(t) != 0.0 else "undefined")
                for t, v, r in zip(trace.t.tolist(), trace.log_norm_sq.tolist(),
                                   trace.ratios().tolist())]
        write_ascii(tmp_path / "whole.csv", csv_text(("t", "log_norm_sq", "ratio"), rows))
        assert (tmp_path / "streamed.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()

    def test_csv_round_trip_and_undefined_ratio(self, tmp_path):
        mu = AtomicMeasure.from_points([-1.0], [1.0])
        trace = evolve_norms(mu, 1.0, 100.0, 5)
        path = tmp_path / "trace.csv"
        orbit_to_csv(trace, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,log_norm_sq,ratio"
        assert len(lines) == 6
        first = lines[1].split(",")
        assert float(first[0]) == 1.0
        assert first[2] == "undefined"
        for ln, t, v in zip(lines[2:], trace.t[1:], trace.log_norm_sq[1:]):
            t_txt, v_txt, r_txt = ln.split(",")
            assert float(t_txt) == t
            assert float(v_txt) == v
            assert float(r_txt) == v / math.log(t)


# ---------------------------------------------------------------------------
# decay exponents
# ---------------------------------------------------------------------------


class TestDecayExponents:
    def test_square_law_measure_decays_at_exponent_two(self):
        trace = evolve_norms(power_law_measure(2.0), 10.0, 1e6, 200)
        est = decay_exponents(trace)
        assert abs(est.liminf_est + 2.0) <= 0.05
        assert abs(est.limsup_est + 2.0) <= 0.05

    def test_round_trip_against_scaling_exponents(self):
        rng = np.random.default_rng(777)
        for gamma in rng.uniform(0.5, 4.0, 20):
            mu = power_law_measure(float(gamma))
            est = decay_exponents(evolve_norms(mu, 10.0, 1e6, 200))
            scaling = scaling_exponents(mu, 1e-6, 1e-1, 20)
            assert abs(est.limsup_est + scaling.d_minus) <= 0.1
            assert abs(est.liminf_est + scaling.d_plus) <= 0.1

    def test_pure_exponential_reports_below_floor(self):
        mu = AtomicMeasure.from_points([-1.0], [1.0])
        est = decay_exponents(evolve_norms(mu, 10.0, 1e3, 100))
        assert est.below_floor
        assert est.liminf_est == -math.inf
        assert est.limsup_est <= -50.0
        t_last, ratio_last = est.per_time_ratios[-1]
        assert t_last == pytest.approx(1e3, rel=1e-12)
        assert ratio_last == pytest.approx(-2000.0 / math.log(1e3), rel=1e-12)
        assert ratio_last <= -50.0

    def test_lacunary_oscillation_extremes(self):
        mu = lacunary_measure(**LACUNARY)
        est = decay_exponents(evolve_norms(mu, 10.0, 1e12, 2001))
        assert est.limsup_est >= -0.7
        assert est.liminf_est <= -3.0

    def test_tail_window_bounds(self):
        trace = evolve_norms(power_law_measure(1.0), 1.0, 1e4, 50)
        est = decay_exponents(trace, tail_fraction=1.0)
        assert est.t_window[0] == trace.t[0]
        assert est.t_window[1] == trace.t[-1]
        assert len(est.slopes) == 49
        assert len(est.per_time_ratios) == 50

    def test_parameter_validation(self):
        trace = evolve_norms(power_law_measure(1.0), 1.0, 1e4, 50)
        with pytest.raises(DomainError):
            decay_exponents(trace, tail_fraction=0.0)
        with pytest.raises(DomainError):
            decay_exponents(trace, floor=0.0)
        short = evolve_norms(power_law_measure(1.0), 1.0, 50.0, 10)
        with pytest.raises(DomainError):
            decay_exponents(short)

    def test_estimate_ordering_enforced(self):
        with pytest.raises(InvariantViolation):
            DecayExponentEstimate(
                liminf_est=-1.0, limsup_est=-2.0, tail_fraction=0.8,
                t_window=(10.0, 100.0), per_time_ratios=(), slopes=(),
                below_floor=False, floor=-50.0,
            )

    def test_positive_limsup_rejected(self):
        with pytest.raises(InvariantViolation, match="limsup estimate must be <= 0"):
            DecayExponentEstimate(
                liminf_est=-1.0, limsup_est=0.5, tail_fraction=0.8,
                t_window=(10.0, 100.0), per_time_ratios=(), slopes=(),
                below_floor=False, floor=-50.0,
            )


# ---------------------------------------------------------------------------
# stability classification
# ---------------------------------------------------------------------------


class TestClassifyStability:
    def test_two_atom_measure_is_exponentially_stable(self):
        mu = AtomicMeasure.from_points([-1.0, -2.0], [0.5, 0.5])
        v = classify_stability(mu)
        assert v.classification == "ExponentiallyStable"
        assert v.gap == 1.0
        assert v.rate == 1.0
        assert "ExponentiallyStable gap=1 rate=1" in v.describe()

    def test_verdict_line_is_exact(self):
        mu = AtomicMeasure.from_points([-1.0, -2.0], [0.5, 0.5])
        line = classify_stability(mu).describe()
        assert line == "ExponentiallyStable gap=1 rate=1 gap_tol=1e-08 atom_tol=1e-12"

    def test_lacunary_is_stable_not_exponential(self):
        v = classify_stability(lacunary_measure(**LACUNARY))
        assert v.classification == "StableNotExponential"
        assert v.rate is None

    def test_atom_at_zero_is_not_stable(self):
        mu = AtomicMeasure.from_points([0.0, -1.0], [0.3, 0.7])
        v = classify_stability(mu)
        assert v.classification == "NotStable"
        assert v.mass_at_zero == pytest.approx(0.3, rel=1e-15)
        assert v.gap == 0.0
        assert v.rate is None

    def test_negligible_atom_at_zero_is_ignored(self):
        mu = AtomicMeasure.from_points([0.0, -1.0], [1e-13, 1.0])
        assert classify_stability(mu).classification == "StableNotExponential"

    def test_gap_exactly_at_tolerance_is_not_exponential(self):
        at_tol = AtomicMeasure.from_points([-1e-8], [1.0])
        assert classify_stability(at_tol).classification == "StableNotExponential"
        above = AtomicMeasure.from_points([-1.00001e-8], [1.0])
        assert classify_stability(above).classification == "ExponentiallyStable"

    def test_density_measures(self):
        assert classify_stability(power_law_measure(1.0)).classification == \
            "StableNotExponential"
        v = classify_stability(uniform_measure(1.0, 3.0))
        assert v.classification == "ExponentiallyStable"
        assert v.gap == 1.0
        assert v.rate == 1.0

    def test_operator_verdict_uses_top_eigenvalue(self):
        op = discretize(constant_potential(0.0), L=10.0, h=0.25)
        v = classify_stability(op)
        assert v.classification == "ExponentiallyStable"
        assert v.gap == -op.lambda_max
        assert v.rate == v.gap

    def test_unsupported_subject_rejected(self):
        with pytest.raises(DomainError):
            classify_stability(42)
        with pytest.raises(DomainError):
            classify_stability(AtomicMeasure.from_points([-1.0], [1.0]), gap_tol=0.0)
        # an infinite gap_tol would call every gapped measure StableNotExponential,
        # an infinite atom_tol would never find NotStable
        for tols in (dict(gap_tol=math.inf), dict(atom_tol=math.inf), dict(gap_tol=math.nan)):
            for subject in (AtomicMeasure.from_points([-1.0], [1.0]),
                            AtomicMeasure.from_points([0.0], [1.0])):
                with pytest.raises(DomainError, match="positive and finite"):
                    classify_stability(subject, **tols)

    def test_rate_presence_invariants(self):
        with pytest.raises(InvariantViolation):
            StabilityVerdict(classification="ExponentiallyStable", gap=1.0, rate=None,
                             mass_at_zero=0.0, gap_tol=1e-8, atom_tol=1e-12)
        with pytest.raises(InvariantViolation):
            StabilityVerdict(classification="StableNotExponential", gap=0.0, rate=1.0,
                             mass_at_zero=0.0, gap_tol=1e-8, atom_tol=1e-12)
        sne = classify_stability(lacunary_measure(**LACUNARY))
        assert "rate=" not in sne.describe()


class TestFnMembership:
    def test_unit_gap_belongs_to_every_class(self):
        mu = AtomicMeasure.from_points([-1.0], [1.0])
        for n in (1, 2, 10, 100):
            assert check_fn_membership(mu, n)

    def test_one_third_gap_needs_n_at_least_three(self):
        mu = AtomicMeasure.from_points([-1.0 / 3.0], [1.0])
        assert not check_fn_membership(mu, 1)
        assert not check_fn_membership(mu, 2)
        assert check_fn_membership(mu, 3)
        assert check_fn_membership(mu, 4)

    def test_atom_at_zero_belongs_to_none(self):
        mu = AtomicMeasure.from_points([0.0], [1.0])
        for n in (1, 1000, 10 ** 8):
            assert not check_fn_membership(mu, n)

    def test_operator_membership_matches_top_eigenvalue(self):
        op = discretize(constant_potential(0.0), L=10.0, h=0.25)
        for n in (1, 10, 40, 41, 100):
            assert check_fn_membership(op, n) == (op.eigenvalues[0] <= -1.0 / n)

    def test_invalid_n_rejected(self):
        mu = AtomicMeasure.from_points([-1.0], [1.0])
        for bad in (0, -1, 2.5):
            with pytest.raises(DomainError):
                check_fn_membership(mu, bad)

    def test_classification_agrees_with_membership_over_random_measures(self):
        rng = np.random.default_rng(4242)
        n_star = 10 ** 8  # ceil(1/gap_tol) at the default tolerance
        for _ in range(50):
            top = 10.0 ** rng.uniform(-10.0, 1.0)
            positions = -top * np.concatenate(([1.0], 1.0 + rng.uniform(0.0, 9.0, 19)))
            mu = AtomicMeasure.from_points(positions, rng.uniform(0.1, 1.0, 20))
            exponential = classify_stability(mu).classification == "ExponentiallyStable"
            assert exponential == check_fn_membership(mu, n_star)


# ---------------------------------------------------------------------------
# range decay bounds
# ---------------------------------------------------------------------------


class TestRangeBound:
    def test_unit_interval_example_value(self):
        mu = uniform_measure(0.0, 1.0)
        moment = laplace_moment(mu, 1.0)
        expected = 0.25 - 1.25 * math.exp(-2.0)
        assert moment == pytest.approx(expected, rel=1e-10)
        check = range_bound_check(mu, t_grid=np.array([1.0]))
        assert float(check) == pytest.approx(math.sqrt(expected) - 1.0 / math.e, rel=1e-10)
        assert check.passed

    def test_zero_violations_on_random_measures(self):
        rng = np.random.default_rng(1212)
        for _ in range(100):
            mu = random_atomic(rng)
            check = range_bound_check(mu)
            assert check.passed, f"violation {float(check)} at t={check.worst_t}"

    def test_single_atom_equality_witness(self):
        lam = 2.7
        mu = AtomicMeasure.from_points([-lam], [1.0])
        check = range_bound_check(mu, t_grid=np.array([1.0 / lam]))
        assert abs(float(check)) <= 1e-12

    def test_tightened_bound_is_detected(self):
        mu = AtomicMeasure.from_points([-1.0], [1.0])
        check = range_bound_check(mu, bound_scale=0.9)
        assert float(check) > check.tol
        assert not check.passed

    def test_time_grid_validation(self):
        mu = AtomicMeasure.from_points([-1.0], [1.0])
        with pytest.raises(DomainError):
            range_bound_check(mu, t_grid=np.array([0.0, 1.0]))
        with pytest.raises(DomainError):
            range_bound_check(mu, t_grid=np.array([-1.0]))
        with pytest.raises(DomainError):
            range_bound_check(mu, t_grid=np.array([]))

    @pytest.mark.parametrize("window", [dict(n_t=0), dict(t_min=0.0), dict(n_t=2.5),
                                        dict(n_t=-3), dict(t_min=1e3, t_max=1e-2)],
                             ids=["no-points", "zero-start", "fractional-n_t", "negative-n_t",
                                  "reversed"])
    def test_generated_time_grid_validation(self, window):
        mu = AtomicMeasure.from_points([-1.0], [1.0])
        with pytest.raises(DomainError):
            range_bound_check(mu, **window)


class TestShiftedRangeBound:
    def test_single_atom_with_unit_shift(self):
        mu = AtomicMeasure.from_points([-2.0], [1.0])
        check = shifted_range_bound_check(mu, 1.0)
        assert check.passed
        at_one = shifted_range_bound_check(mu, 1.0, t_grid=np.array([1.0]))
        assert abs(float(at_one)) <= 1e-12  # e^{-2t} meets e^{-t}/(e t) at t = 1

    def test_uniform_band_no_violation(self):
        mu = uniform_measure(1.0, 3.0)
        check = shifted_range_bound_check(mu, 1.0, t_min=0.01, t_max=1e3, n_t=200)
        assert check.passed

    def test_zero_shift_reduces_to_plain_bound(self):
        rng = np.random.default_rng(333)
        mu = random_atomic(rng)
        plain = range_bound_check(mu)
        shifted = shifted_range_bound_check(mu, 0.0)
        assert float(plain) == float(shifted)
        assert plain.worst_t == shifted.worst_t

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
    def test_zero_violations_on_random_supported_measures(self, a):
        rng = np.random.default_rng(int(a * 1000))
        for _ in range(50):
            positions = -a - rng.uniform(0.0, 9.0, 20)
            mu = AtomicMeasure.from_points(positions, rng.uniform(0.1, 1.0, 20))
            check = shifted_range_bound_check(mu, a)
            assert check.passed, f"violation {float(check)} at t={check.worst_t}"

    def test_support_precondition(self):
        mu = AtomicMeasure.from_points([-0.5], [1.0])
        with pytest.raises(DomainError):
            shifted_range_bound_check(mu, 1.0)
        with pytest.raises(DomainError):
            shifted_range_bound_check(mu, -1.0)

    def test_tightened_bound_is_detected(self):
        mu = AtomicMeasure.from_points([-2.0], [1.0])
        check = shifted_range_bound_check(mu, 1.0, bound_scale=0.9)
        assert not check.passed

    @pytest.mark.parametrize("a", [0.0, 1.0])
    def test_bound_overflowing_at_subnormal_times_is_refused(self, a):
        # ||x|| e^{-ta}/(e t) is inf at t = 1e-320; checked against it, any
        # orbit would pass
        mu = AtomicMeasure.from_points([-2.0], [1.0])
        with pytest.raises(DomainError, match="not finite at t = 1e-320"):
            shifted_range_bound_check(mu, a, t_min=1e-320, t_max=1e-300, n_t=20)
        with pytest.raises(DomainError, match="not finite"):
            shifted_range_bound_check(mu, a, t_grid=np.array([1.0, 1e-320]))


# ---------------------------------------------------------------------------
# weighted-orbit probe
# ---------------------------------------------------------------------------


class TestGdeltaProbe:
    def setup_method(self):
        self.mu = lacunary_measure(**LACUNARY)

    def test_witness_thresholds(self):
        result = gdelta_probe(self.mu, 0.7, BetaDescriptor(0.1), (10.0, 1e12), 4001)
        log_max, log_min = result
        assert log_max >= 6.9
        assert log_min <= -6.9

    def test_probe_values_match_mp_oracle_at_their_nodes(self):
        result = gdelta_probe(self.mu, 0.7, BetaDescriptor(0.1), (10.0, 1e12), 2001)
        expected_max = 0.7 * math.log(result.argmax_t) \
            + 0.5 * oracle_lacunary_log_norm(result.argmax_t)
        assert abs(result.log_max_alpha_weighted - expected_max) <= 1e-9
        expected_min = result.argmin_t ** 0.1 \
            + 0.5 * oracle_lacunary_log_norm(result.argmin_t)
        assert abs(result.log_min_beta_weighted - expected_min) <= 1e-9

    def test_small_alpha_exponent_is_capped_by_contraction(self):
        result = gdelta_probe(self.mu, 0.1, BetaDescriptor(0.1), (10.0, 1e12), 2001)
        cap = 0.1 * math.log(1e12)
        assert result.log_max_alpha_weighted <= cap + 1e-9
        assert result.log_max_alpha_weighted < 6.9

    def test_sqrt_exponential_weight_never_gets_small_here(self):
        result = gdelta_probe(self.mu, 0.7, BetaDescriptor(0.5), (10.0, 1e12), 2001)
        assert result.log_min_beta_weighted >= 0.0

    def test_chunking_matches_single_pass(self):
        result = gdelta_probe(self.mu, 0.7, BetaDescriptor(0.1), (10.0, 1e12), 513)
        ts = np.geomspace(10.0, 1e12, 513)
        half = 0.5 * self.mu.log_laplace(ts)
        log_alpha = 0.7 * np.log(ts) + half
        log_beta = ts ** 0.1 + half
        assert result.log_max_alpha_weighted == float(np.max(log_alpha))
        assert result.argmax_t == float(ts[np.argmax(log_alpha)])
        assert result.log_min_beta_weighted == float(np.min(log_beta))
        assert result.argmin_t == float(ts[np.argmin(log_beta)])

    def test_preconditions(self):
        exponential = AtomicMeasure.from_points([-1.0, -2.0], [0.5, 0.5])
        with pytest.raises(PreconditionError):
            gdelta_probe(exponential, 0.7)
        unstable = AtomicMeasure.from_points([0.0, -1.0], [0.3, 0.7])
        with pytest.raises(PreconditionError):
            gdelta_probe(unstable, 0.7)

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            gdelta_probe(self.mu, 0.0)
        with pytest.raises(DomainError):
            gdelta_probe(self.mu, 0.7, horizon=(10.0, 500.0))
        with pytest.raises(DomainError):
            gdelta_probe(self.mu, 0.7, n_t=1)
        with pytest.raises(DomainError):
            BetaDescriptor(1.0)
        with pytest.raises(DomainError):
            BetaDescriptor(0.5, poly_degree=-1)

    def test_beta_descriptor_text(self):
        assert BetaDescriptor(0.5).describe() == "exp(t^0.5)"
        assert BetaDescriptor(0.25, 2).describe() == "t^2*exp(t^0.25)"


# ---------------------------------------------------------------------------
# the chunked orbit kernel
# ---------------------------------------------------------------------------


class TestChunkedKernel:
    """Every orbit-norm caller goes through one chunked kernel whose values
    do not depend on the chunk size, down to one t per chunk."""

    def _results(self):
        rng = np.random.default_rng(1212)
        mu = random_atomic(rng)
        shifted_mu = AtomicMeasure.from_points(-1.0 - rng.uniform(0.0, 9.0, 20),
                                               rng.uniform(0.1, 1.0, 20))
        lac = lacunary_measure(**LACUNARY)
        trace = evolve_norms(mu, 0.01, 1e4, 97)
        probe = gdelta_probe(lac, 0.7, BetaDescriptor(0.1), (10.0, 1e12), 301)
        plain = range_bound_check(mu, n_t=53)
        shifted = shifted_range_bound_check(shifted_mu, 1.0, n_t=53)
        return (trace.log_norm_sq.tobytes(), tuple(probe)[0], tuple(probe)[1], probe.argmax_t,
                probe.argmin_t, float(plain), plain.worst_t, float(shifted), shifted.worst_t)

    @pytest.mark.parametrize("rows", [1, 3])
    def test_results_do_not_depend_on_chunk_size(self, monkeypatch, rows):
        import semistab.measures as ms

        whole = self._results()
        monkeypatch.setattr(ms, "_CHUNK_ELEMENTS", rows * 20)  # 20 atoms per row
        assert self._results() == whole

    def test_direct_call_runs_in_bounded_memory(self):
        rng = np.random.default_rng(1414)
        mu = AtomicMeasure.from_points(rng.uniform(-10.0, -0.01, 1000),
                                       rng.uniform(0.1, 1.0, 1000))
        ts = np.geomspace(0.01, 1e4, 4000)
        tracemalloc.start()
        try:
            mu.log_laplace(ts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6 * 8  # one (t, atom) array of doubles

    def test_bound_check_matches_per_time_evaluation(self):
        rng = np.random.default_rng(1313)
        mu = random_atomic(rng)
        ts = np.geomspace(0.01, 1e3, 41)
        check = shifted_range_bound_check(mu, 0.0, t_grid=ts)
        lhs = [math.exp(0.5 * mu.log_laplace_moment(float(t))) for t in ts]
        violations = np.array(lhs) - math.sqrt(mu.mass) / (math.e * ts)
        assert float(check) == float(np.max(violations))
        assert check.worst_t == float(ts[np.argmax(violations)])


def per_measure_rows(mus, ts, shifts=None):
    """ln moments one measure and one t at a time, the kernel's semantics
    before it took stacks: a logsumexp of log_coef - 2 t s per (measure, t)."""
    from semistab.measures import _logsumexp

    rows = []
    for m, mu in enumerate(mus):
        if not isinstance(mu, AtomicMeasure):
            rows.append(mu.log_laplace(ts) if shifts is None
                        else mu.log_laplace_moment(ts, shift=shifts[m]))
            continue
        s = np.exp(mu.log_s)
        coef = mu.log_w
        if shifts is not None:
            with np.errstate(divide="ignore"):
                coef = coef + (2.0 * mu.log_s if shifts[m] == 0.0
                               else 2.0 * np.log(np.abs(shifts[m] - s)))
        rows.append([_logsumexp(coef - 2.0 * t * s) for t in ts.tolist()])
    return np.array(rows)


def mixed_batch():
    """Measures of 20, 19 (a merged duplicate), 3 and 1 atoms, one with an
    atom at 0 and two with an atom exactly at their shift, and the shifts,
    each at or inside its measure's support gap."""
    rng = np.random.default_rng(2718)
    plain = [random_atomic(rng, pos_hi=-2.0) for _ in range(3)]
    merged = AtomicMeasure.from_points(np.r_[-2.5, -2.5, rng.uniform(-10.0, -0.5, 18)],
                                       rng.uniform(0.1, 1.0, 20))
    at_zero = AtomicMeasure.from_points(np.r_[0.0, rng.uniform(-10.0, 0.0, 19)],
                                        rng.uniform(0.1, 1.0, 20))
    at_shift = AtomicMeasure.from_points([-1.0, -2.5, -6.0], [0.3, 0.5, 0.2])
    single = AtomicMeasure.from_points([-3.0], [0.7])
    mus = [plain[0], merged, at_shift, plain[1], at_zero, single, plain[2]]
    assert [mu.n_atoms for mu in mus] == [20, 19, 3, 20, 20, 1, 20]
    assert np.isneginf(at_zero.log_s[0])
    return mus, [0.0, 0.5, 1.0, 2.0, 0.0, 3.0, 0.0]


class TestStackedKernel:
    """The stacked kernel is bit for bit the per-measure, per-t kernel, for
    any block size, any mix of atom counts and any order of the measures."""

    TS = np.geomspace(1e-2, 1e3, 23)

    @pytest.mark.parametrize("chunk", ["1", "n-1", "n", "7n+3", "1e9"])
    def test_stack_matches_per_measure_rows(self, monkeypatch, chunk):
        import semistab.measures as ms

        n = 20
        size = {"1": 1, "n-1": n - 1, "n": n, "7n+3": 7 * n + 3, "1e9": 10 ** 9}[chunk]
        monkeypatch.setattr(ms, "_CHUNK_ELEMENTS", size)
        mus, shifts = mixed_batch()
        for stack_shifts in (None, shifts):
            got = ms._log_laplace_stack(mus, self.TS, stack_shifts)
            assert got.shape == (len(mus), self.TS.size)
            assert got.tobytes() == per_measure_rows(mus, self.TS, stack_shifts).tobytes()
        # an atom exactly at the shift has no moment term, an atom at 0 none at shift 0
        assert np.all(np.isfinite(got))

    def test_methods_are_the_stack_of_one(self):
        mus, shifts = mixed_batch()
        for mu, a in zip(mus, shifts):
            assert mu.log_laplace(self.TS).tobytes() == per_measure_rows(
                [mu], self.TS)[0].tobytes()
            assert mu.log_laplace_moment(self.TS, shift=a).tobytes() == per_measure_rows(
                [mu], self.TS, [a])[0].tobytes()

    @pytest.mark.parametrize("chunk", [1, 19, 10 ** 9])
    def test_list_check_matches_one_measure_checks(self, monkeypatch, chunk):
        import semistab.measures as ms

        mus, shifts = mixed_batch()
        mus.insert(3, uniform_measure(1.0, 3.0))
        shifts.insert(3, 1.0)
        monkeypatch.setattr(ms, "_CHUNK_ELEMENTS", chunk)
        batch = shifted_range_bound_checks(mus, shifts, t_grid=self.TS, bound_scale=0.97)
        oracle = per_measure_rows(mus, self.TS, shifts)
        for mu, a, check, row in zip(mus, shifts, batch, oracle):
            single = shifted_range_bound_check(mu, a, t_grid=self.TS, bound_scale=0.97)
            norm_x = math.sqrt(mu.mass)
            lhs = np.array([math.exp(0.5 * v) if v > -1400.0 else 0.0 for v in row])
            violations = lhs - 0.97 * norm_x * np.exp(-self.TS * a) / (math.e * self.TS)
            i = int(np.argmax(violations))
            for got in (check, single):
                assert (float(got), got.worst_t, got.norm_x, got.tol, got.n_t) == (
                    float(violations[i]), float(self.TS[i]), norm_x, 1e-12 * norm_x,
                    self.TS.size)

    def test_plain_check_is_the_list_check_at_zero_shift(self):
        mus, _ = mixed_batch()
        batch = shifted_range_bound_checks(mus, [0.0] * len(mus), n_t=41)
        for mu, check in zip(mus, batch):
            plain = range_bound_check(mu, n_t=41)
            assert (float(plain), plain.worst_t) == (float(check), check.worst_t)

    @pytest.mark.parametrize("bad, message", [
        (dict(shift=-0.5), "shift level a must be finite and >= 0"),
        (dict(shift=math.inf), "shift level a must be finite and >= 0"),
        (dict(shift=4.0), "measure must be supported in (-inf, -a]"),
        (dict(measure="not a measure"), "cannot bound-check a str"),
        (dict(t_grid=np.array([1e-320, 1.0])), "not finite at t = 1e-320"),
    ], ids=["negative-shift", "infinite-shift", "support-past-shift", "not-a-measure",
            "infinite-bound"])
    def test_every_measure_meets_the_one_measure_checks(self, bad, message):
        mus, shifts = mixed_batch()
        shifts[-1] = bad.get("shift", shifts[-1])
        mus[-1] = bad.get("measure", mus[-1])
        with pytest.raises(DomainError, match=re.escape(message)):
            shifted_range_bound_checks(mus, shifts, t_grid=bad.get("t_grid"))

    def test_one_shift_per_measure(self):
        mus, shifts = mixed_batch()
        with pytest.raises(DomainError, match="one shift level per measure"):
            shifted_range_bound_checks(mus, shifts[:-1])

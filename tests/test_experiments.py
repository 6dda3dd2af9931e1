"""Tests for config-driven studies: parsing, artifacts, determinism.

Cross-checks re-derive report cells straight from the library
operations (the closure property of the report format); closed-form
oracles cover the free-potential box spectrum and the analytic
exponent columns.
"""

import csv
import io
import math
import os
import re
import tracemalloc

import numpy as np
import pytest

from semistab import (
    AtomicMeasure,
    DomainError,
    InvariantViolation,
    OUTPUT_DIR_ENV,
    PreconditionError,
    ReportTable,
    StudyConfig,
    constant_potential,
    discretize,
    exp_well,
    gaussian_well,
    load_measure,
    load_study_config,
    metric_d,
    monomial_profile_measure,
    parse_scale_token,
    parse_study_config,
    power_law_measure,
    range_bound_check,
    resolve_output_dir,
    resolvent_gap,
    run_study,
    sampled_potential,
    scaling_exponents,
    spot_check,
    square_well,
    study,
    truncate_potential,
    write_report,
)
from semistab import errors, experiments
from semistab.errors import csv_cell, csv_text, write_ascii, write_csv

GAUSSIAN = gaussian_well(depth=1.0, width=1.0, nu=1, a_bound=1.0)
FREE = constant_potential(0.0, a_bound=1.0)


def small_truncation_report(seed=11):
    return study("approximation", potential=GAUSSIAN, seq_kind="truncation",
                 indices=range(1, 7), n_probes=2, L=8.0, h=0.1, seed=seed)


def assert_matches_benchmark_reference(rep, workload, seed, skip_prefix=None):
    """Every table of ``rep`` against the stored outputs of a benchmark
    workload, variant = seed, at the workload's tolerance (RTOL 1e-6, ATOL
    1e-12); inf and strings exactly, columns named ``skip_prefix...`` not."""
    ref = os.path.join(os.path.dirname(__file__), "..", "perfbench", "ref", workload,
                       f"v{seed}")
    for tab in rep.tables:
        with open(os.path.join(ref, f"{tab.name}.csv"), newline="", encoding="ascii") as fh:
            want = list(csv.reader(fh))
        got = list(csv.reader(io.StringIO(tab.to_csv_text(), newline="")))
        assert got[0] == want[0] and len(got) == len(want)
        for grow, wrow in zip(got[1:], want[1:]):
            assert len(grow) == len(wrow)
            for col, g, w in zip(want[0], grow, wrow):
                if skip_prefix is not None and col.startswith(skip_prefix):
                    continue
                try:
                    a, b = float(g), float(w)
                except ValueError:
                    assert g == w
                    continue
                if math.isfinite(a) and math.isfinite(b):
                    assert abs(a - b) <= 1e-12 + 1e-6 * max(abs(a), abs(b)), (col, g, w)
                else:
                    assert g == w


def bounds_config_text(bound_scale=None, seed=7):
    lines = [
        "[study]",
        "kind = section3-bounds",
        f"seed = {seed}",
        "",
        "[bounds]",
        "n_measures = 6",
        "n_atoms = 8",
        "n_shifted = 3",
        "n_t = 80",
    ]
    if bound_scale is not None:
        lines += ["", "[hooks]", f"bound_scale = {bound_scale}"]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# scale tokens and config parsing
# ---------------------------------------------------------------------------


class TestScaleTokens:
    def test_plain_decimal(self):
        assert parse_scale_token("1e-6") == math.log(1e-6)
        assert parse_scale_token("0.25") == math.log(0.25)

    def test_power_form_reaches_below_double_precision(self):
        assert parse_scale_token("2^-2048") == -2048.0 * math.log(2.0)
        assert parse_scale_token("10^-700") == -700.0 * math.log(10.0)

    def test_power_and_plain_agree_in_range(self):
        assert math.isclose(
            parse_scale_token("2^-10"), parse_scale_token("0.0009765625"), rel_tol=1e-15
        )

    @pytest.mark.parametrize("token", ["", "abc", "2^", "^3", "-1", "0", "inf", "1^x"])
    def test_rejects_malformed_tokens(self, token):
        with pytest.raises(DomainError):
            parse_scale_token(token)


class TestConfigParsing:
    def test_parses_kind_seed_and_sections(self):
        cfg = parse_study_config(bounds_config_text(bound_scale=0.9))
        assert cfg.kind == "section3-bounds"
        assert cfg.seed == 7
        assert cfg.sections["bounds"]["n_measures"] == "6"
        assert cfg.sections["hooks"]["bound_scale"] == "0.9"

    def test_echo_reparses_to_the_same_config(self):
        cfg = parse_study_config(bounds_config_text(bound_scale=0.9))
        again = parse_study_config(cfg.echo_text())
        assert again.sections == cfg.sections
        assert (again.kind, again.seed) == (cfg.kind, cfg.seed)

    def test_missing_study_section_rejected(self):
        with pytest.raises(DomainError):
            parse_study_config("[bounds]\nn_measures = 3\n")

    def test_unknown_kind_rejected(self):
        with pytest.raises(DomainError):
            parse_study_config("[study]\nkind = frobnicate\n")

    def test_bad_seed_rejected(self):
        with pytest.raises(DomainError):
            parse_study_config("[study]\nkind = exponent-table\nseed = soon\n")

    def test_malformed_ini_rejected(self):
        with pytest.raises(DomainError):
            parse_study_config("kind = no-section-header\n")

    def test_output_dir_resolution(self, monkeypatch):
        cfg = parse_study_config("[study]\nkind = exponent-table\noutput_dir = here\n")
        assert resolve_output_dir(cfg) == "here"
        bare = parse_study_config("[study]\nkind = exponent-table\n")
        monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)
        assert resolve_output_dir(bare) == "study-out"
        monkeypatch.setenv(OUTPUT_DIR_ENV, "/tmp/elsewhere")
        assert resolve_output_dir(bare) == "/tmp/elsewhere"

    def test_direct_construction_validates_kind(self):
        with pytest.raises(DomainError):
            StudyConfig(kind="nope", seed=0, output_dir=None, sections={})


# ---------------------------------------------------------------------------
# approximation study
# ---------------------------------------------------------------------------


class TestApproximationStudy:
    def test_truncation_verdicts_pass(self):
        rep = small_truncation_report()
        assert rep.passed
        names = [v.name for v in rep.verdicts]
        assert names == ["resolvent-domination", "metric-nonincreasing", "metric-threshold"]

    def test_truncation_metric_column_strictly_decreasing(self):
        rep = small_truncation_report()
        col = [row[1] for row in rep.table("approximation").rows]
        assert all(b < a for a, b in zip(col, col[1:]))
        assert col[-1] < 1e-3

    def test_truncation_rows_recompute_from_module_operations(self):
        rep = small_truncation_report(seed=11)
        row = [r for r in rep.table("approximation").rows if r[0] == 4][0]
        H = discretize(GAUSSIAN, 8.0, 0.1)
        rng = np.random.default_rng(11)
        probes = []
        for _ in range(2):
            u = rng.uniform(-1.0, 1.0, H.N)
            probes.append(u / np.linalg.norm(u))
        V4 = truncate_potential(GAUSSIAN, 4)
        assert row[1] == float(metric_d(V4, GAUSSIAN, J=20))
        H4 = discretize(V4, 8.0, 0.1)
        assert row[2] == float(H4.lambda_max)
        lhs, rhs = resolvent_gap(H4, H, probes[0])
        assert (row[3], row[4]) == (float(lhs), float(rhs))
        lhs2, rhs2 = resolvent_gap(H4, H, probes[1])
        assert (row[5], row[6]) == (float(lhs2), float(rhs2))

    def test_base_resolvent_is_solved_once_per_probe(self, monkeypatch):
        from semistab import operators

        solved = []
        inner = operators.resolvent_apply

        def counting(H, u):
            solved.append(H.potential.kind)
            return inner(H, u)

        monkeypatch.setattr(operators, "resolvent_apply", counting)
        monkeypatch.setattr(experiments, "resolvent_apply", counting)
        small_truncation_report()
        # 2 probes: one base solve each, and one per probe on each of the 6 truncations
        assert solved.count("gaussian-well") == 2
        assert solved.count("truncated") == 6 * 2 and len(solved) == 14

    @pytest.mark.parametrize("seed", range(8))
    def test_workload_config_matches_the_benchmark_reference(self, seed):
        # the approx-1d workload: its lhs_* columns are noise-level, checked
        # by the resolvent-domination verdict rather than by value
        rep = study("approximation", potential=GAUSSIAN, seq_kind="truncation",
                    indices=range(1, 13), n_probes=3, L=20.0, h=0.05, seed=seed)
        assert rep.passed
        assert_matches_benchmark_reference(rep, "approx-1d", seed, skip_prefix="lhs_")

    def test_shift_caps_hold_exactly(self):
        rep = study("approximation", potential=GAUSSIAN, seq_kind="shift",
                    indices=range(1, 9), n_probes=2, L=8.0, h=0.1, seed=3)
        assert rep.passed
        tab = rep.table("approximation")
        assert tab.header[3] == "shift_cap"
        for row in tab.rows:
            l = row[0]
            assert row[3] == -1.0 / (l + 1.0)
            assert row[2] <= row[3]

    @pytest.mark.parametrize("seq_kind", ["truncation", "shift"])
    def test_single_index_notes_instead_of_a_vacuous_monotonicity(self, seq_kind):
        rep = study("approximation", potential=GAUSSIAN, seq_kind=seq_kind, indices=[12],
                    n_probes=1, L=4.0, h=0.2)
        summary = rep.summary_text()
        assert "note: metric-nonincreasing: one index, so no verdict" in summary
        assert [v.name for v in rep.verdicts] == [
            "resolvent-domination",
            "metric-threshold" if seq_kind == "truncation" else "shift-gap-bound"]
        two = study("approximation", potential=GAUSSIAN, seq_kind=seq_kind, indices=[11, 12],
                    n_probes=1, L=4.0, h=0.2)
        assert "metric-nonincreasing" in [v.name for v in two.verdicts] and not two.notes

    def test_header_matches_probe_count(self):
        rep = small_truncation_report()
        assert rep.table("approximation").header == (
            "index", "metric_d", "lambda_max", "lhs_1", "rhs_1", "lhs_2", "rhs_2",
        )

    def test_rejects_bad_sequence_kind_and_indices(self):
        with pytest.raises(DomainError):
            study("approximation", potential=GAUSSIAN, seq_kind="dilation", indices=[1, 2],
                  L=8.0, h=0.1)
        cfg = parse_study_config(
            "[study]\nkind = approximation\n\n"
            "[potential]\nkind = gaussian-well\nnu = 1\na_bound = 1.0\n"
            "depth = 1.0\nwidth = 1.0\n\n"
            "[approximation]\nseq_kind = truncation\nindices = 3, 2\nL = 8\nh = 0.1\n"
        )
        with pytest.raises(DomainError):
            run_study(cfg)


# ---------------------------------------------------------------------------
# gap-vs-box study
# ---------------------------------------------------------------------------


class TestGapVsBox:
    def test_free_potential_matches_closed_form(self):
        rep = study("gap-vs-box", potential=FREE, L_list=[5.0, 10.0, 20.0], h=0.25)
        assert rep.passed
        rows = rep.table("gap-vs-box").rows
        for L, lam, gap in rows[:-1]:
            n = round(2.0 * L / 0.25) - 1
            expected = -(4.0 / 0.25**2) * math.sin(math.pi / (2.0 * (n + 1))) ** 2
            assert lam == pytest.approx(expected, rel=1e-12)
            assert gap == -lam

    def test_free_potential_gap_quarters_when_box_doubles(self):
        rep = study("gap-vs-box", potential=FREE, L_list=[5.0, 10.0, 20.0], h=0.25)
        gaps = [row[2] for row in rep.table("gap-vs-box").rows[:-1]]
        assert abs(gaps[0] / gaps[1] - 4.0) < 0.01
        assert abs(gaps[1] / gaps[2] - 4.0) < 0.01

    def test_compact_well_bracketed_by_free_value(self):
        well = square_well(depth=1.0, radius=1.0, a_bound=1.0)
        rep = study("gap-vs-box", potential=well, L_list=[10.0, 20.0, 40.0], h=0.25)
        assert rep.passed
        free = study("gap-vs-box", potential=FREE, L_list=[10.0, 20.0, 40.0], h=0.25)
        for row, frow in zip(rep.table("gap-vs-box").rows[:-1], free.table("gap-vs-box").rows[:-1]):
            assert frow[2] <= row[2] <= frow[2] + 1.0

    def test_final_row_is_flagged_never_computed(self):
        rep = study("gap-vs-box", potential=FREE, L_list=[5.0, 10.0], h=0.25)
        assert rep.table("gap-vs-box").rows[-1] == ("inf", "extrapolated", "extrapolated")
        assert any("never computed" in note for note in rep.notes)

    def test_unbounded_support_rejected(self):
        with pytest.raises(PreconditionError):
            study("gap-vs-box", potential=GAUSSIAN, L_list=[2.0, 3.0], h=0.25)

    @pytest.mark.parametrize("V, L_list", [
        (GAUSSIAN, [8.0, 16.0]),
        (exp_well(1.0, 1.0, nu=1, a_bound=1.0), [20.0, 40.0]),
        (square_well(radius=3.0), [1.0, 2.0]),
    ], ids=["gaussian", "exp", "square-past-the-box"])
    def test_declared_support_beyond_the_largest_box_is_refused(self, V, L_list):
        # the Gaussian and exponential wells are below 1e-12 at these boxes'
        # edges, but they vanish outside no ball
        with pytest.raises(PreconditionError, match="declared support radius"):
            study("gap-vs-box", potential=V, L_list=L_list, h=0.25)

    @pytest.mark.parametrize("V, L_list", [
        (sampled_potential(np.pad(-np.ones((3, 3)), 1).ravel(), -1.0, 1.0, nu=2, a_bound=1.0),
         [1.0, 1.5]),
        (truncate_potential(GAUSSIAN, 4), [2.0, 4.0]),
    ], ids=["sampled-2d-zero-edge", "truncated-gaussian"])
    def test_declared_compact_support_is_accepted(self, V, L_list):
        rep = study("gap-vs-box", potential=V, L_list=L_list, h=0.25)
        assert rep.passed
        assert len(rep.table("gap-vs-box").rows) == len(L_list) + 1

    def test_nonincreasing_box_list_rejected(self):
        with pytest.raises(DomainError):
            study("gap-vs-box", potential=FREE, L_list=[10.0, 10.0], h=0.25)
        with pytest.raises(DomainError):
            study("gap-vs-box", potential=FREE, L_list=[10.0], h=0.25)


# ---------------------------------------------------------------------------
# exponent-table study
# ---------------------------------------------------------------------------


class TestExponentTable:
    def test_profile_and_power_law_columns(self):
        rep = study("exponent-table", delta_list=[0.75], gamma_list=[1.0], n_scales=60,
                    n_times=120)
        assert rep.passed
        rows = rep.table("exponent-table").rows
        delta_row = [r for r in rows if r[0] == "delta"][0]
        assert delta_row[2] == 2.5
        assert abs(delta_row[3] - 2.5) <= 1e-3 and abs(delta_row[4] - 2.5) <= 1e-3
        assert abs(delta_row[6] + 2.5) <= 0.05
        gamma_row = [r for r in rows if r[0] == "gamma"][0]
        assert gamma_row[2] == 1.0
        assert abs(gamma_row[3] - 1.0) <= 1e-3 and abs(gamma_row[4] - 1.0) <= 1e-3
        assert abs(gamma_row[5] + 1.0) <= 0.05 and abs(gamma_row[6] + 1.0) <= 0.05

    def test_row_recomputes_from_module_operations(self):
        rep = study("exponent-table", delta_list=[], gamma_list=[2.0], n_scales=40, n_times=80)
        row = rep.table("exponent-table").rows[0]
        est = scaling_exponents(
            power_law_measure(2.0),
            log_window=(math.log(1e-6), math.log(1e-1)),
            n_scales=40,
        )
        assert (row[3], row[4]) == (est.d_minus, est.d_plus)

    def test_empty_delta_list_gives_gamma_only_report(self):
        rep = study("exponent-table", delta_list=[], gamma_list=[0.5, 1.0], n_scales=40,
                    n_times=80)
        assert rep.passed
        families = {row[0] for row in rep.table("exponent-table").rows}
        assert families == {"gamma"}

    def test_delta_outside_half_one_rejected(self):
        for bad in (0.4, 0.5, 1.0, 1.3):
            with pytest.raises(DomainError):
                study("exponent-table", delta_list=[bad], gamma_list=[1.0])

    def test_nonpositive_gamma_rejected(self):
        with pytest.raises(DomainError):
            study("exponent-table", delta_list=[0.75], gamma_list=[0.0])

    def test_empty_config_rejected(self):
        with pytest.raises(DomainError):
            study("exponent-table", delta_list=[], gamma_list=[])


# ---------------------------------------------------------------------------
# gdelta-witness study
# ---------------------------------------------------------------------------


class TestGdeltaWitness:
    def test_alternating_exponents_establish_the_witness(self):
        rep = study("gdelta-witness")
        assert rep.passed
        row = dict(zip(rep.table("gdelta-witness").header, rep.table("gdelta-witness").rows[0]))
        assert row["classification"] == "StableNotExponential"
        assert row["d_minus"] <= 0.7
        assert row["d_plus"] >= 3.0
        assert row["log_max_alpha_weighted"] >= 6.9
        assert row["log_min_beta_weighted"] <= -6.9
        assert row["witness"] == "established"
        assert "witness: oscillation witness established" in rep.notes

    def test_witness_measure_artifact_round_trips(self, tmp_path):
        rep = study("gdelta-witness")
        paths = write_report(rep, tmp_path / "out")
        assert "witness.measure" in paths
        mu = load_measure(paths["witness.measure"])
        assert isinstance(mu, AtomicMeasure)
        assert mu.n_atoms == 12
        direct = __import__("semistab").lacunary_measure(0.5, (0.5, 4.0), 12)
        assert np.array_equal(mu.log_s, direct.log_s)
        assert np.array_equal(mu.log_w, direct.log_w)

    def test_equal_exponents_report_no_oscillation_witness(self):
        # window top 2^-5 keeps every scale inside the atom range, where
        # the raw ratio tracks the epsilon-scaling order of the measure;
        # above the largest atom the ball has full mass and the ratio
        # degrades to ln(1)/ln(eps) = 0.
        rep = study(
            "gdelta-witness",
            exponents=(1.0,),
            alpha_exponent=0.4,
            expect_witness=False,
            scale_window=("2^-2048", "2^-5"),
        )
        assert rep.passed
        row = dict(zip(rep.table("gdelta-witness").header, rep.table("gdelta-witness").rows[0]))
        assert row["classification"] == "StableNotExponential"
        assert row["log_max_alpha_weighted"] < 6.9
        assert 0.8 <= row["ratio_min"] <= 1.2
        assert row["witness"] == "none"
        assert "witness: no oscillation witness" in rep.notes

    def test_equal_exponents_against_witness_expectation_fails(self):
        rep = study("gdelta-witness", exponents=(1.0,), alpha_exponent=0.4, expect_witness=True)
        assert not rep.passed

    def test_short_horizon_rejected(self):
        with pytest.raises(DomainError, match=r"\[witness\] horizon must be .* two decades"):
            study("gdelta-witness", horizon=(10.0, 500.0))


# ---------------------------------------------------------------------------
# section3-bounds study
# ---------------------------------------------------------------------------


class TestDecayBoundStudy:
    def test_default_bound_holds_everywhere(self):
        rep = study("section3-bounds", n_measures=12, n_shifted=6, n_t=120, seed=2)
        assert rep.passed
        rows = rep.table("section3-bounds").rows
        assert len(rows) == 12 + 3 * 6
        assert all(row[7] == "ok" for row in rows)
        families = [row[0] for row in rows]
        assert families == ["plain"] * 12 + ["shifted"] * 18

    def test_rows_recompute_from_module_operations(self):
        rep = study("section3-bounds", n_measures=4, n_shifted=2, n_t=60, seed=9)
        row = rep.table("section3-bounds").rows[1]
        rng = np.random.default_rng(9)
        pos = rng.uniform(-10.0, 0.0, 20)
        wts = rng.uniform(0.05, 1.0, 20)
        pos2 = rng.uniform(-10.0, 0.0, 20)
        wts2 = rng.uniform(0.05, 1.0, 20)
        val = range_bound_check(
            AtomicMeasure.from_points(pos2, wts2), t_min=1e-2, t_max=1e3, n_t=60
        )
        assert row[3] == float(val)
        assert row[4] == val.worst_t

    def test_equality_witness_row(self):
        rep = study("section3-bounds", n_measures=3, n_shifted=2, n_t=60)
        row = rep.table("equality-witness").rows[0]
        assert row[0] == -2.7
        assert row[1] == 1.0 / 2.7
        assert row[2] <= row[4]
        assert row[5] == "ok"

    def test_tightened_bound_hook_is_detected(self):
        rep = study("section3-bounds", n_measures=6, n_shifted=3, n_t=80, bound_scale=0.9)
        assert not rep.passed
        equality = [v for v in rep.verdicts if v.name == "equality-witness"][0]
        assert not equality.passed
        assert "FAIL" in rep.summary_text()
        assert rep.summary_text().rstrip().endswith("overall: FAIL")

    def test_sweep_runs_in_a_few_cache_sized_blocks(self, monkeypatch):
        # the default sweep is 250 measures x 200 t x 20 atoms = 10^6 terms; the
        # equality witness adds one block
        from semistab import measures

        calls = []
        inner = measures._logsumexp

        def counting(a):
            calls.append(a.size)
            return inner(a)

        monkeypatch.setattr(measures, "_logsumexp", counting)
        assert study("section3-bounds").passed
        assert len(calls) <= math.ceil(1_000_000 / measures._CHUNK_ELEMENTS) + 1
        assert max(calls) <= measures._CHUNK_ELEMENTS
        assert sum(calls) == 1_000_000 + 1

    def test_sweep_peak_memory(self):
        # the sweep holds the moments of its M x T (measure, t) pairs and one
        # block of at most _CHUNK_ELEMENTS terms with its temporaries, so over
        # the same measures on a 2-point grid the peak grows by at most the
        # moments' M (T - 2) doubles and 3 doubles a block term.  Measured on
        # numpy 2.4.6: 0.76 MB at T = 2 and 1.31 MB at T = 200, inside
        # 0.76 + 0.40 + 0.39 MB.  Holding every measure's bound along with the
        # moments does not fit
        from semistab import measures

        def peak(**keys):
            tracemalloc.start()
            try:
                study("section3-bounds", **keys)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        study("section3-bounds", n_measures=2, n_shifted=1, n_t=10)
        n_pairs = 100 + 3 * 50
        growth = peak() - peak(n_t=2)
        assert growth <= 8 * n_pairs * (200 - 2) + 3 * 8 * measures._CHUNK_ELEMENTS

    @pytest.mark.parametrize("seed", range(8))
    def test_default_sweep_matches_the_benchmark_reference(self, seed):
        assert_matches_benchmark_reference(study("section3-bounds", seed=seed),
                                           "bounds-sweep", seed)

    def test_position_window_must_clear_every_shift(self):
        with pytest.raises(DomainError):
            study("section3-bounds", position_lo=-1.0, shifts=(0.5, 2.0))


# ---------------------------------------------------------------------------
# artifacts, determinism, spot checks
# ---------------------------------------------------------------------------


class TestReportArtifacts:
    def test_written_file_set_and_summary_shape(self, tmp_path):
        cfg = parse_study_config(bounds_config_text())
        rep = run_study(cfg)
        paths = write_report(rep, tmp_path / "report")
        assert sorted(paths) == [
            "config.echo.ini",
            "equality-witness.csv",
            "section3-bounds.csv",
            "summary.txt",
        ]
        summary = open(paths["summary.txt"], encoding="ascii").read().splitlines()
        assert summary[0] == "study: section3-bounds"
        assert summary[1] == "seed: 7"
        assert any(line.startswith("generated: ") for line in summary)
        assert summary[-1] == "overall: PASS"
        pass_lines = [ln for ln in summary if ln.startswith("PASS ")]
        assert len(pass_lines) == len(rep.verdicts) == 3

    def test_csv_has_one_header_line_and_fixed_columns(self, tmp_path):
        cfg = parse_study_config(bounds_config_text())
        paths = write_report(run_study(cfg), tmp_path / "r")
        lines = open(paths["section3-bounds.csv"], encoding="ascii").read().splitlines()
        assert lines[0] == "family,index,shift,max_violation,worst_t,norm_x,tol,status"
        assert all(len(ln.split(",")) == 8 for ln in lines[1:])
        assert not any(ln.startswith("family") for ln in lines[1:])

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg_path = tmp_path / "bounds.cfg"
        cfg_path.write_text(bounds_config_text(), encoding="ascii")
        first = write_report(run_study(load_study_config(cfg_path)), tmp_path / "a")
        second = write_report(run_study(load_study_config(cfg_path)), tmp_path / "b")
        for name in ("section3-bounds.csv", "equality-witness.csv", "config.echo.ini"):
            assert open(first[name], "rb").read() == open(second[name], "rb").read()

    def test_nan_cells_rejected(self):
        table = ReportTable("t", ("a",), [(float("nan"),)])
        with pytest.raises(InvariantViolation):
            table.to_csv_text()

    def test_comma_cells_and_ragged_rows_rejected(self):
        with pytest.raises(InvariantViolation):
            ReportTable("t", ("a",), [("x,y",)]).to_csv_text()
        with pytest.raises(InvariantViolation):
            ReportTable("t", ("a", "b"), [(1.0,)]).to_csv_text()

    def test_failures_are_tagged_strings_not_nan(self):
        rep = study("section3-bounds", n_measures=4, n_shifted=2, n_t=60, bound_scale=0.5)
        text = rep.table("section3-bounds").to_csv_text()
        assert "violated" in text
        assert "nan" not in text.lower()

    @pytest.mark.parametrize("cell", [
        "x,y", 'x"y', "x\ny", "x\ry", float("nan"), np.float32("nan"), True, np.True_, None,
        1j, b"x",
    ], ids=["comma", "quote", "newline", "carriage-return", "nan", "nan32", "bool", "np-bool",
            "none", "complex", "bytes"])
    def test_cells_outside_the_dialect_rejected(self, cell):
        with pytest.raises(InvariantViolation, match="cannot be a CSV cell"):
            csv_cell(cell)
        with pytest.raises(InvariantViolation, match="cannot be a CSV cell"):
            csv_text(("a", "b"), [(1.0, 2), (cell, 3)])
        with pytest.raises(InvariantViolation, match="cannot be a CSV cell"):
            csv_text(("a", cell), [])

    def test_csv_reader_reads_back_every_cell(self):
        """Floats by their repr, integers by their digits, strings as they are,
        whatever the numeric type, and no quoting that a CSV reader would undo."""
        row = (0.1, -0.0, math.inf, 2.5e-300, np.float64(1 / 3), np.float32(0.1), 7, np.int64(-3),
               "undefined", "exp(t^0.1)", "0.5;4.0", "")
        text = csv_text([f"c{i}" for i in range(len(row))], [row, row[::-1]])
        assert text.endswith("\n") and "\r" not in text
        header, first, last = list(csv.reader(io.StringIO(text)))
        assert header == [f"c{i}" for i in range(len(row))]
        assert first == [repr(0.1), "-0.0", "inf", "2.5e-300", repr(1 / 3),
                         repr(float(np.float32(0.1))), "7", "-3", "undefined", "exp(t^0.1)",
                         "0.5;4.0", ""]
        assert last == first[::-1]
        assert first == [csv_cell(cell) for cell in row]

    def test_ragged_row_names_its_width(self):
        with pytest.raises(InvariantViolation, match="row with 1 cells under 2 columns"):
            csv_text(("a", "b"), [(1.0, 2.0), (1.0,)])
        assert csv_text(("a", "b"), []) == "a,b\n"
        with pytest.raises(InvariantViolation, match="table 'gaps': CSV row with 1 cells"):
            ReportTable("gaps", ("a", "b"), [(1.0,)]).to_csv_text()

    def test_failed_table_leaves_no_report_file(self, tmp_path):
        rep = study("section3-bounds", n_measures=2, n_shifted=1, n_t=20)
        rep.tables.append(ReportTable("bad", ("a",), [(float("nan"),)]))
        with pytest.raises(InvariantViolation):
            write_report(rep, tmp_path / "r")
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("bad_row", [0, 5, 13], ids=["first-block", "second-block",
                                                         "last-block"])
    def test_streamed_writer_leaves_no_file_after_a_refused_cell(self, tmp_path,
                                                                 monkeypatch, bad_row):
        monkeypatch.setattr(errors, "_CSV_BLOCK_ROWS", 5)
        rows = [(i, float(i)) for i in range(14)]
        path = tmp_path / "a" / "t.csv"
        write_csv(path, ("i", "x"), iter(rows))
        assert path.read_text() == csv_text(("i", "x"), rows)
        rows[bad_row] = (bad_row, math.nan)
        with pytest.raises(InvariantViolation, match="cannot be a CSV cell"):
            write_csv(path, ("i", "x"), iter(rows))
        assert not path.exists()
        with pytest.raises(InvariantViolation, match="row with 1 cells under 2 columns"):
            write_csv(path, ("i", "x"), [(0, 1.0)] * 7 + [(1.0,)])
        assert not path.exists()

    def test_streamed_writer_removes_no_link(self, tmp_path):
        # a link, like /dev/stdout, or a device, like /dev/null, is not the
        # writer's to remove
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        link.symlink_to(target)
        with pytest.raises(InvariantViolation, match="cannot be a CSV cell"):
            write_csv(link, ("x",), [(1.0,), (math.nan,)])
        assert link.is_symlink()

    def test_writer_makes_parents_and_writes_lf_ascii(self, tmp_path):
        path = tmp_path / "a" / "b" / "c.txt"
        write_ascii(path, "x\ny\n")
        assert path.read_bytes() == b"x\ny\n"
        with pytest.raises(UnicodeEncodeError):
            write_ascii(tmp_path / "d.txt", "\u00b5")


class TestSpotCheck:
    def test_bounds_cells_reproduce_bitwise(self):
        rep = study("section3-bounds", n_measures=5, n_shifted=3, n_t=60, seed=4)
        checks = spot_check(rep, n_cells=5, seed=1)
        assert len(checks) == 5
        assert all(c.matches for c in checks)

    @pytest.mark.parametrize("chunk", [None, 7 * 20 + 3])
    def test_every_batched_bounds_cell_is_its_batch_of_one(self, monkeypatch, chunk):
        # a 143-term block cuts the sweep inside measures and inside t rows
        if chunk is not None:
            monkeypatch.setattr("semistab.measures._CHUNK_ELEMENTS", chunk)
        rep = study("section3-bounds", n_measures=20, n_shifted=10, n_t=50, seed=6)
        n_numeric = sum(isinstance(cell, float)
                        for tab in rep.tables for row in tab.rows for cell in row)
        checks = spot_check(rep, n_cells=n_numeric)
        assert n_numeric == (20 + 3 * 10) * 5 + 5 and len(checks) == n_numeric
        assert all(c.matches for c in checks)

    def test_approximation_cells_reproduce_bitwise(self):
        rep = small_truncation_report()
        checks = spot_check(rep, n_cells=5, seed=2)
        assert len(checks) == 5
        assert all(c.matches for c in checks)

    def test_exponent_cells_reproduce_bitwise(self):
        rep = study("exponent-table", delta_list=[0.75], gamma_list=[1.0], n_scales=40, n_times=80)
        checks = spot_check(rep, n_cells=5, seed=3)
        assert all(c.matches for c in checks)

    def test_tampered_cell_is_caught(self):
        rep = study("section3-bounds", n_measures=4, n_shifted=2, n_t=60, seed=4)
        tab = rep.table("section3-bounds")
        row = list(tab.rows[2])
        row[3] = row[3] + 1e-9
        tab.rows[2] = tuple(row)
        checks = spot_check(rep, n_cells=len(tab.rows) * 5, seed=0)
        assert any(not c.matches for c in checks)


# One small run per kind, with each table's header and the artifacts it
# writes; the headers were captured before the rows became named columns.
STUDY_CASES = {
    "approximation": (
        lambda: study("approximation", potential=GAUSSIAN, seq_kind="shift", indices=[1, 2, 3],
                      n_probes=2, L=4.0, h=0.2),
        {"approximation": ("index", "metric_d", "lambda_max", "shift_cap",
                           "lhs_1", "rhs_1", "lhs_2", "rhs_2")},
        (),
    ),
    "gap-vs-box": (
        lambda: study("gap-vs-box", potential=square_well(depth=1.0, radius=1.0, nu=2),
                      L_list=[2.0, 3.0], h=0.25),
        {"gap-vs-box": ("L", "lambda_max", "gap")},
        (),
    ),
    "exponent-table": (
        lambda: study("exponent-table", delta_list=[0.75], gamma_list=[1.0], n_scales=40,
                      n_times=60),
        {"exponent-table": ("family", "parameter", "analytic", "d_minus", "d_plus",
                            "decay_liminf", "decay_limsup", "err_d_minus", "err_d_plus",
                            "err_decay_liminf", "err_decay_limsup")},
        (),
    ),
    "gdelta-witness": (
        lambda: study("gdelta-witness", n_t=400),
        {"gdelta-witness": ("scale_base", "exponents", "n_atoms", "classification",
                            "d_minus", "d_plus", "ratio_min", "ratio_max",
                            "log_max_alpha_weighted", "argmax_t", "log_min_beta_weighted",
                            "argmin_t", "alpha_exponent", "beta", "horizon_min",
                            "horizon_max", "n_t", "witness")},
        ("witness.measure",),
    ),
    "section3-bounds": (
        lambda: study("section3-bounds", n_measures=4, n_atoms=5, n_shifted=2, n_t=30, seed=3),
        {"section3-bounds": ("family", "index", "shift", "max_violation", "worst_t",
                             "norm_x", "tol", "status"),
         "equality-witness": ("position", "t_star", "gap", "norm_x", "tol", "status")},
        (),
    ),
}


class TestStudyTables:
    @pytest.mark.parametrize("kind", sorted(STUDY_CASES))
    def test_headers_are_pinned_and_every_cell_reproduces(self, kind):
        call, headers, artifacts = STUDY_CASES[kind]
        rep = call()
        assert rep.kind == kind and rep.passed
        assert {tab.name: tab.header for tab in rep.tables} == headers
        assert tuple(sorted(rep.artifacts)) == artifacts
        n_numeric = sum(isinstance(cell, float)
                        for tab in rep.tables for row in tab.rows for cell in row)
        checks = spot_check(rep, n_cells=n_numeric)
        assert n_numeric > 0 and len(checks) == n_numeric
        assert all(c.matches for c in checks)

    @pytest.mark.parametrize("second", [{"b": 1.0}, {"a": 1.0}, {"b": 1.0, "a": 1.0},
                                        {"a": 1.0, "b": 1.0, "c": 1.0}],
                             ids=["renamed", "missing", "reordered", "extra"])
    def test_rows_must_share_the_first_rows_columns(self, second):
        with pytest.raises(InvariantViolation, match="differ"):
            experiments._report_table("t", [{"a": 0.0, "b": 0.0}, second])

    def test_readme_lists_every_table_column_and_artifact(self):
        """The README "Studies" file table matches the pinned headers and artifacts."""
        readme = open(os.path.join(os.path.dirname(__file__), "..", "README.md"),
                      encoding="utf-8").read()
        documented = {
            (kind, name): tuple(re.findall(r"`([\w<>]+)`", columns))
            for kind, name, columns in re.findall(
                r"^\| `([\w-]+)` \| `([\w-]+\.(?:csv|measure))` \| (.*) \|$",
                readme, flags=re.M)
        }
        expected = {}
        for kind, (_, headers, artifacts) in STUDY_CASES.items():
            for name, header in headers.items():
                # one lhs_<p>, rhs_<p> pair per probe
                columns = [re.sub(r"^([lr]hs)_\d+$", r"\1_<p>", col) for col in header]
                expected[kind, f"{name}.csv"] = tuple(dict.fromkeys(columns))
            expected.update({(kind, name): () for name in artifacts})
        assert documented == expected


# ---------------------------------------------------------------------------
# key tables: study echoes, unknown keys, empty families, README
# ---------------------------------------------------------------------------

# ``study`` prints every key of its kind, defaults included, in table
# order; these echoes were captured from the hand-written per-kind
# functions that the key tables replaced.
WRAPPER_ECHOES = {
    "approximation": (
        lambda: study("approximation", potential=GAUSSIAN, seq_kind="truncation", indices=[1, 2],
                      L=4.0, h=0.2),
        "[study]\nkind = approximation\nseed = 0\n\n"
        "[potential]\nkind = gaussian-well\nnu = 1\na_bound = 1.0\ndepth = 1.0\nwidth = 1.0\n\n"
        "[approximation]\nseq_kind = truncation\nindices = 1, 2\nL = 4.0\nh = 0.2\n"
        "n_probes = 3\nmetric_J = 20\nmetric_tol = 0.001\n",
    ),
    "gap-vs-box": (
        lambda: study("gap-vs-box", potential=square_well(depth=1.0, radius=1.0, a_bound=1.0),
                      L_list=[2, 4], h=0.25),
        "[study]\nkind = gap-vs-box\nseed = 0\n\n"
        "[potential]\nkind = square-well\nnu = 1\na_bound = 1.0\ndepth = 1.0\nradius = 1.0\n\n"
        "[box]\nL_list = 2.0, 4.0\nh = 0.25\n",
    ),
    "exponent-table": (
        lambda: study("exponent-table", delta_list=[0.75], gamma_list=[], n_scales=20, n_times=20),
        "[study]\nkind = exponent-table\nseed = 0\n\n"
        "[exponents]\ndelta_list = 0.75\ngamma_list = \nscale_window = 1e-6, 1e-1\n"
        "time_window = 10.0, 1000000.0\nn_scales = 20\nn_times = 20\nscaling_tol = 0.001\n"
        "decay_tol = 0.05\ntail_fraction = 0.8\n",
    ),
    "gdelta-witness": (
        lambda: study("gdelta-witness"),
        "[study]\nkind = gdelta-witness\nseed = 0\n\n"
        "[lacunary]\nscale_base = 0.5\nexponents = 0.5, 4.0\nn_atoms = 12\n\n"
        "[witness]\nalpha_exponent = 0.7\nbeta_p = 0.1\nbeta_poly_degree = 0\n"
        "horizon = 10.0, 1000000000000.0\nn_t = 4001\nscale_window = 2^-2048, 2^-1\n"
        "n_scales = 240\nd_minus_max = 0.7\nd_plus_min = 3.0\nalpha_min_log = 6.9\n"
        "beta_max_log = -6.9\nexpect_witness = true\n",
    ),
    "gdelta-beta": (
        lambda: study("gdelta-witness", beta_p=0.2, beta_poly_degree=2, n_t=400),
        "[study]\nkind = gdelta-witness\nseed = 0\n\n"
        "[lacunary]\nscale_base = 0.5\nexponents = 0.5, 4.0\nn_atoms = 12\n\n"
        "[witness]\nalpha_exponent = 0.7\nbeta_p = 0.2\nbeta_poly_degree = 2\n"
        "horizon = 10.0, 1000000000000.0\nn_t = 400\nscale_window = 2^-2048, 2^-1\n"
        "n_scales = 240\nd_minus_max = 0.7\nd_plus_min = 3.0\nalpha_min_log = 6.9\n"
        "beta_max_log = -6.9\nexpect_witness = true\n",
    ),
    "section3-bounds": (
        lambda: study("section3-bounds", n_measures=2, n_atoms=3, n_shifted=1, n_t=5,
                      bound_scale=1.0),
        "[study]\nkind = section3-bounds\nseed = 0\n\n"
        "[bounds]\nn_measures = 2\nn_atoms = 3\nposition_lo = -10.0\nposition_hi = 0.0\n"
        "t_window = 0.01, 1000.0\nn_t = 5\nshifts = 0.5, 1.0, 2.0\nn_shifted = 1\n"
        "equality_position = -2.7\n",
    ),
    "section3-hook": (
        lambda: study("section3-bounds", n_measures=2, n_atoms=3, n_shifted=1, n_t=5,
                      bound_scale=0.9),
        "[study]\nkind = section3-bounds\nseed = 0\n\n"
        "[bounds]\nn_measures = 2\nn_atoms = 3\nposition_lo = -10.0\nposition_hi = 0.0\n"
        "t_window = 0.01, 1000.0\nn_t = 5\nshifts = 0.5, 1.0, 2.0\nn_shifted = 1\n"
        "equality_position = -2.7\n\n"
        "[hooks]\nbound_scale = 0.9\n",
    ),
}


class TestKeyTables:
    @pytest.mark.parametrize("name", sorted(WRAPPER_ECHOES))
    def test_wrapper_echo_is_pinned(self, name):
        call, echo = WRAPPER_ECHOES[name]
        assert call().config.echo_text() == echo

    @pytest.mark.parametrize("text, named", [
        ("[study]\nkind = section3-bounds\n\n[bounds]\nn_measure = 1\n", "n_measure"),
        ("[study]\nkind = section3-bounds\n\n[bound]\nn_measures = 1\n", "[bound]"),
        ("[study]\nkind = section3-bounds\nsed = 3\n", "sed"),
        ("[study]\nkind = gdelta-witness\n\n[bounds]\nn_measures = 1\n", "[bounds]"),
    ], ids=["key", "section", "study-key", "other-kinds-section"])
    def test_unknown_keys_and_sections_rejected(self, text, named):
        with pytest.raises(DomainError, match=re.escape(named)):
            run_study(parse_study_config(text))

    def test_unknown_wrapper_keyword_rejected(self):
        with pytest.raises(TypeError, match="n_measure"):
            study("section3-bounds", n_measure=1)
        with pytest.raises(TypeError, match="potential"):
            study("section3-bounds", potential=FREE)

    @pytest.mark.parametrize("kind, keys, message", [
        ("section3-bounds", dict(n_measures=2.7), "[bounds] n_measures must be an integer >= 1, "
                                                  "got '2.7'"),
        ("section3-bounds", dict(seed=1.9), "[study] seed must be an integer >= 0, got '1.9'"),
        ("section3-bounds", dict(seed=-1), "[study] seed must be an integer >= 0, got '-1'"),
        ("section3-bounds", dict(n_t="abc"), "[bounds] n_t must be an integer >= 1, got 'abc'"),
        ("section3-bounds", dict(n_t=None), "[bounds] n_t must be an integer >= 1, got 'None'"),
        ("section3-bounds", dict(seed=None), "[study] seed must be an integer >= 0, got 'None'"),
        ("section3-bounds", dict(bound_scale=None), "[hooks] bound_scale must be a positive "
                                                    "number, got 'None'"),
        ("section3-bounds", dict(position_lo="abc"), "[bounds] position_lo must be a finite "
                                                     "number with |position_lo| <= exp(709), "
                                                     "got 'abc'"),
        ("approximation", dict(potential=GAUSSIAN, seq_kind="truncation", indices=[1, 2.5],
                               L=4.0, h=0.2), "[approximation] indices must be"),
        ("gap-vs-box", dict(potential=FREE, L_list=None, h=0.25), "[box] L_list must be"),
        ("gdelta-witness", dict(expect_witness=None), "[witness] expect_witness must be a "
                                                      "boolean, got 'None'"),
        # keys declare the domain the library enforces, so they fail at planning time
        ("exponent-table", dict(delta_list=[0.75], scale_window=("1e-1", "1e-6")),
         "[exponents] scale_window must be two scale tokens 0 < eps_min < eps_max < 1, "
         "got '1e-1, 1e-6'"),
        ("exponent-table", dict(delta_list=[0.75], scale_window=("1e-6", "1")),
         "[exponents] scale_window must be two scale tokens"),
        ("gdelta-witness", dict(scale_window=("2^-1", "2^-2048")),
         "[witness] scale_window must be two scale tokens"),
        ("gdelta-witness", dict(scale_window=("2^-2048", "2^1")),
         "[witness] scale_window must be two scale tokens"),
        ("exponent-table", dict(delta_list=[0.75], time_window=(10.0, 999.0)),
         "[exponents] time_window must be two times 0 < t_min < t_max, two decades apart, "
         "got '10.0, 999.0'"),
        ("exponent-table", dict(delta_list=[0.75], tail_fraction=1.5),
         "[exponents] tail_fraction must be a number in (0, 1], got '1.5'"),
        ("exponent-table", dict(delta_list=[0.75], n_times=2),
         "[exponents] n_times and tail_fraction must leave the decay fit 2 or more tail "
         "points, got 1 from n_times = 2, tail_fraction = 0.8"),
        ("exponent-table", dict(delta_list=[0.75], n_times=11, tail_fraction=0.05),
         "got 1 from n_times = 11, tail_fraction = 0.05"),
        ("gdelta-witness", dict(beta_p=1.0), "[witness] beta_p must be a number in (0, 1), "
                                             "got '1.0'"),
        ("approximation", dict(potential=GAUSSIAN, seq_kind="truncation", indices="1..2",
                               L=4.0, h=0.2, metric_J=17),
         "[approximation] metric_J must be an integer >= 18, got '17'"),
    ], ids=["float-int", "float-seed", "negative-seed", "unparsed-int", "none-int", "none-seed",
            "none-real", "unparsed-real", "float-index", "none-list", "none-bool",
            "exponents-window-reversed", "exponents-window-to-1", "witness-window-reversed",
            "witness-window-above-1", "time-window-short", "tail-fraction-above-1",
            "tail-window-degenerate", "tail-window-one-step", "beta-p-1", "metric-J-17"])
    def test_wrapper_keyword_meets_the_ini_check(self, kind, keys, message):
        """A keyword is printed unrounded, so it fails exactly as its INI text would."""
        with pytest.raises(DomainError, match=re.escape(message)):
            study(kind, **keys)

    @pytest.mark.parametrize("text, key, value", [
        ("[study]\nkind = exponent-table\n\n[exponents]\ndelta_list = 0.75\n"
         "time_window = 10, 1000\nn_times = 6\ntail_fraction = 0.2\n", "time_window", (10.0, 1e3)),
        ("[study]\nkind = exponent-table\n\n[exponents]\ndelta_list = 0.75\n"
         "tail_fraction = 1\nscale_window = 2^-2048, 0.999\n", "tail_fraction", 1.0),
        ("[study]\nkind = gdelta-witness\n\n[witness]\nhorizon = 10, 1000\nbeta_p = 0.999\n",
         "horizon", (10.0, 1e3)),
    ], ids=["two-decades-two-tail-points", "whole-trace-tail", "two-decade-horizon"])
    def test_domain_edges_plan(self, text, key, value):
        """The edges of each key's domain are inside it, as they are for the library."""
        assert experiments._plan(parse_study_config(text))[key] == value

    def test_wrapper_keyword_text_is_ini_text(self):
        rep = study("approximation", potential=GAUSSIAN, seq_kind="truncation", indices="1..2",
                    L="4", h=0.2, n_probes="2")
        assert "indices = 1..2\nL = 4\nh = 0.2\nn_probes = 2\n" in rep.config.echo_text()

    def test_unknown_study_kind_names_the_valid_kinds(self):
        with pytest.raises(DomainError, match="gap_vs_box.*gap-vs-box, exponent-table"):
            study("gap_vs_box")

    def test_missing_potential_names_the_section(self):
        with pytest.raises(DomainError, match=r"needs a \[potential\] section"):
            study("gap-vs-box", L_list=[2.0, 4.0], h=0.25)

    @pytest.mark.parametrize("bounds", ["n_shifted = 0", "shifts ="])
    def test_empty_shifted_family_gives_a_note_and_no_verdict(self, bounds):
        cfg = parse_study_config(
            f"[study]\nkind = section3-bounds\n\n[bounds]\nn_measures = 3\nn_t = 20\n{bounds}\n"
        )
        rep = run_study(cfg)
        assert [v.name for v in rep.verdicts] == ["plain-bound", "equality-witness"]
        summary = rep.summary_text()
        assert "note: shifted-bound: no shifted instances, so no verdict" in summary
        assert "shifted-bound 0 of 0" not in summary
        assert rep.passed

    def test_readme_key_table_lists_every_key_and_default(self):
        """The README "Studies" key table matches the kind tables exactly."""
        readme = open(os.path.join(os.path.dirname(__file__), "..", "README.md"),
                      encoding="utf-8").read()
        documented = {}
        for kind, section, keys in re.findall(
            r"^\| `([\w-]+)` \| `\[(\w+)\]` \| (.*) \|$", readme, flags=re.M
        ):
            if section == "potential":
                continue
            tokens = [tok.split("=", 1) for tok in re.findall(r"`([^`]+)`", keys)]
            documented.setdefault(kind, {})[section] = {
                tok[0].strip(): tok[1].strip() if len(tok) == 2 else None for tok in tokens
            }
        expected = {
            kind: {
                section: {
                    key: None if spec.default is experiments._REQUIRED else spec.show(spec.default)
                    for key, spec in table.items()
                }
                for section, table in record.sections.items()
            }
            for kind, record in experiments._KINDS.items()
        }
        assert documented == expected

"""Tests for the command-line interface: pinned output lines, exit
codes (0 contracts pass / 1 contract violated / 2 usage or config
error), file artifacts, and byte-identical re-runs through the CLI
path.  Everything runs in-process through main(argv); one subprocess
test covers the python -m wiring.
"""

import contextlib
import csv
import dataclasses
import io
import math
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from semistab import (
    AtomicMeasure,
    discretize,
    evolve_norms,
    gaussian_well,
    lacunary_measure,
    load_measure,
    measure_from_text,
    monomial_profile_measure,
    orbit_to_csv,
    potential_from_text,
    power_law_measure,
    sampled_potential,
    save_measure,
    save_potential,
    spectrum_to_csv,
    square_well,
)
from semistab.cli import main
from semistab.errors import DomainError, InvariantViolation, PreconditionError, ResourceCapError
from semistab.experiments import _plan, parse_study_config
from test_acceptance import STUDY_CONFIGS


@pytest.fixture()
def two_atom_file(tmp_path):
    path = tmp_path / "two-atom.measure"
    save_measure(AtomicMeasure.from_points([-1.0, -2.0], [0.5, 0.5]), path)
    return str(path)


@pytest.fixture()
def profile_file(tmp_path):
    path = tmp_path / "profile-075.measure"
    save_measure(monomial_profile_measure(0.75), path)
    return str(path)


def write_bounds_config(path, bound_scale=None, output_dir=None):
    lines = ["[study]", "kind = section3-bounds", "seed = 7"]
    if output_dir is not None:
        lines.append(f"output_dir = {output_dir}")
    lines += ["", "[bounds]", "n_measures = 6", "n_atoms = 8", "n_shifted = 3", "n_t = 80"]
    if bound_scale is not None:
        lines += ["", "[hooks]", f"bound_scale = {bound_scale}"]
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    return str(path)


class TestClassify:
    def test_two_atom_measure_prints_unit_gap_verdict(self, two_atom_file, capsys):
        rc = main(["classify", two_atom_file])
        out = capsys.readouterr().out
        assert rc == 0
        assert "ExponentiallyStable gap=1 rate=1" in out
        assert out.count("\n") == 1

    def test_lacunary_measure_is_stable_not_exponential(self, tmp_path, capsys):
        path = tmp_path / "lacunary.measure"
        save_measure(lacunary_measure(0.5, (0.5, 4.0), 12), path)
        rc = main(["classify", str(path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.startswith("StableNotExponential ")
        assert "rate=" not in out

    def test_gap_tol_flag_changes_the_call(self, two_atom_file, capsys):
        rc = main(["classify", two_atom_file, "--gap-tol", "2.0"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.startswith("StableNotExponential ")
        assert "gap_tol=2" in out



class TestStdoutTables:
    """Every stdout table is the CSV dialect of the files: a CSV reader finds one
    header and one row of the same width, even where the path has spaces."""

    @pytest.mark.parametrize("command", ["exponents", "evolve", "spectrum"])
    def test_stdout_table_reads_as_one_csv_row(self, tmp_path, capsys, profile_file, command):
        out = tmp_path / "dir with spaces;and (marks)" / "out.csv"
        pot = tmp_path / "well.potential"
        save_potential(gaussian_well(depth=1.0, width=1.0, nu=1, a_bound=1.0), pot)
        argv = {
            "exponents": ["measure", "exponents", profile_file, "--window", "1e-6,0.1"],
            "evolve": ["evolve", profile_file, "--tmin", "0.1", "--tmax", "10", "--nt", "3",
                       "--out", str(out)],
            "spectrum": ["operator", "spectrum", str(pot), "--L", "2", "--h", "0.25",
                         "--out", str(out)],
        }[command]
        assert main(argv) == 0
        stdout = capsys.readouterr().out
        header, row = list(csv.reader(io.StringIO(stdout)))
        assert len(row) == len(header) == {"exponents": 5, "evolve": 4, "spectrum": 3}[command]
        assert stdout == ",".join(header) + "\n" + ",".join(row) + "\n"
        if command != "exponents":
            assert row[0] == str(out) and out.is_file()


class TestUnprintableOutPath:
    """An --out that cannot be a CSV cell exits 2 before any solve, writing nothing."""

    @pytest.mark.parametrize("name", ["x,y.csv", "x\ny.csv", 'x"y.csv', "x\ry.csv"],
                             ids=["comma", "newline", "quote", "carriage-return"])
    @pytest.mark.parametrize("command", ["evolve", "spectrum"])
    def test_out_path_that_breaks_the_row_exits_two(self, tmp_path, capsys, monkeypatch,
                                                    two_atom_file, command, name):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the output path was checked")

        monkeypatch.setattr("semistab.cli.evolve_norms", no_solve)
        monkeypatch.setattr("semistab.cli.discretize", no_solve)
        pot = tmp_path / "well.potential"
        save_potential(gaussian_well(depth=1.0, width=1.0, nu=1, a_bound=1.0), pot)
        out_dir = tmp_path / "out"
        argv = {"evolve": ["evolve", two_atom_file, "--tmin", "0.1", "--tmax", "10", "--nt", "3"],
                "spectrum": ["operator", "spectrum", str(pot), "--L", "2", "--h", "0.25"]}[command]
        rc = main(argv + ["--out", str(out_dir / name)])
        captured = capsys.readouterr()
        assert rc == 2
        assert "cannot be a CSV cell" in captured.err
        assert captured.out == ""
        assert not out_dir.exists()

    def test_unprintable_default_directory_exits_two(self, tmp_path, capsys, monkeypatch,
                                                     two_atom_file):
        monkeypatch.setenv("SEMISTAB_OUTDIR", str(tmp_path / "a,b"))
        rc = main(["evolve", two_atom_file, "--tmin", "0.1", "--tmax", "10", "--nt", "3"])
        assert rc == 2
        assert "cannot be a CSV cell" in capsys.readouterr().err
        assert not (tmp_path / "a,b").exists()


class TestMeasureExponents:
    def test_profile_exponents_near_closed_form(self, profile_file, capsys):
        rc = main(["measure", "exponents", profile_file, "--window", "1e-6,0.1"])
        out = capsys.readouterr().out.splitlines()
        assert rc == 0
        assert out[0] == "d_minus,d_plus,n_scales,log_eps_min,log_eps_max"
        d_minus, d_plus = (float(tok) for tok in out[1].split(",")[:2])
        assert abs(d_minus - 2.5) <= 1e-3
        assert abs(d_plus - 2.5) <= 1e-3

    def test_power_tokens_reach_log_domain_scales(self, tmp_path, capsys):
        path = tmp_path / "lacunary.measure"
        save_measure(lacunary_measure(0.5, (0.5, 4.0), 12), path)
        rc = main(
            ["measure", "exponents", str(path), "--window", "2^-2048,2^-1", "--scales", "240"]
        )
        out = capsys.readouterr().out.splitlines()
        assert rc == 0
        d_minus, d_plus = (float(tok) for tok in out[1].split(",")[:2])
        assert d_minus <= 0.7
        assert d_plus >= 3.0

    def test_malformed_window_is_a_usage_error(self, profile_file, capsys):
        rc = main(["measure", "exponents", profile_file, "--window", "0.1"])
        captured = capsys.readouterr()
        assert rc == 2
        assert "error" in captured.err
        assert captured.out == ""


class TestEvolve:
    def test_writes_the_orbit_trace_csv(self, two_atom_file, tmp_path, capsys):
        out_csv = str(tmp_path / "orbit.csv")
        rc = main(
            ["evolve", two_atom_file, "--tmin", "0.1", "--tmax", "100", "--nt", "50",
             "--out", out_csv]
        )
        stdout = capsys.readouterr().out.splitlines()
        assert rc == 0
        assert stdout[0] == "orbit_csv,n_t,t_min,t_max"
        assert stdout[1].split(",")[1] == "50"
        mu = load_measure(two_atom_file)
        expected = tmp_path / "expected.csv"
        orbit_to_csv(evolve_norms(mu, 0.1, 100.0, 50), expected)
        assert open(out_csv, "rb").read() == open(expected, "rb").read()

    def test_default_output_honors_environment_dir(self, two_atom_file, tmp_path,
                                                   monkeypatch, capsys):
        monkeypatch.setenv("SEMISTAB_OUTDIR", str(tmp_path / "envdir"))
        rc = main(["evolve", two_atom_file, "--tmin", "0.1", "--tmax", "10", "--nt", "5"])
        capsys.readouterr()
        assert rc == 0
        assert (tmp_path / "envdir" / "orbit.csv").exists()

    def test_density_orbit_far_below_double_range(self, tmp_path, capsys):
        # power law gamma = 2: ln ||e^{tA}x||^2 = ln 2 + ln Gamma(2) P(2, 2t) / (2t)^2,
        # -1382.24 at t = 1e300, where the linear-space integral underflows
        path = tmp_path / "power-law-2.measure"
        save_measure(power_law_measure(2.0), path)
        out_csv = tmp_path / "orbit.csv"
        rc = main(["evolve", str(path), "--tmin", "1", "--tmax", "1e300", "--nt", "31",
                   "--out", str(out_csv)])
        capsys.readouterr()
        assert rc == 0
        rows = list(csv.reader(out_csv.open(encoding="ascii")))[1:]
        assert len(rows) == 31
        t, log_norm_sq = float(rows[-1][0]), float(rows[-1][1])
        assert t == 1e300
        assert log_norm_sq == pytest.approx(math.log(2.0) - 2.0 * math.log(2e300), rel=1e-15)

    def test_bad_grid_is_a_usage_error(self, two_atom_file, capsys):
        rc = main(["evolve", two_atom_file, "--tmin", "10", "--tmax", "1", "--nt", "5"])
        assert rc == 2
        assert "error" in capsys.readouterr().err


class TestOperatorSpectrum:
    def test_writes_the_spectrum_csv(self, tmp_path, capsys):
        pot = tmp_path / "well.potential"
        save_potential(gaussian_well(depth=1.0, width=1.0, nu=1, a_bound=1.0), pot)
        out_csv = str(tmp_path / "spec.csv")
        rc = main(["operator", "spectrum", str(pot), "--L", "8", "--h", "0.1",
                   "--out", out_csv])
        stdout = capsys.readouterr().out.splitlines()
        assert rc == 0
        assert stdout[0] == "spectrum_csv,n_eigenvalues,lambda_max"
        assert stdout[1].split(",")[1] == "159"
        H = discretize(gaussian_well(depth=1.0, width=1.0, nu=1, a_bound=1.0), 8.0, 0.1)
        expected = tmp_path / "expected.csv"
        spectrum_to_csv(H, expected)
        assert open(out_csv, "rb").read() == open(expected, "rb").read()

    def test_2d_stdout_reads_the_written_spectrum(self, tmp_path, capsys, monkeypatch):
        built = []

        def recording_discretize(*args, **kwargs):
            built.append(discretize(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr("semistab.cli.discretize", recording_discretize)
        pot = tmp_path / "well.potential"
        save_potential(gaussian_well(depth=1.0, width=1.0, nu=2, a_bound=1.0), pot)
        out_csv = tmp_path / "spec.csv"
        rc = main(["operator", "spectrum", str(pot), "--L", "2", "--h", "0.25",
                   "--out", str(out_csv)])
        assert rc == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert row[2] == out_csv.read_text().splitlines()[1].split(",")[1]
        # one values-only solve: no eigenvectors, no top-eigenpair or resolvent solve
        assert "eigenvalues" in built[0].__dict__
        assert "_eig" not in built[0].__dict__
        assert "lambda_max" not in built[0].__dict__
        assert "_resolvent_solver" not in built[0].__dict__

    @pytest.mark.parametrize("V, L, h, N", [
        (gaussian_well(depth=1.0, width=1.0, nu=1, a_bound=1.0), 18.0, 0.01, 3599),  # the 1-D cap
        # a sampled 2-D V that is not swap-symmetric: the solve reads all of H, unfolded
        (sampled_potential(-np.linspace(0.0, 1.0, 25) ** 2, -2.0, 2.0, nu=2), 3.0, 0.2, 841),
    ], ids=["nu1-cap", "nu2-sampled-unfolded"])
    def test_spectrum_paths_outside_the_benchmark(self, tmp_path, capsys, monkeypatch,
                                                  V, L, h, N):
        built = []

        def recording_discretize(*args, **kwargs):
            built.append(discretize(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr("semistab.cli.discretize", recording_discretize)
        pot = tmp_path / "well.potential"
        save_potential(V, pot)
        out_csv = tmp_path / "spec.csv"
        rc = main(["operator", "spectrum", str(pot), "--L", str(L), "--h", str(h),
                   "--out", str(out_csv)])
        assert rc == 0
        assert int(capsys.readouterr().out.splitlines()[1].split(",")[1]) == N
        assert len(out_csv.read_text().splitlines()) == N + 1
        assert not built[0]._swap_symmetric and "_band" in built[0].__dict__

    def test_failed_decomposition_leaves_existing_output(self, tmp_path, capsys, monkeypatch):
        def lifted_discretize(*args, **kwargs):
            # H + 100 I has positive eigenvalues, so the eigenpair check raises
            op = discretize(*args, **kwargs)
            return dataclasses.replace(op, v_diag=op.v_diag + 100.0)

        monkeypatch.setattr("semistab.cli.discretize", lifted_discretize)
        pot = tmp_path / "well.potential"
        save_potential(gaussian_well(depth=1.0, width=1.0, nu=2, a_bound=1.0), pot)
        out_csv = tmp_path / "spec.csv"
        out_csv.write_text("index,eigenvalue\n0,-1.0\n", encoding="ascii")
        rc = main(["operator", "spectrum", str(pot), "--L", "2", "--h", "0.25",
                   "--out", str(out_csv)])
        assert rc == 1
        assert "positive eigenvalue" in capsys.readouterr().err
        assert out_csv.read_text(encoding="ascii") == "index,eigenvalue\n0,-1.0\n"

    def test_resource_cap_is_a_config_error(self, tmp_path, capsys):
        pot = tmp_path / "well.potential"
        save_potential(gaussian_well(depth=1.0, width=1.0, nu=2, a_bound=1.0), pot)
        rc = main(["operator", "spectrum", str(pot), "--L", "16", "--h", "0.05"])
        assert rc == 2
        assert "error" in capsys.readouterr().err


class TestStudy:
    def test_bounds_study_passes_with_exit_zero(self, tmp_path, capsys):
        cfg = write_bounds_config(tmp_path / "section3-bounds.cfg")
        out_dir = str(tmp_path / "report")
        rc = main(["study", cfg, "--out", out_dir])
        captured = capsys.readouterr()
        assert rc == 0
        assert "overall: PASS" in captured.out
        assert captured.out.count("PASS ") >= 3
        assert "report written to" in captured.err
        assert os.path.exists(os.path.join(out_dir, "section3-bounds.csv"))
        assert os.path.exists(os.path.join(out_dir, "summary.txt"))

    def test_tightened_bound_hook_fails_with_exit_one(self, tmp_path, capsys):
        cfg = write_bounds_config(tmp_path / "section3-bounds.cfg", bound_scale=0.9)
        rc = main(["study", cfg, "--out", str(tmp_path / "report")])
        captured = capsys.readouterr()
        assert rc == 1
        assert "overall: FAIL" in captured.out

    def test_jobs_flag_keeps_artifacts_byte_identical(self, tmp_path, capsys):
        cfg = write_bounds_config(tmp_path / "section3-bounds.cfg")
        rc1 = main(["study", cfg, "--out", str(tmp_path / "serial"), "--jobs", "1"])
        rc2 = main(["study", cfg, "--out", str(tmp_path / "threaded"), "--jobs", "4"])
        capsys.readouterr()
        assert rc1 == rc2 == 0
        for name in ("section3-bounds.csv", "equality-witness.csv", "config.echo.ini"):
            serial = open(tmp_path / "serial" / name, "rb").read()
            threaded = open(tmp_path / "threaded" / name, "rb").read()
            assert serial == threaded

    def test_gdelta_study_emits_the_witness_measure(self, tmp_path, capsys):
        cfg = tmp_path / "witness.cfg"
        cfg.write_text("[study]\nkind = gdelta-witness\nseed = 1\n", encoding="ascii")
        out_dir = tmp_path / "report"
        rc = main(["study", str(cfg), "--out", str(out_dir)])
        captured = capsys.readouterr()
        assert rc == 0
        assert "witness: oscillation witness established" in captured.out
        mu = load_measure(out_dir / "witness.measure")
        assert mu.n_atoms == 12

    def test_output_dir_falls_back_to_environment(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SEMISTAB_OUTDIR", str(tmp_path / "envreport"))
        monkeypatch.chdir(tmp_path)
        cfg = write_bounds_config(tmp_path / "section3-bounds.cfg")
        rc = main(["study", cfg])
        capsys.readouterr()
        assert rc == 0
        assert (tmp_path / "envreport" / "summary.txt").exists()

    def test_exponent_table_at_a_high_edge_power_passes(self, tmp_path, capsys):
        # gamma = 9 puts u^8 in the transform's integrand, which the
        # endpoint-weighted rule refused (exit 1)
        cfg = tmp_path / "gamma9.cfg"
        cfg.write_text("[study]\nkind = exponent-table\n\n[exponents]\ngamma_list = 9\n",
                       encoding="ascii")
        rc = main(["study", str(cfg), "--out", str(tmp_path / "report")])
        assert rc == 0
        assert capsys.readouterr().out.endswith("overall: PASS\n")

    def test_unknown_study_kind_is_a_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[study]\nkind = frobnicate\n", encoding="ascii")
        rc = main(["study", str(cfg)])
        assert rc == 2
        assert "error" in capsys.readouterr().err


BOUNDS_HEAD = "[study]\nkind = section3-bounds\nseed = 7\n\n"
WELL_STUDY = (
    "[study]\nkind = gap-vs-box\n\n[box]\nL_list = 2, 4\nh = 0.25\n\n"
    "[potential]\nkind = square-well\na_bound = 1\nradius = 1\n"
)
WELL = "potential kind=square-well nu=1 a_bound=1.0\ndepth=1.0\nradius=1.0\n"


class TestInputErrors:
    """Bad input files and configs exit 2 with a one-line error, never a traceback."""

    @pytest.mark.parametrize("command, name, content, named", [
        ("study", "typo.cfg", BOUNDS_HEAD + "[bounds]\nn_measure = 1\n", "n_measure"),
        ("study", "typo.cfg", BOUNDS_HEAD + "[bound]\nn_measures = 1\n", "[bound]"),
        ("study", "latin1.cfg", BOUNDS_HEAD.encode() + b"# caf\xe9\n", "ASCII"),
        ("study", "depth.cfg", WELL_STUDY + "depth = abc\n", "depth"),
        ("study", "radus.cfg", WELL_STUDY.replace("radius", "radus") + "depth = 1\n", "radus"),
        ("operator", "radus.potential",
         "potential kind=square-well nu=1 a_bound=1.0\ndepth=1.0\nradus=1.0\n", "radus"),
        ("operator", "latin1.potential",
         b"potential kind=square-well nu=1 a_bound=1.0\ndepth=1.0\nradius=1.0 # \xb5\n", "ASCII"),
        ("classify", "latin1.measure", b"atomic n=1\n\xff\n", "ASCII"),
        ("classify", "no-n.measure", "atomic coords=log\n0.0 0.0\n", "n="),
        ("classify", "n-x.measure", "atomic n=x\n0.0 0.0\n", "'x'"),
        ("classify", "atom-x.measure", "atomic n=1\n0.0 abc\n", "'abc'"),
        ("classify", "no-gamma.measure", "density kind=power-law support=0.0,1.0\n", "gamma="),
        ("classify", "no-n-line.measure", "density kind=sampled-density support=0.0,1.0\n",
         "n= line"),
        ("classify", "no-support.measure", "density kind=uniform\nheight=1.0\n", "support="),
        ("operator --L nan", "well.potential", WELL, "L=nan"),
        ("operator --L inf", "well.potential", WELL, "L=inf"),
        ("operator --L 1e308 --h 1", "well.potential", WELL, "L=1e+308"),
        ("operator --h nan", "well.potential", WELL, "h=nan"),
        ("operator --h 1e-320", "well.potential", WELL, "h=1e-320"),
        # 1/h^2 overflows: H's main diagonal is -inf, where the solves gave nan or
        # SuperLU's "Factor is exactly singular" traceback
        ("operator --L 1e-160 --h 1e-161", "gauss.potential",
         "potential kind=gaussian-well nu=1 a_bound=1.0\ndepth=1.0\nwidth=1.0\n",
         "h=1e-161 is too small"),
        ("study", "tiny-approx.cfg",
         "[study]\nkind = approximation\n\n[potential]\nkind = gaussian-well\nnu = 1\n"
         "a_bound = 1.0\ndepth = 1.0\nwidth = 1.0\n\n[approximation]\nseq_kind = truncation\n"
         "indices = 1..3\nL = 1e-159\nh = 1e-160\n", "h=1e-160 is too small"),
        ("study", "tiny-box.cfg",
         "[study]\nkind = gap-vs-box\n\n[potential]\nkind = square-well\nnu = 2\n"
         "a_bound = 1.0\ndepth = 1.0\nradius = 1e-161\n\n[box]\nL_list = 2e-159, 4e-159\n"
         "h = 2.5e-160\n", "h=2.5e-160 is too small"),
        ("study", "huge-box.cfg", WELL_STUDY.replace("2, 4", "2, 1e308") + "depth = 1\n",
         "L=1e+308"),
        # no sampling could find this well; its declared range breaks a_bound
        ("study", "narrow-well.cfg", WELL_STUDY.replace("radius = 1", "radius = 1e-20")
         .replace("2, 4\nh = 0.25", "3, 9\nh = 0.4") + "depth = 5\n",
         "square-well potential: potential must be >= -a_bound everywhere"),
        # 10^7 times deeper than its bound: the slack is a few ulp of a_bound, not 1e-12
        ("operator", "too-deep.potential",
         "potential kind=constant nu=1 a_bound=1e-20 value=-1e-13\n",
         "constant potential: potential must be >= -a_bound everywhere"),
        ("study --jobs 0", "bounds.cfg", BOUNDS_HEAD, "--jobs"),
        ("operator", "nu-twice.potential",
         "potential kind=gaussian-well nu=1 a_bound=1.0 nu=2\ndepth=1.0\nwidth=1.0\n", "nu="),
        ("operator", "width-twice.potential",
         "potential kind=gaussian-well nu=1 a_bound=1.0\ndepth=1.0\nwidth=1.0\nwidth=2.0\n",
         "width="),
        ("classify", "gamma-twice.measure",
         "density kind=power-law support=0.0,1.0\ngamma=0.5\ngamma=2\n", "gamma="),
        ("classify", "foo.measure", "density kind=power-law support=0.0,1.0\ngamma=0.5\nfoo=3\n",
         "foo"),
        ("classify", "support.measure", "density kind=power-law support=5,9 mass=7\ngamma=0.5\n",
         "support=5,9"),
        ("classify", "mass.measure", "density kind=power-law support=0.0,1.0 mass=7\ngamma=0.5\n",
         "mass=7"),
        ("classify", "atomic-mass.measure", "atomic n=1 mass=2.0\n0.0 0.0\n", "mass=2.0"),
        ("study", "t-zero.cfg", BOUNDS_HEAD + "[bounds]\nt_window = 0, 1000\n",
         "[bounds] t_window must be two times 0 < t_min < t_max, got '0, 1000'"),
        ("study", "t-reversed.cfg", BOUNDS_HEAD + "[bounds]\nt_window = 1000, 0.01\n",
         "[bounds] t_window must be two times 0 < t_min < t_max, got '1000, 0.01'"),
        ("study", "t-subnormal.cfg", BOUNDS_HEAD + "[bounds]\nt_window = 1e-320, 1e-300\n",
         "[bounds] t_window starts at 1e-320, where the bound ||x|| e^(-ta)/(e t) is not finite"),
        # keys declare the domain AtomicMeasure and the witness time 1/|position| need
        ("study", "lo-huge.cfg", BOUNDS_HEAD + "[bounds]\nposition_lo = -1e308\n",
         "[bounds] position_lo must be a finite number with |position_lo| <= exp(709), "
         "got '-1e308'"),
        ("study", "eq-tiny.cfg", BOUNDS_HEAD + "[bounds]\nequality_position = -1e-320\n",
         "[bounds] equality_position must be a negative number with |equality_position| <= "
         "exp(709) and 1/|equality_position| finite, got '-1e-320'"),
        ("study", "eq-huge.cfg", BOUNDS_HEAD + "[bounds]\nequality_position = -1e308\n",
         "[bounds] equality_position must be"),
        # an infinite tolerance would call the gapped measure StableNotExponential
        ("classify --gap-tol inf", "gap.measure", "atomic n=1\n0.0 0.0\n", "positive and finite"),
        ("classify --atom-tol inf", "gap.measure", "atomic n=1\n0.0 0.0\n", "positive and finite"),
    ], ids=["unknown-key", "unknown-section", "non-ascii-study", "non-numeric-potential-param",
            "misspelled-potential-param", "misspelled-potential-file", "non-ascii-potential",
            "non-ascii-measure", "atomic-without-n", "non-numeric-n", "non-numeric-atom",
            "power-law-without-gamma", "sampled-without-n-line", "uniform-without-support",
            "L-nan", "L-inf", "L-overflow", "h-nan", "h-subnormal", "stencil-overflow-1d",
            "study-stencil-overflow-1d", "study-stencil-overflow-2d", "study-L-overflow",
            "study-narrow-well", "potential-below-tiny-a-bound",
            "jobs-zero", "repeated-potential-nu", "repeated-potential-param",
            "repeated-measure-param", "unknown-measure-param", "stated-support-mismatch",
            "stated-mass-mismatch", "stated-atomic-mass-mismatch", "t-window-from-zero",
            "t-window-reversed", "t-window-subnormal", "position-lo-above-exp-709",
            "equality-position-subnormal", "equality-position-above-exp-709", "gap-tol-inf",
            "atom-tol-inf"])
    def test_bad_input_exits_two(self, tmp_path, capsys, command, name, content, named):
        path = tmp_path / name
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content, encoding="ascii")
        command, *extra = command.split()
        argv = {
            "study": ["study", str(path), "--out", str(tmp_path / "report")],
            "operator": ["operator", "spectrum", str(path), "--L", "4", "--h", "0.5",
                         "--out", str(tmp_path / "spec.csv")],
            "classify": ["classify", str(path)],
        }[command]
        rc = main(argv + extra)  # a repeated option overrides the default one
        captured = capsys.readouterr()
        assert rc == 2
        assert "Traceback" not in captured.err
        assert captured.err.startswith("error: ")
        assert named in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("content, named", [
        ("density kind=power-law\ngamma=1e308\n", "total mass must be finite"),
        ("density kind=uniform support=0,1e308\nheight=1e308\n", "did not converge"),
        ("density kind=sampled-density\nn=2\n0.0 1e308\n1.0 1e308\n", "finite total mass"),
        ("density kind=sampled-density\nn=2\n0.0 1.0\n1e-320 2.0\n", "finite and nonnegative"),
        ("density kind=power-law\ngamma=1e-17\n", "gamma=1e-17 is too small"),
        ("density kind=power-law\ngamma=1e-12\n", "gamma=1e-12 is too small"),
    ], ids=["power-law-huge-gamma", "uniform-huge-mass", "sampled-huge-values",
            "sampled-subnormal-grid", "power-law-tiny-gamma", "power-law-rounded-edge-power"])
    @pytest.mark.parametrize("command", ["classify", "evolve", "exponents"])
    def test_measure_the_family_refuses_exits_two(self, tmp_path, capsys, content, named,
                                                   command):
        # the family's build refuses these parameters (it exited 1 as a contract
        # violation); read from a file they are bad input
        path = tmp_path / "bad.measure"
        path.write_text(content, encoding="ascii")
        argv = {"classify": ["classify", str(path)],
                "evolve": ["evolve", str(path), "--tmin", "0.1", "--tmax", "10", "--nt", "5",
                           "--out", str(tmp_path / "orbit.csv")],
                "exponents": ["measure", "exponents", str(path), "--window", "1e-6,0.1"]}[command]
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("error: ") and named in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("key, value", [
        ("position_lo", "-8e307"),
        ("equality_position", "-1e-308"),
        ("equality_position", "-8e307"),
    ], ids=["position-lo-below-exp-709", "equality-position-normal",
            "equality-position-below-exp-709"])
    def test_bounds_keys_inside_their_domain_run(self, tmp_path, capsys, key, value):
        # the key is accepted and the study runs to its verdicts, and they pass
        path = tmp_path / "bounds.cfg"
        cfg = f"{BOUNDS_HEAD}[bounds]\nn_measures = 3\nn_shifted = 2\n{key} = {value}\n"
        path.write_text(cfg, encoding="ascii")
        rc = main(["study", str(path), "--out", str(tmp_path / "report")])
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.err == f"report written to {tmp_path / 'report'}\n"
        assert (tmp_path / "report" / "summary.txt").exists()

    @pytest.mark.parametrize("target, argv", [
        ("evolve_norms", ["evolve", "{measure}", "--tmin", "1", "--tmax", "2", "--nt", "10"]),
        ("scaling_exponents", ["measure", "exponents", "{measure}", "--window", "1e-3,1e-1"]),
        ("run_study", ["study", "{config}", "--out", "{out}"]),
    ])
    def test_out_of_memory_exits_two(self, tmp_path, capsys, monkeypatch, two_atom_file,
                                     target, argv):
        # a real oversize request (say --nt 10^12) fails only where memory runs out
        def oversize(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.28 TiB for an array")

        monkeypatch.setattr(f"semistab.cli.{target}", oversize)
        config = tmp_path / "bounds.cfg"
        config.write_text(BOUNDS_HEAD, encoding="ascii")
        rc = main([arg.format(measure=two_atom_file, config=config, out=tmp_path / "r")
                   for arg in argv])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("error: not enough memory: Unable to allocate")
        assert "Traceback" not in captured.err


# Valid descriptors that the fuzz tests mutate: tokens and lines are
# dropped, values and whole tokens are replaced by junk.
_MEASURE_SEEDS = [
    "atomic n=2 coords=log\n0.0 -0.7\n0.5 -0.7\n",
    "density kind=power-law support=0.0,1.0\ngamma=2.0\n",
    "density kind=monomial-profile support=0.0,1.0\ndelta=0.75\n",
    "density kind=uniform support=1.0,3.0\nheight=0.5\n",
    "density kind=sampled-density support=0.0,1.0\nn=3\n0.0 0.0\n0.5 1.0\n1.0 0.5\n",
]
_BASE = "base.kind=square-well\nbase.nu=1\nbase.a_bound=1.0\nbase.depth=1.0\nbase.radius=1.0\n"
_POTENTIAL_SEEDS = [
    "potential kind=constant nu=1 a_bound=1.0\nvalue=-0.5\n",
    "potential kind=square-well nu=1 a_bound=1.0\ndepth=1.0\nradius=1.0\n",
    "potential kind=gaussian-well nu=2 a_bound=1.0\ndepth=1.0\nwidth=1.0\n",
    "potential kind=sampled nu=1 a_bound=1.0\ngrid_lo=-1.0\ngrid_hi=1.0\nvalues=-1,0,-0.5\n",
    "potential kind=sampled nu=2 a_bound=1.0\ngrid_lo=-1.0\ngrid_hi=1.0\nn=2\n"
    "values=-1,0,0,-1\n",
    "potential kind=truncated nu=1 a_bound=1.0\nk=2\n" + _BASE,
    "potential kind=shifted nu=1 a_bound=1.0\nl=1\na=1.0\n" + _BASE,
]
_JUNK = ["", "x", "nan", "inf", "-inf", "-1", "0", "1.5", "2", "3", "1e400", "1e-400",
         "0,1", "1,0", "a,b", "=", "n=", "kind=bogus", "0 0", "1 2 3"]


@hst.composite
def _mutated(draw, seeds):
    lines = [line.split() for line in draw(hst.sampled_from(seeds)).splitlines()]
    for _ in range(draw(hst.integers(1, 3))):
        i = draw(hst.integers(0, len(lines) - 1))
        j = draw(hst.integers(0, max(len(lines[i]) - 1, 0)))
        junk = draw(hst.sampled_from(_JUNK) | hst.text("0123456789.e-=,x ", max_size=5))
        op = draw(hst.sampled_from(["drop-token", "drop-line", "value", "token"]))
        if op == "drop-line" and len(lines) > 1:
            del lines[i]
        elif op == "drop-token" and lines[i]:
            del lines[i][j]
        elif op == "value" and lines[i]:
            key, eq, _ = lines[i][j].partition("=")
            lines[i][j] = key + eq + junk
        else:
            lines[i][j:j + 1] = [junk]
    return "\n".join(" ".join(line) for line in lines) + "\n"


_STUDY_JUNK = ["nan", "inf", "-1", "0", "1e308", "abc", "", "1..0", "2^-4000"]


@hst.composite
def _mutated_study(draw):
    lines = draw(hst.sampled_from(sorted(STUDY_CONFIGS.values()))).strip().splitlines()
    for _ in range(draw(hst.integers(1, 3))):
        i = draw(hst.integers(0, len(lines) - 1))
        key, eq, _ = lines[i].partition("=")
        if eq and draw(hst.booleans()):
            lines[i] = f"{key.strip()} = {draw(hst.sampled_from(_STUDY_JUNK))}"
        elif len(lines) > 1:
            del lines[i]
    return "\n".join(lines) + "\n"


class TestParserFuzz:
    """Malformed text raises DomainError or InvariantViolation, never a bare error."""

    @staticmethod
    def _check(parse, text):
        try:
            parse(text)
        except Exception as exc:  # noqa: BLE001 -- the class is what is asserted
            # exact classes: DomainError subclasses ValueError, so isinstance
            # against ValueError would let a bare ValueError through
            assert type(exc) in (DomainError, PreconditionError, InvariantViolation), (
                f"{type(exc).__name__}: {exc} on {text!r}")

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(_mutated(_MEASURE_SEEDS))
    def test_measure_from_text(self, text):
        self._check(measure_from_text, text)

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(_mutated(_POTENTIAL_SEEDS))
    def test_potential_from_text(self, text):
        self._check(potential_from_text, text)

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(_mutated_study())
    def test_study_config_plan(self, text):
        # a study config is input: every rejection must be a usage-class error
        try:
            _plan(parse_study_config(text))
        except Exception as exc:  # noqa: BLE001 -- the class is what is asserted
            assert type(exc) in (DomainError, PreconditionError, ResourceCapError), (
                f"{type(exc).__name__}: {exc} on {text!r}")


# Whole small studies for the run fuzz: each key is left out (its default) or
# given one of its regular values or, one time in 6, an extreme token; a list
# key's extreme value is a list of 1 to 3 tokens, extreme or regular.  The
# regular L and h keep every grid at N <= 400 (2-D: L = 2, h = 0.2 gives
# 19 x 19 points); the extreme ones are refused before any grid is built.
_EXTREME = ["0", "-0.0", "1e300", "-1e300", "1e-300", "-1e-300", "1e-160", "nan", "inf", "-inf"]
_POTENTIALS = {"square-well": ("depth", "radius"), "gaussian-well": ("depth", "width"),
               "exp-well": ("depth", "width"), "constant": ("value",)}
# each kind's sections: key -> (regular values, whether it is a list, whether it is always
# given); n_measures and n_shifted are always given, so no study holds more than 3 measures
_FUZZ_KEYS = {
    "approximation": {"approximation": {
        "seq_kind": (["truncation", "shift"], False, True),
        "indices": (["1..3", "1, 2", "2..4"], False, True),
        "L": (["1", "2", "1.5"], False, True),
        "h": (["0.25", "0.2", "0.5"], False, True),
        "n_probes": (["1", "2", "3"], False, False),
        "metric_J": (["18", "20"], False, False),
        "metric_tol": (["1e-3", "0.5"], False, False)}},
    "gap-vs-box": {"box": {"L_list": (["1, 2", "1, 1.5, 2", "1.5, 2"], True, True),
                           "h": (["0.25", "0.2", "0.5"], False, True)}},
    "exponent-table": {"exponents": {
        "scale_window": (["1e-6, 1e-1", "2^-40, 0.5"], True, False),
        "time_window": (["10, 1e3", "1, 1e6"], True, False),
        "n_scales": (["2", "20"], False, False),
        "n_times": (["10", "40", "2"], False, True),
        "scaling_tol": (["1e-3", "0.5"], False, False),
        "tail_fraction": (["0.8", "0.05", "1"], False, False)}},
    "gdelta-witness": {
        "lacunary": {"scale_base": (["0.5", "0.25"], False, False),
                     "exponents": (["0.5, 4", "2"], True, False),
                     "n_atoms": (["3", "6", "12"], False, False)},
        "witness": {"alpha_exponent": (["0.7", "2"], False, False),
                    "beta_p": (["0.1", "0.5"], False, False),
                    "horizon": (["10, 1e4", "10, 1e12"], True, False),
                    "n_t": (["2", "50", "400"], False, True),
                    "scale_window": (["2^-2048, 2^-1", "1e-6, 0.5"], True, False),
                    "n_scales": (["2", "40"], False, False),
                    "expect_witness": (["true", "false"], False, False)}},
    "section3-bounds": {
        "bounds": {"n_measures": (["1", "2", "3"], False, True),
                   "n_atoms": (["1", "8", "20"], False, False),
                   "position_lo": (["-10", "-1"], False, False),
                   "position_hi": (["0", "-0.5"], False, False),
                   "t_window": (["1e-2, 1e3", "1, 10"], True, False),
                   "n_t": (["1", "20", "80"], False, False),
                   "shifts": (["0.5, 1, 2", "0", "2"], True, False),
                   "n_shifted": (["0", "1", "3"], False, True),
                   "equality_position": (["-2.7", "-1"], False, False)},
        "hooks": {"bound_scale": (["1", "0.5"], False, False)}},
}


@hst.composite
def _study_run(draw):
    """A small study config of any kind, as INI text."""
    kind = draw(hst.sampled_from(sorted(_FUZZ_KEYS)))

    def value(regular, is_list=False):
        if draw(hst.integers(0, 5)) < 5:  # hypothesis shrinks toward 0: the regular values
            return draw(hst.sampled_from(regular))
        if not is_list:
            return draw(hst.sampled_from(_EXTREME))
        atoms = _EXTREME + [tok.strip() for val in regular for tok in val.split(",")]
        return ", ".join(draw(hst.lists(hst.sampled_from(atoms), min_size=1, max_size=3)))

    lines = ["[study]", f"kind = {kind}", f"seed = {draw(hst.sampled_from(['0', '7']))}"]
    if kind in ("approximation", "gap-vs-box"):
        potential = draw(hst.sampled_from(sorted(_POTENTIALS)))
        lines += ["", "[potential]", f"kind = {potential}",
                  f"nu = {draw(hst.sampled_from(['1', '2']))}", f"a_bound = {value(['1', '2'])}"]
        lines += [f"{key} = {value(['0', '-0.5'] if key == 'value' else ['1', '0.5'])}"
                  for key in _POTENTIALS[potential]]
    extra = []
    if kind == "exponent-table":  # the two families hold 0 to 3 measures between them
        n_measures = draw(hst.sampled_from([1, 2, 3, 0]))
        n_delta = draw(hst.integers(0, n_measures))
        counts = {"delta_list": (["0.6", "0.75", "0.9"], n_delta),
                  "gamma_list": (["0.5", "1", "2"], n_measures - n_delta)}
        extra = [f"{key} = {', '.join(value(regular) for _ in range(n))}"
                 for key, (regular, n) in counts.items() if n]
    for section, keys in _FUZZ_KEYS[kind].items():
        lines += ["", f"[{section}]"] + (extra if section == "exponents" else [])
        for key, (regular, is_list, always) in keys.items():
            if always or draw(hst.booleans()):
                lines.append(f"{key} = {value(regular, is_list)}")
    return "\n".join(lines) + "\n"


class TestWholeRunFuzz:
    """Small studies of every kind run through ``main`` to their end: the exit code is
    0, 1 or 2, no exception escapes, and exit 1 comes only with a failed verdict
    or a contract violation."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_study_run())
    # a power law whose mass is not finite: a contract violation, exit 1
    @example("[study]\nkind = exponent-table\n\n[exponents]\ngamma_list = 1e300\nn_times = 10\n")
    # a well narrower than 1e-154 once warned of an overflow in (r / width)^2
    @example("[study]\nkind = approximation\n\n[potential]\nkind = gaussian-well\na_bound = 1\n"
             "depth = 1\nwidth = 1e-300\n\n[approximation]\nseq_kind = truncation\n"
             "indices = 1..3\nL = 1\nh = 0.25\n")
    def test_study_runs_end_in_an_exit_code(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            config = os.path.join(tmp, "study.ini")
            with open(config, "w", encoding="ascii") as fh:
                fh.write(text)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    rc = main(["study", config, "--out", os.path.join(tmp, "report")])
                except BaseException as exc:  # noqa: BLE001 -- nothing may escape main
                    raise AssertionError(f"{type(exc).__name__}: {exc} on\n{text}") from exc
        stdout, stderr = out.getvalue(), err.getvalue()
        assert rc in (0, 1, 2), (rc, text)
        if rc == 1:
            assert ("\nFAIL " in "\n" + stdout
                    or "contract violation: " in stderr), (stdout, stderr, text)


class TestUsageErrors:
    def test_unknown_flag_prints_usage_on_stderr(self, two_atom_file, capsys):
        rc = main(["classify", two_atom_file, "--frobnicate"])
        captured = capsys.readouterr()
        assert rc == 2
        assert "usage:" in captured.err
        assert captured.out == ""

    def test_unknown_subcommand(self, capsys):
        rc = main(["transmogrify"])
        captured = capsys.readouterr()
        assert rc == 2
        assert "usage:" in captured.err

    def test_no_arguments(self, capsys):
        rc = main([])
        captured = capsys.readouterr()
        assert rc == 2
        assert "usage:" in captured.err

    def test_missing_file_is_a_usage_error(self, capsys):
        rc = main(["classify", "/nonexistent/nowhere.measure"])
        captured = capsys.readouterr()
        assert rc == 2
        assert "error" in captured.err

    def test_help_exits_zero(self, capsys):
        rc = main(["--help"])
        captured = capsys.readouterr()
        assert rc == 0
        assert "usage:" in captured.out


def _src_env():
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def _run_python(*args, **kwargs):
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=_src_env(), **kwargs)


class TestFrozenProcess:
    """The CLI freezes the heap its imports built (gc.freeze), so exit does not
    collect it; the library import leaves the collector as it found it."""

    def test_library_import_leaves_gc_alone(self):
        proc = _run_python("-c", "import gc, semistab; "
                                 "print(gc.isenabled(), gc.get_freeze_count())")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "True 0\n"

    def test_cli_import_freezes_the_import_heap(self):
        proc = _run_python("-c", "import gc, semistab.cli; "
                                 "print(gc.isenabled(), gc.get_freeze_count() > 0)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "True True\n"

    @pytest.mark.parametrize("bound_scale, code, verdict", [
        (None, 0, "overall: PASS"),
        (0.5, 1, "overall: FAIL"),
    ], ids=["default-passes", "false-bound-fails"])
    def test_study_exit_code_and_piped_stdout(self, tmp_path, bound_scale, code, verdict):
        # stdout is a pipe, so it is block-buffered: the verdict line arrives only
        # if the frozen process still flushes its streams at exit
        text = "[study]\nkind = section3-bounds\n"
        if bound_scale is not None:
            text += f"\n[hooks]\nbound_scale = {bound_scale}\n"
        cfg = tmp_path / "bounds.ini"
        cfg.write_text(text, encoding="ascii")
        proc = _run_python("-m", "semistab", "study", str(cfg), "--out", str(tmp_path / "r"))
        assert proc.returncode == code, proc.stderr
        assert proc.stdout.splitlines()[-1] == verdict

    def test_spectrum_writes_every_line(self, tmp_path):
        pot = tmp_path / "well.potential"
        save_potential(square_well(depth=1.0, radius=1.0, nu=2, a_bound=1.0), pot)
        out = tmp_path / "spectrum.csv"
        proc = _run_python("-m", "semistab", "operator", "spectrum", str(pot),
                           "--L", "2", "--h", "0.25", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        n = 15 ** 2  # 2 L / h - 1 = 15 interior points per side
        assert proc.stdout.splitlines()[1].split(",")[1] == str(n)
        assert len(out.read_text(encoding="ascii").splitlines()) == n + 1


class TestModuleEntryPoint:
    def test_python_dash_m_classify(self, two_atom_file):
        proc = subprocess.run(
            [sys.executable, "-m", "semistab", "classify", two_atom_file],
            capture_output=True,
            text=True,
            env=_src_env(),
        )
        assert proc.returncode == 0
        assert "ExponentiallyStable gap=1 rate=1" in proc.stdout

    def test_cold_import_leaves_out_scipy_integrate(self):
        # only density quadrature uses it, and it is the slowest import behind
        # the package; a top-level import would tax every start
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, semistab, semistab.cli; print('scipy.integrate' in sys.modules)"],
            capture_output=True,
            text=True,
            env=_src_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_benchmark_paths_leave_out_scipy_integrate(self, tmp_path):
        # the section3-bounds, approximation and spectrum workloads, and the
        # gdelta witness, build no density, so they never load the quadrature
        script = (
            "import sys\n"
            "from semistab import gaussian_well, save_potential, square_well, study\n"
            "from semistab.cli import main\n"
            "study('section3-bounds')\n"
            "study('approximation', potential=gaussian_well(a_bound=1.0), seq_kind='truncation',"
            " indices=[1, 2], L=4.0, h=0.1, n_probes=1)\n"
            "study('gdelta-witness')\n"
            "save_potential(square_well(nu=2), sys.argv[1] + '/well.potential')\n"
            "assert main(['operator', 'spectrum', sys.argv[1] + '/well.potential', '--L', '2',"
            " '--h', '0.25', '--out', sys.argv[1] + '/spectrum.csv']) == 0\n"
            "print('scipy.integrate' in sys.modules)\n"
        )
        proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                              capture_output=True, text=True, env=_src_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False"

    def test_cold_import_leaves_out_scipy_special(self):
        # the atomic Laplace kernel's logsumexp is a local numpy copy
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, semistab, semistab.cli; print('scipy.special' in sys.modules)"],
            capture_output=True,
            text=True,
            env=_src_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_python_dash_m_study_names_the_short_horizon(self, tmp_path):
        cfg = tmp_path / "witness.cfg"
        cfg.write_text("[study]\nkind = gdelta-witness\n\n[witness]\nhorizon = 10, 500\n",
                       encoding="ascii")
        proc = subprocess.run(
            [sys.executable, "-m", "semistab", "study", str(cfg), "--out", str(tmp_path / "r")],
            capture_output=True,
            text=True,
            env=_src_env(),
        )
        assert proc.returncode == 2
        assert proc.stderr == ("error: [witness] horizon must be two times 0 < t_min < t_max, "
                               "two decades apart, got '10, 500'\n")
        assert proc.stdout == ""


_SOLVER_MODULES = ("scipy.sparse", "scipy.linalg", "scipy.sparse.linalg", "scipy.special",
                   "scipy.integrate")


def _loaded(script):
    """The _SOLVER_MODULES that a fresh process has loaded after ``script``."""
    proc = _run_python("-c", script + "\nimport sys\n"
                       f"print(*[m for m in {_SOLVER_MODULES!r} if m in sys.modules])")
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1].split()


class TestScipyLoadsAtItsSolve:
    """``import semistab`` is numpy-only.  The CLI preloads LAPACK's cython_lapack
    extension, loaded from its file, so neither it nor the 1-D and banded solves
    that call LAPACK through it load scipy.linalg's Python layer; scipy.linalg and
    scipy.sparse load only at a 2-D top eigenpair or resolvent."""

    #: numpy's lazy submodules that scipy.linalg's array-API layer would load
    NUMPY_EXTRAS = ("numpy.ma", "numpy.f2py", "numpy.testing")

    def test_library_import_loads_no_solver(self):
        assert _loaded("import semistab") == []

    def test_bounds_study_loads_no_solver(self):
        assert _loaded("import semistab\nsemistab.study('section3-bounds')") == []

    def test_cli_import_loads_no_scipy_linalg_and_no_numpy_extras(self):
        proc = _run_python("-c", "import sys, semistab.cli\n"
                                 f"print([m for m in {self.NUMPY_EXTRAS!r} if m in sys.modules])")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"
        assert _loaded("import semistab.cli") == []

    def test_benchmark_commands_import_nothing_after_cli_import(self, tmp_path):
        # an import inside a command would count in its run time: a 1-D
        # approximation study (top eigenpairs, tridiagonal LU and solves) and a
        # 2-D spectrum (the two swap sectors' dsbevd on two threads and the
        # inertia counts' dsysv) call LAPACK through the preloaded extension, and
        # the default section3-bounds study's scan (no np.unique or np.isin, which
        # load numpy.ma) loads nothing either
        pot, out = str(tmp_path / "well.potential"), str(tmp_path / "spectrum.csv")
        save_potential(square_well(depth=1.0, radius=1.0, nu=2, a_bound=1.0), pot)
        config = tmp_path / "approx.ini"
        config.write_text("[study]\nkind = approximation\n\n[potential]\nkind = gaussian-well\n"
                          "nu = 1\na_bound = 1.0\ndepth = 1.0\nwidth = 1.0\n\n[approximation]\n"
                          "seq_kind = truncation\nindices = 1..12\nL = 20\nh = 0.05\n"
                          "n_probes = 3\n", encoding="ascii")
        bounds = tmp_path / "bounds.ini"
        bounds.write_text("[study]\nkind = section3-bounds\n", encoding="ascii")
        report = str(tmp_path / "report")
        script = ("import sys\n"
                  "from semistab.cli import main\n"
                  "before = set(sys.modules)\n"
                  f"assert main(['study', {str(config)!r}, '--out', {report!r}]) == 0\n"
                  f"assert main(['operator', 'spectrum', {pot!r}, '--L', '2', '--h', '0.25',"
                  f" '--out', {out!r}]) == 0\n"
                  f"assert main(['study', {str(bounds)!r}, '--out', {report + '-bounds'!r}])"
                  " == 0\n"
                  "print(sorted(set(sys.modules) - before))\n")
        proc = _run_python("-c", script)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"

    def test_scipy_linalg_imported_later_gets_the_same_cython_lapack(self, tmp_path):
        # the extension's own sys.modules entry is dropped after its load, so a
        # later import of scipy.linalg attaches it as its submodule
        pot = str(tmp_path / "well.potential")
        save_potential(square_well(nu=2), pot)
        script = ("import sys\n"
                  "from semistab import operators\n"
                  "from semistab.cli import main\n"
                  f"assert main(['operator', 'spectrum', {pot!r}, '--L', '2', '--h', '0.25',"
                  f" '--out', {str(tmp_path / 'spectrum.csv')!r}]) == 0\n"
                  "assert 'scipy.linalg.cython_lapack' not in sys.modules\n"
                  "import scipy.linalg, scipy.sparse.linalg\n"
                  "print(scipy.linalg.cython_lapack is operators._cython_lapack(),"
                  " sys.modules['scipy.linalg.cython_lapack'] is operators._cython_lapack())\n")
        proc = _run_python("-c", script)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "True True"

    def test_scipy_linalg_imported_first_lends_its_cython_lapack(self):
        # with scipy.linalg loaded, the extension is its submodule, never a second copy
        proc = _run_python("-c", "import sys, scipy.linalg\n"
                                 "from semistab import operators\n"
                                 "print(operators._cython_lapack()"
                                 " is sys.modules['scipy.linalg.cython_lapack'])")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "True\n"

    def test_cli_preload_is_frozen(self):
        # a module imported after gc.freeze() is torn down by the collector at exit again
        proc = _run_python("-c", "import gc, numpy.random, semistab.cli\n"
                                 "from semistab import operators\n"
                                 "heap = gc.get_objects()\n"
                                 "for d in (operators._cython_lapack().__dict__,"
                                 " numpy.random.__dict__):\n"
                                 "    print(gc.is_tracked(d), any(o is d for o in heap))")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "True False\nTrue False\n"

    @pytest.mark.parametrize("solve, reads_H", [
        ("assert abs(op.lambda_max - np.linalg.eigvalsh(dense)[-1]) < 1e-10", True),
        ("r = resolvent_apply(op, u)\n"
         "assert np.linalg.norm(1j * r - dense @ r - u) < 1e-10 * np.linalg.norm(u)", False),
    ], ids=["lambda_max", "resolvent"])
    def test_2d_solves_load_arpack_and_superlu_at_first_call(self, solve, reads_H):
        # the 2-D top eigenpair reads H's CSR copy, built at that call; the 2-D
        # resolvent factors a CSC copy of iI - H, filled from H's stencil
        script = (
            "import sys\n"
            "import numpy as np\n"
            "from semistab import discretize, resolvent_apply, square_well\n"
            "op = discretize(square_well(nu=2), 2.0, 0.25)\n"
            "dense = op.apply(np.eye(op.N))\n"
            "u = np.linspace(-1.0, 1.0, op.N)\n"
            "assert 'scipy.sparse' not in sys.modules and 'H' not in op.__dict__\n"
            f"{solve}\n"
            f"assert ('H' in op.__dict__) == {reads_H}\n"
        )
        assert _loaded(script) == ["scipy.sparse", "scipy.linalg", "scipy.sparse.linalg"]

"""Tests for the command-line interface: pinned output lines, exit
codes (0 contracts pass / 1 contract violated / 2 usage or config
error), file artifacts, and byte-identical re-runs through the CLI
path.  Everything runs in-process through main(argv); one subprocess
test covers the python -m wiring.
"""

import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from scipy import sparse

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
    sampled_potential,
    save_measure,
    save_potential,
    spectrum_to_csv,
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
            lift = sparse.diags_array(np.full(op.N, 100.0))
            return dataclasses.replace(op, H=(op.H + lift).tocsr())

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
        ("study", "huge-box.cfg", WELL_STUDY.replace("2, 4", "2, 1e308") + "depth = 1\n",
         "L=1e+308"),
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
    ], ids=["unknown-key", "unknown-section", "non-ascii-study", "non-numeric-potential-param",
            "misspelled-potential-param", "misspelled-potential-file", "non-ascii-potential",
            "non-ascii-measure", "atomic-without-n", "non-numeric-n", "non-numeric-atom",
            "power-law-without-gamma", "sampled-without-n-line", "uniform-without-support",
            "L-nan", "L-inf", "L-overflow", "h-nan", "h-subnormal", "study-L-overflow",
            "jobs-zero", "repeated-potential-nu", "repeated-potential-param",
            "repeated-measure-param", "unknown-measure-param", "stated-support-mismatch",
            "stated-mass-mismatch", "stated-atomic-mass-mismatch", "t-window-from-zero",
            "t-window-reversed", "t-window-subnormal"])
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

"""Tests of the benchmark itself: tracer wiring, output checks, BENCHMARK.json.

Run from the repository root: python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from run import END_TO_END, ROOT, Runner, child_env, per_layer_units, summarize  # noqa: E402
from workloads import WORKLOADS, compare_csv  # noqa: E402

SMALL_STUDIES = {
    "bounds.ini": "[study]\nkind = section3-bounds\nseed = 4\n\n[bounds]\n"
                  "n_measures = 4\nn_shifted = 2\nn_t = 15\n",
    "approx.ini": "[study]\nkind = approximation\nseed = 4\n\n[potential]\n"
                  "kind = gaussian-well\nnu = 1\na_bound = 1.0\ndepth = 1.0\nwidth = 1.0\n\n"
                  "[approximation]\nseq_kind = truncation\nindices = 1..3\nL = 5\nh = 0.1\n"
                  "n_probes = 1\nmetric_tol = 1.0\n",
    "exponents.ini": "[study]\nkind = exponent-table\nseed = 4\n\n[exponents]\n"
                     "delta_list = 0.6\ngamma_list = 1\nn_times = 40\n",
}


def _run_child(tmp: Path, argv: list, trace: bool) -> dict:
    runner = Runner(child_env(), time.monotonic() + 120.0)
    times = tmp / "times.json"
    res = runner.spawn([str(BENCH_DIR / "child.py"), str(times), "1" if trace else "0",
                        "--", *argv], tmp / "log")
    assert res["returncode"] == 0, res["stderr"]
    res["times"] = json.loads(times.read_text())
    return res


def test_reported_names_are_wrapped_at_every_import_site():
    script = (
        "import semistab, semistab.cli\n"
        "from tracer import Tracer, traced_names, REPORTED\n"
        "names = traced_names()\n"
        "missing = [n for n in REPORTED if n not in names]\n"
        "assert not missing, missing\n"
        "Tracer().install()\n"
        "import semistab.experiments as ex, semistab.cli as cli, semistab.operators as op\n"
        "for fn in (ex.discretize, ex.range_bound_check, ex.evolve_norms, cli.run_study,\n"
        "           cli.discretize, cli.spectrum_to_csv, cli.load_study_config, op.discretize,\n"
        "           semistab.discretize, semistab.AtomicMeasure.log_laplace_moment,\n"
        "           semistab.DensityMeasure.log_laplace, cli.main):\n"
        "    assert hasattr(fn, '__wrapped__'), fn\n"
    )
    env = child_env()
    env["PYTHONPATH"] = f"{ROOT / 'src'}:{BENCH_DIR}"
    proc = subprocess.run([sys.executable, "-c", script], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("config", sorted(SMALL_STUDIES))
def test_traced_study_writes_the_same_csvs(tmp_path, config):
    (tmp_path / config).write_text(SMALL_STUDIES[config])
    outs = {}
    for trace in (False, True):
        out = tmp_path / f"out{int(trace)}"
        res = _run_child(tmp_path, ["study", str(tmp_path / config), "--out", str(out)], trace)
        outs[trace] = {p.name: p.read_bytes() for p in out.glob("*.csv")}
        if trace:
            summary = res["times"]["trace"]
    assert outs[False] and outs[False] == outs[True]
    assert summary["cli.main"]["calls"] == 1
    assert summary["experiments.run_study"]["calls"] == 1
    if config == "bounds.ini":
        # 4 plain + 3 shift levels x 2 measures, 15 t each, plus the equality witness
        assert summary["measures.AtomicMeasure.log_laplace_moment"]["t_points"] == 10 * 15 + 1
        assert "operators.discretize" not in summary
    if config == "approx.ini":
        assert summary["operators.discretize"]["calls"] == 4
    if config == "exponents.ini":
        assert summary["semigroup.evolve_norms"]["calls"] == 2
        assert summary["measures.DensityMeasure.log_laplace"]["t_points"] == 2 * 40


def test_traced_spectrum_writes_the_same_csv(tmp_path):
    pot = tmp_path / "well.potential"
    pot.write_text("potential kind=square-well nu=2 a_bound=1.0\ndepth=1.0\nradius=1.0\n")
    data = {}
    for trace in (False, True):
        out = tmp_path / f"spectrum{int(trace)}.csv"
        res = _run_child(tmp_path, ["operator", "spectrum", str(pot), "--L", "2", "--h", "0.25",
                                    "--out", str(out)], trace)
        data[trace] = out.read_bytes()
    assert data[False] == data[True]
    assert res["times"]["trace"]["operators.spectrum_to_csv"]["calls"] == 1


def test_output_check_tolerates_rounding_and_catches_changes(tmp_path):
    ref = WORKLOADS["approx-1d"].ref_dir(0) / "approximation.csv"
    rows = [line.split(",") for line in ref.read_text().splitlines()]

    def check(row, col, value):
        changed = [list(r) for r in rows]
        changed[row][col] = value
        got = tmp_path / "approximation.csv"
        got.write_text("\n".join(",".join(r) for r in changed) + "\n")
        return compare_csv(got, ref, WORKLOADS["approx-1d"].skip_prefixes)

    lam = float(rows[2][2])
    assert check(2, 2, repr(lam * (1 + 1e-12))) == []
    assert check(2, 2, repr(lam * (1 + 1e-4))) != []
    assert check(2, 0, "x") != []
    assert check(5, rows[0].index("lhs_1"), "1e-70") == []  # checked by its verdict
    assert check(5, rows[0].index("rhs_1"), "0.5") != []


def test_summarize_reports_tail_only_with_ten_samples_beyond():
    assert summarize([1.0] * 10)["tail_pct"] is None
    stats = summarize([float(i) for i in range(1, 21)])
    assert (stats["median"], stats["tail_pct"], stats["tail"], stats["n"]) == (10.5, 50, 10.0, 20)
    assert summarize([1.0, 2.0, 6.0])["mean"] == 3.0


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == \
        [(w.name, w.why) for w in WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer_units()
    assert spec["paths"] == [BENCH_DIR.name]

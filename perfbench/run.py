"""End-to-end and per-layer benchmark for the semistab CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all            # every workload, one table

Each timed run is a fresh ``python child.py ... -- <semistab argv>``
process, the equivalent of ``python -m semistab <argv>`` (see child.py),
with ``PYTHONPATH=src`` and BLAS/OpenMP threads pinned.  Runs follow one
another in a closed loop (one client) until ``--seconds`` have passed,
counted from the first set-up probe; the loop stops early rather than
run more than half a run past that.

``--trace 0`` reports the end-to-end metrics:

* ``wall_s``: process spawn to exit, measured by this process;
* ``setup_s``: process spawn until ``import semistab`` completes, over the
  CLI runs and ``SETUP_PROBES`` import-only processes;
* ``run_s``: time inside ``semistab.cli.main(argv)``;
* ``peak_rss_mb``: the child's peak resident memory (``wait4`` rusage).

``setup_s`` is the median of its samples; the other three are the mean over
the run's CLI runs, i.e. the closed loop's cost per solution.  A shared host
moves between fast and slow phases lasting tens of seconds, so the few
long CLI runs of one benchmark run often fall in both; their median then
jumps between the phases while their mean does not.  The report also
prints each median, the highest percentile with ten samples beyond it, and
the sample count.

``--trace 1`` alternates untraced and traced runs and reports the
per-layer metrics: ``<module>.<function>.{calls,self_s,errors}`` (plus
``t_points`` / ``bytes`` where recorded) from the tracer in tracer.py,
``import.<module>.cum_s`` from one ``python -X importtime`` run, and
``trace.overhead_frac`` (median traced over untraced ``wall_s``, minus 1)
and ``trace.coverage_frac`` (the summed ``self_s`` of the reported
functions over ``run_s``, in the traced runs: the share of the run the
per-layer metrics explain).

Every run's outputs are checked against the stored reference (see
workloads.py); a failed run counts in ``failed`` and as an infinite time
in every timing statistic.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  A full record
(all samples, failures and the environment) goes to
``.perfbench/results/<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".perfbench"
sys.path.insert(0, str(BENCH_DIR))

from tracer import REPORTED  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Two BLAS threads did not speed up spectrum-2d's dense eigh on a 2-core host,
# and one thread keeps runs from contending with each other for cores.
BLAS_THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
RUN_DEADLINE_S = 170.0  # a run must end well inside the 180 s limit
SETUP_PROBES = 6  # import-only processes per run, so setup_s has enough samples

END_TO_END = {"wall_s": "s", "setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}
IMPORT_MODULES = ("semistab", "semistab.errors", "semistab.measures", "semistab.operators",
                  "semistab.semigroup", "semistab.experiments", "semistab.cli")


def per_layer_units() -> dict:
    units = {}
    for name, extras in REPORTED.items():
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        units[f"{name}.errors"] = "count"
        for stat in extras:
            units[f"{name}.{stat}"] = "B" if stat == "bytes" else "count"
    for module in IMPORT_MODULES:
        units[f"import.{module}.cum_s"] = "s"
    units["trace.overhead_frac"] = "ratio"
    units["trace.coverage_frac"] = "ratio"
    return units


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("PYTHON", "SEMISTAB_"))}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    env.update({var: threads for var in THREAD_VARS})
    return env


def environment_record(env: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas_threads": {var: env[var] for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "git_commit": git_commit(ROOT),
        "platform": platform.platform(),
    }


def git_commit(root: Path):
    """The checked-out commit, read from .git without running git; None if absent."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Runner:
    """Spawns child processes and measures them from outside."""

    def __init__(self, env: dict, deadline: float):
        self.env = env
        self.deadline = deadline

    def spawn(self, args: list, log_dir: Path) -> dict:
        log_dir.mkdir(parents=True, exist_ok=True)
        out_path, err_path = log_dir / "stdout.txt", log_dir / "stderr.txt"
        timeout = max(1.0, self.deadline - time.monotonic())
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.monotonic()
            proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            end = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {
            "start": start,
            "wall_s": end - start,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "returncode": proc.returncode,
            "stdout": out_path.read_text(encoding="utf-8", errors="replace"),
            "stderr": err_path.read_text(encoding="utf-8", errors="replace"),
        }

    def child(self, work: Path, argv: list, trace: bool):
        """Run child.py; return the spawn result and its timings (None if it wrote none)."""
        times_path = work / "times.json"
        times_path.unlink(missing_ok=True)
        res = self.spawn([str(BENCH_DIR / "child.py"), str(times_path), "1" if trace else "0",
                          "--", *argv], work / "log")
        try:
            times = json.loads(times_path.read_text(encoding="ascii"))
        except (OSError, ValueError):
            return res, None
        expected = (ROOT / "src").resolve()
        if expected not in Path(times["semistab_file"]).resolve().parents:
            raise SystemExit(f"error: child imported semistab from {times['semistab_file']}, "
                             f"not from {expected}")
        return res, times

    def setup_probe(self, work: Path) -> float:
        """Spawn a process that only imports semistab; return its setup_s."""
        res, times = self.child(work, [], trace=False)
        if res["returncode"] != 0 or times is None:
            raise SystemExit(f"error: importing semistab failed:\n{res['stderr']}")
        return times["imported_at"] - res["start"]

    def cli_run(self, workload, seed: int, work: Path, argv: list, trace: bool) -> dict:
        """One timed CLI run plus its output check."""
        shutil.rmtree(work / "out", ignore_errors=True)
        res, times = self.child(work, argv, trace)
        try:
            problems = workload.check(work, seed, res["returncode"], res["stdout"])
        except (OSError, ValueError) as exc:  # missing, or not ASCII
            problems = [f"unreadable output: {exc}"]
        if times is None:
            problems.append("child wrote no timings")
        res["problems"] = problems
        res["setup_s"] = times["imported_at"] - res["start"] if times else math.inf
        res["run_s"] = times["run_s"] if times else math.inf
        res["trace"] = times["trace"] if times else None
        if problems:
            for key in END_TO_END:
                res[key] = math.inf
        return res


def summarize(values: list) -> dict:
    """Median, mean, the highest percentile with >= 10 samples beyond it, and the count."""
    ordered = sorted(values)
    n = len(ordered)
    stats = {"median": statistics.median(ordered), "mean": statistics.fmean(ordered), "n": n,
             "tail_pct": None, "tail": None}
    if n >= 11:
        pct = math.floor(100.0 * (1.0 - 10.0 / n))
        stats["tail_pct"] = pct
        stats["tail"] = ordered[max(0, math.ceil(pct / 100.0 * n) - 1)]
    return stats


def import_breakdown(runner: Runner, work: Path) -> dict:
    res = runner.spawn(["-X", "importtime", "-c", "import semistab, semistab.cli"],
                       work / "importtime")
    cum = {}
    for line in res["stderr"].splitlines():
        parts = line.split("|")
        if len(parts) == 3 and line.startswith("import time:"):
            try:
                cum[parts[2].strip()] = int(parts[1]) * 1e-6
            except ValueError:
                continue
    if res["returncode"] != 0:
        raise SystemExit(f"error: importing semistab failed:\n{res['stderr']}")
    return {f"import.{m}.cum_s": cum.get(m, 0.0) for m in IMPORT_MODULES}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    started = time.monotonic()
    env = child_env()
    runner = Runner(env, started + RUN_DEADLINE_S)
    work = WORK_DIR / "work" / name
    shutil.rmtree(work, ignore_errors=True)
    argv = workload.write_inputs(work, seed)

    t0 = time.monotonic()  # the measured time includes the set-up probes
    runner.setup_probe(work)  # warm-up: byte-compiles sources, fills the page cache
    setups = [runner.setup_probe(work) for _ in range(SETUP_PROBES)]
    imports = import_breakdown(runner, work) if trace else {}

    runs, traced = [], []
    modes = (False, True) if trace else (False,)
    loop_start = time.monotonic()
    while True:
        # alternate which of a traced/untraced pair goes first, so drift cancels
        for mode in modes if len(runs) % 2 == 0 else modes[::-1]:
            (traced if mode else runs).append(runner.cli_run(workload, seed, work, argv, mode))
        now = time.monotonic()
        per_round = (now - loop_start) / len(runs)
        # stop once another round would end more than half a round past the deadline
        if now - t0 + per_round / 2 >= seconds:
            break

    every = runs + traced
    failures = [{"run": i, "problems": r["problems"], "stderr": r["stderr"][-2000:]}
                for i, r in enumerate(every) if r["problems"]]
    samples = {key: [r[key] for r in runs] for key in END_TO_END}
    samples["setup_s"] = setups + samples["setup_s"]
    stats = {key: summarize(values) for key, values in samples.items()}
    if trace:
        metrics = layer_metrics(traced, runs, imports)
        units = per_layer_units()
    else:
        metrics = {key: stats[key]["median" if key == "setup_s" else "mean"] for key in END_TO_END}
        units = END_TO_END
    return {
        "workload": name,
        "why": workload.why,
        "seed": seed,
        "variant": workload.variant(seed),
        "seconds": seconds,
        "trace": int(trace),
        "argv": argv,
        "attempted": len(every),
        "failed": len(failures),
        "failed_frac": len(failures) / len(every),
        "failures": failures,
        "stats": stats,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "samples": samples,
        "environment": environment_record(env),
    }


def layer_metrics(traced: list, untraced: list, imports: dict) -> dict:
    summaries = [r["trace"] or {} for r in traced]
    metrics = dict(imports)
    for name, extras in REPORTED.items():
        per_run = [s.get(name, {}) for s in summaries]
        metrics[f"{name}.calls"] = max(p.get("calls", 0) for p in per_run)
        metrics[f"{name}.self_s"] = statistics.median(p.get("self_s", 0.0) for p in per_run)
        metrics[f"{name}.errors"] = max(p.get("errors", 0) for p in per_run)
        for stat in extras:
            metrics[f"{name}.{stat}"] = max(p.get(stat, 0) for p in per_run)
    wall_traced = statistics.median(r["wall_s"] for r in traced)
    wall_plain = statistics.median(r["wall_s"] for r in untraced)
    metrics["trace.overhead_frac"] = wall_traced / wall_plain - 1.0
    coverage = [
        sum(s.get(name, {}).get("self_s", 0.0) for name in REPORTED) / r["run_s"]
        for s, r in zip(summaries, traced) if s
    ]
    metrics["trace.coverage_frac"] = statistics.median(coverage) if coverage else 0.0
    return metrics


def _finite(value):
    return value if isinstance(value, (int, float)) and math.isfinite(value) else None


def _json_safe(obj):
    """Replace non-finite floats (failed runs) by null, which JSON can represent."""
    if isinstance(obj, float):
        return _finite(obj)
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    return obj


def _fmt(value) -> str:
    return "inf" if value is None else f"{value:.4f}"


def print_report(result: dict) -> None:
    print(f"workload {result['workload']} seed {result['seed']} (variant {result['variant']}): "
          f"{result['why']}")
    if not result["trace"]:
        for key, unit in END_TO_END.items():
            s = result["stats"][key]
            tail = (f"p{s['tail_pct']} {_fmt(_finite(s['tail']))}" if s["tail_pct"] is not None
                    else "tail n/a (<11 samples)")
            how = "median" if key == "setup_s" else f"mean; median {_fmt(_finite(s['median']))}"
            print(f"  {key:<12} {_fmt(_finite(result['metrics'][key]['value']))} {unit:<3} "
                  f"({how}; {tail}; {s['n']} samples)")
    else:
        for key, m in result["metrics"].items():
            print(f"  {key:<58} {m['value']!r} {m['unit']}")
    print(f"  failed_frac  {result['failed_frac']:.4f} ratio ({result['failed']} of "
          f"{result['attempted']} runs failed)")
    for failure in result["failures"][:5]:
        print(f"  FAILED run {failure['run']}: {'; '.join(failure['problems'][:3])}")


def write_record(result: dict) -> Path:
    path = WORK_DIR / "results" / (f"{result['workload']}-seed{result['seed']}"
                                    f"-trace{result['trace']}.json")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(_json_safe(result), indent=1) + "\n", encoding="ascii")
    return path


def final_line(results: list) -> str:
    metrics = {}
    for result in results:
        prefix = "" if len(results) == 1 else f"{result['workload']}."
        for key, m in result["metrics"].items():
            metrics[prefix + key] = {"value": _finite(m["value"]), "unit": m["unit"]}
    failed = sum(r["failed"] for r in results)
    return json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "semistab" / "__init__.py").is_file():
        print(f"error: no semistab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print_report(result)
        print(f"  record: {write_record(result).relative_to(ROOT)}")
        results.append(result)
    print(final_line(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Write the reference outputs the benchmark checks every run against.

Usage (from the repository root, on a commit whose results are trusted):

    python3 perfbench/make_refs.py [WORKLOAD ...]

Runs each workload once per input variant (once in total when the seed
does not change the computation) and copies its compared outputs into
``perfbench/ref/<workload>/v<variant>/``.  Refuses to store a run that
did not pass its own verdicts.
"""

import shutil
import sys
import time

from run import BENCH_DIR, WORK_DIR, Runner, child_env
from workloads import N_VARIANTS, WORKLOADS


def main(names) -> int:
    runner = Runner(child_env(), time.monotonic() + 3600.0)
    for name in names or WORKLOADS:
        workload = WORKLOADS[name]
        for variant in range(N_VARIANTS if workload.seeded else 1):
            work = WORK_DIR / "refs" / name
            shutil.rmtree(work, ignore_errors=True)
            argv = workload.write_inputs(work, variant)
            res, _ = runner.child(work, argv, trace=False)
            if res["returncode"] != 0:
                print(f"{name} v{variant}: exit {res['returncode']}\n{res['stderr']}")
                return 1
            target = workload.ref_dir(variant)
            target.mkdir(parents=True, exist_ok=True)
            if workload.kind == "spectrum":
                header, row = res["stdout"].splitlines()
                # the first cell is the output path, which differs per checkout and is not compared
                row = ",".join(["spectrum.csv"] + row.split(",")[1:])
                (target / "stdout.csv").write_text(f"{header}\n{row}\n", encoding="ascii")
            for table in workload.tables:
                shutil.copyfile(work / "out" / table, target / table)
            problems = workload.check(work, variant, res["returncode"], res["stdout"])
            if problems:
                print(f"{name} v{variant}: {problems}")
                return 1
            print(f"{name} v{variant}: {res['wall_s']:.2f} s -> {target.relative_to(BENCH_DIR)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Workload definitions: inputs generated from a seed, and output checks.

Each workload is one ``python -m semistab ...`` command.  Its inputs are
written from the benchmark seed into a work directory, so the program
sees only generated files.  The seed selects one of ``N_VARIANTS`` input
variants; each variant has a stored reference output under ``ref/``
(written by ``make_refs.py`` from a trusted commit).

Output check for every timed run:

* exit code 0, and ``overall: PASS`` with no ``FAIL`` line for studies,
  or the expected stdout row for ``operator spectrum``;
* every numeric CSV cell within ``RTOL``/``ATOL`` of the reference and
  every string cell equal.  Bytes are not compared: a solver swap may
  legitimately move the last bits.  Noise-level columns (``lhs_*`` of the
  approximation table) are checked through the verdict that bounds them,
  not by value.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

N_VARIANTS = 8
RTOL = 1e-6
ATOL = 1e-12

REF_DIR = Path(__file__).resolve().parent / "ref"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str  # one line, with the input sizes
    kind: str  # "study" or "spectrum"
    tables: tuple  # CSV files compared against the reference
    skip_prefixes: tuple = ()  # noise-level columns, checked by their verdict
    seeded: bool = True  # False: the seed does not change the computation

    def variant(self, seed: int) -> int:
        return seed % N_VARIANTS if self.seeded else 0

    def ref_dir(self, seed: int) -> Path:
        return REF_DIR / self.name / f"v{self.variant(seed)}"

    def write_inputs(self, work: Path, seed: int) -> list:
        """Write this workload's input files into ``work``; return the CLI argv."""
        work.mkdir(parents=True, exist_ok=True)
        out = work / "out"
        if self.kind == "spectrum":
            (work / "well.potential").write_text(_SQUARE_WELL_2D, encoding="ascii")
            return ["operator", "spectrum", str(work / "well.potential"),
                    "--L", "5", "--h", "0.2", "--out", str(out / "spectrum.csv")]
        config = work / "study.ini"
        config.write_text(_STUDY_CONFIGS[self.name].format(seed=self.variant(seed)),
                          encoding="ascii")
        return ["study", str(config), "--jobs", "1", "--out", str(out)]

    def check(self, work: Path, seed: int, returncode: int, stdout: str) -> list:
        """Return a list of problems with one run's outputs (empty if correct)."""
        if returncode != 0:
            return [f"exit code {returncode}"]
        out = work / "out"
        problems = []
        if self.kind == "study":
            summary = (out / "summary.txt").read_text(encoding="ascii").splitlines()
            problems += [f"verdict {line!r}" for line in summary if line.startswith("FAIL")]
            if not summary or summary[-1] != "overall: PASS":
                problems.append("summary does not end with 'overall: PASS'")
            if "overall: PASS" not in stdout.splitlines():
                problems.append("stdout lacks 'overall: PASS'")
        else:
            ref = (self.ref_dir(seed) / "stdout.csv").read_text(encoding="ascii")
            problems += _compare_stdout_row(stdout, ref)
        for name in self.tables:
            path = out / name
            if not path.is_file():
                problems.append(f"missing output {name}")
                continue
            problems += compare_csv(path, self.ref_dir(seed) / name, self.skip_prefixes)
        return problems


def cells_match(got: str, want: str) -> bool:
    try:
        a, b = float(got), float(want)
    except ValueError:
        return got == want
    if math.isinf(a) or math.isinf(b) or math.isnan(a) or math.isnan(b):
        return got == want
    return abs(a - b) <= ATOL + RTOL * max(abs(a), abs(b))


def compare_csv(got_path: Path, ref_path: Path, skip_prefixes=()) -> list:
    with open(got_path, newline="", encoding="ascii") as fh:
        got = list(csv.reader(fh))
    with open(ref_path, newline="", encoding="ascii") as fh:
        ref = list(csv.reader(fh))
    name = got_path.name
    if not got or got[0] != ref[0]:
        return [f"{name}: header {got[:1]} != {ref[0]}"]
    if len(got) != len(ref):
        return [f"{name}: {len(got) - 1} rows, reference has {len(ref) - 1}"]
    header = ref[0]
    problems = []
    for r, (grow, rrow) in enumerate(zip(got[1:], ref[1:]), start=1):
        if len(grow) != len(rrow):
            problems.append(f"{name} row {r}: {len(grow)} cells, reference {len(rrow)}")
            continue
        for col, g, w in zip(header, grow, rrow):
            if col.startswith(tuple(skip_prefixes)):
                continue
            if not cells_match(g, w):
                problems.append(f"{name} row {r} {col}: {g} != reference {w}")
    return problems[:20]


def _compare_stdout_row(stdout: str, ref: str) -> list:
    got = stdout.strip().splitlines()
    want = ref.strip().splitlines()
    if len(got) != 2 or got[0] != want[0]:
        return [f"stdout {got!r} is not the header {want[0]!r} plus one row"]
    header = want[0].split(",")
    problems = []
    for col, g, w in zip(header, got[1].split(","), want[1].split(",")):
        if col == "spectrum_csv":  # a path, which differs per checkout
            continue
        if not cells_match(g, w):
            problems.append(f"stdout {col}: {g} != reference {w}")
    return problems


_SQUARE_WELL_2D = "potential kind=square-well nu=2 a_bound=1.0\ndepth=1.0\nradius=1.0\n"

_STUDY_CONFIGS = {
    "bounds-sweep": """\
[study]
kind = section3-bounds
seed = {seed}
""",
    "approx-1d": """\
[study]
kind = approximation
seed = {seed}

[potential]
kind = gaussian-well
nu = 1
a_bound = 1.0
depth = 1.0
width = 1.0

[approximation]
seq_kind = truncation
indices = 1..12
L = 20
h = 0.05
n_probes = 3
""",
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="bounds-sweep",
            why="section3-bounds defaults, 100 plain + 3x50 shifted 20-atom measures x 200 t: "
            "50,001 atomic log-Laplace moments under the bound checks, no operator work",
            kind="study",
            tables=("section3-bounds.csv", "equality-witness.csv"),
        ),
        Workload(
            name="approx-1d",
            why="approximation, gaussian well truncation 1..12, L=20, h=0.05 (N=799), 3 probes: "
            "13 discretize, 72 resolvent solves, no measure or semigroup work",
            kind="study",
            tables=("approximation.csv",),
            skip_prefixes=("lhs_",),
        ),
        Workload(
            name="spectrum-2d",
            why="operator spectrum, 2-D square well depth 1 radius 1, L=5, h=0.2 (N=2401): "
            "every eigenpair of the dense operator, the memory-heavy path",
            kind="spectrum",
            tables=("spectrum.csv",),
            seeded=False,
        ),
    )
}

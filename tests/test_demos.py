"""Smoke test: every narrative script under demos/ runs to completion.

The demos call the library and the CLI the way a reader would,
so each one runs as its own process from an empty working directory.
"""

import glob
import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))


def test_every_demo_exits_zero(tmp_path):
    assert len(DEMOS) == 7
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")) if p))
    failed = []
    for demo in DEMOS:
        proc = subprocess.run([sys.executable, demo], cwd=tmp_path, env=env,
                              capture_output=True, text=True)
        if proc.returncode != 0:
            failed.append(f"{os.path.basename(demo)}: exit {proc.returncode}\n{proc.stderr}")
    assert not failed, "\n".join(failed)

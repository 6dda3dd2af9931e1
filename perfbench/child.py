"""Child process for one timed CLI run; the equivalent of ``python -m semistab``.

Usage: python child.py TIMES_JSON TRACE(0|1) -- [<semistab argv...>]

Imports semistab, records when the import completed (CLOCK_MONOTONIC,
which the parent compares with its spawn time), optionally installs the
tracer, runs ``semistab.cli.main(argv)`` and writes the timings (and the
trace summary) to TIMES_JSON.  Exits with the CLI's exit code.  With an
empty argv it only imports (a set-up probe).
"""

import json
import sys
import time


def main() -> int:
    times_path, trace = sys.argv[1], sys.argv[2] == "1"
    argv = sys.argv[sys.argv.index("--") + 1:]
    import semistab

    imported_at = time.monotonic()
    record = {"imported_at": imported_at, "semistab_file": semistab.__file__}
    if not argv:
        _write(times_path, record)
        return 0
    import semistab.cli

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    try:
        code = semistab.cli.main(argv)
    finally:
        record["run_s"] = time.perf_counter() - start
        record["trace"] = tracer.summary() if tracer else None
        _write(times_path, record)
    return code


def _write(path, record) -> None:
    with open(path, "w", encoding="ascii") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    sys.exit(main())

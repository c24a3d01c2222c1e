"""Run one msgkit workload with every layer traced, then write its spans.

    python3 perfbench/traced.py SPANS_FILE -m msgkit ARGS...
    python3 perfbench/traced.py SPANS_FILE SCRIPT ARGS...

The program runs in this process exactly as it would untraced: `-m msgkit`
calls the CLI entry point, a script path runs as `__main__`.  Its stdout
and exit code are passed through.  SPANS_FILE receives the spans of this
process and of its fork pool workers, the counters, and the traced wall
time (from just before the program starts to just after it returns).
"""

from __future__ import annotations

import json
import os
import runpy
import sys
import time
from pathlib import Path

import msgkit.cli  # noqa: F401  (loads every msgkit module before wrapping)

from tracer import Tracer, install


def main(argv: list[str]) -> int:
    out = Path(argv[0])
    program = argv[1:]
    worker_dir = out.parent / f"{out.name}.workers"
    worker_dir.mkdir(parents=True, exist_ok=True)
    for stale in worker_dir.glob("worker-*.json"):
        stale.unlink()
    tracer = Tracer()
    skipped = install(tracer, worker_dir)
    t0 = time.perf_counter_ns()
    try:
        if program[:2] == ["-m", "msgkit"]:
            code = msgkit.cli.main(program[2:])
        else:
            sys.argv = program
            runpy.run_path(program[0], run_name="__main__")
            code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    t1 = time.perf_counter_ns()
    sys.stdout.flush()
    for path in sorted(worker_dir.glob("worker-*.json")):
        tracer.merge(json.loads(path.read_text()))
        path.unlink()
    worker_dir.rmdir()
    record = tracer.payload()
    record.update(main_pid=os.getpid(), wall_ns=t1 - t0, skipped=skipped)
    out.write_text(json.dumps(record))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

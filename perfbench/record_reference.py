"""Record the reference answers that the benchmark's checks compare against.

    python3 perfbench/record_reference.py [WORKLOAD ...]

Runs each named workload (default: all) once for each input seed
0..REF_SEEDS-1 and writes the counts of the program's output to
`reference.json`, keeping the entries of other workloads.  Run it only
at a commit whose answers are trusted: afterwards every benchmark run
must reproduce them exactly.
"""

from __future__ import annotations

import json
import sys

from run import OUT, run_process
from workloads import REF_SEEDS, REFERENCE_FILE, WORKLOADS


def dump(reference: dict) -> str:
    """JSON with one line per (workload, seed) entry."""
    blocks = []
    for name in sorted(reference):
        entries = reference[name]
        lines = [f"  {json.dumps(seed)}: {json.dumps(entries[seed], sort_keys=True)}"
                 for seed in sorted(entries, key=int)]
        blocks.append(f" {json.dumps(name)}: {{\n" + ",\n".join(lines) + "\n }")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def main(names: list[str]) -> int:
    OUT.mkdir(exist_ok=True)
    reference = json.loads(REFERENCE_FILE.read_text()) if REFERENCE_FILE.exists() else {}
    for name in names or WORKLOADS:
        workload = WORKLOADS[name]
        reference[name] = {}
        for seed in range(REF_SEEDS):
            run = run_process(workload.argv(seed, OUT))
            if run.code != 0:
                print(f"{name} seed {seed}: exit code {run.code}", file=sys.stderr)
                return 1
            out = json.loads(run.stdout)
            ref = workload.reference(out)
            problems = workload.check(run.code, out, ref, seed)
            if problems:
                print(f"{name} seed {seed}: {problems}", file=sys.stderr)
                return 1
            reference[name][str(seed)] = ref
            print(f"{name} seed {seed}: {run.wall_s:.2f} s", flush=True)
    REFERENCE_FILE.write_text(dump(reference))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

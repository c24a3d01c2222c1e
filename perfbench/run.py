"""msgkit benchmark: four workloads, end-to-end metrics and a traced per-layer pass.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of verify-exhaustive, verify-sampled, scan-pool and
rational-pencils, or `all` for every workload in turn with a table.
Run it from the repository root; msgkit is imported from `src/`.

With `--trace 0` the run repeats, for S seconds, a round of three fresh
processes: the calibration job `calibrate.py`, an interpreter that only
imports msgkit (set-up), and the workload, whose output is checked.
On a shared machine every process can run much slower for minutes at a
time, so each time is scaled by CAL_REF_S / (the calibration time of its
round): the metrics are seconds on a machine where the calibration job
takes CAL_REF_S.  The medians over the rounds are:

    setup_s       s      fresh interpreter until `import msgkit.cli` returns
    wall_s        s      one workload run in a fresh process, time to result
    points_per_s  1/s    work items in the program's own output / wall time
    peak_rss_mb   MiB    peak resident memory, largest pool worker included

The table also shows the unscaled medians (`raw_*`), the calibration
time, and two shares that are 0 on a healthy program: `failed_ratio`
(runs whose exit code or output failed the check) and `stall_ratio`
(sampler draws that stalled).

With `--trace 1` it alternates untraced runs with runs under
`traced.py`, which wraps every layer of msgkit from outside, and reports
the per-layer metrics of `tracer.layer_metrics` (medians over traced
runs), the tracing overhead (traced / untraced wall time), and for the
pool workload the pool efficiency T1 / (workers * Tw), where T1 is an
untraced one-worker run of the same scan, interleaved with the others.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  Each run also writes a record with
its environment to `.perfbench/`.  The exit code is 1 when any output
failed its check and 2 when the repository or reference data is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from tracer import layer_metrics, median_metrics
from workloads import REFERENCE_FILE, WORKLOADS, input_seed, load_reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_ARGV = ["-c", "import msgkit.cli"]
CALIBRATE_ARGV = [str(HERE / "calibrate.py")]
CAL_REF_S = 0.2
MIN_RUNS = 3
PROCESS_LIMIT_S = 150
REPORT_ONLY = (("raw_setup_s", "s"), ("raw_wall_s", "s"), ("raw_points_per_s", "1/s"),
               ("calibration_s", "s"), ("failed_ratio", "share"), ("stall_ratio", "share"))


@dataclass
class Run:
    wall_s: float
    rss_mb: float
    code: int
    stdout: bytes


def run_process(argv: list[str]) -> Run:
    """Run `python argv` in a fresh process; wall time and peak RSS of its tree."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(OUT / "stdout", "w+b") as out, open(OUT / "stderr", "w+b") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], stdout=out, stderr=err,
                                cwd=ROOT, env=env, start_new_session=True)
        timer = threading.Timer(PROCESS_LIMIT_S, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        # ru_maxrss of a reaped child covers the children it reaped: the pool workers
        return Run(wall, usage.ru_maxrss / 1024, proc.returncode, out.read())


class Checker:
    """Checks outputs against the invariants and the recorded reference counts."""

    def __init__(self, workload, seed: int, reference: dict):
        self.workload = workload
        self.seed = input_seed(seed)
        self.ref = reference[workload.name][str(self.seed)]
        self._seen: dict[tuple, tuple] = {}

    def __call__(self, run: Run) -> tuple[dict | None, list[str]]:
        key = (run.code, run.stdout)
        if key not in self._seen:
            try:
                out = json.loads(run.stdout)
                problems = self.workload.check(run.code, out, self.ref, self.seed)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                out, problems = None, [f"exit code {run.code}, unreadable output: {exc!r}"]
            self._seen[key] = (out, problems)
        return self._seen[key]


def measure(workload, seed: int, seconds: float, reference: dict) -> dict:
    """End-to-end pass: rounds of calibration, set-up and workload run for `seconds`."""
    check = Checker(workload, seed, reference)
    argv = workload.argv(check.seed, OUT)
    run_process(SETUP_ARGV)  # writes bytecode caches, warms the file cache
    cal, setup, runs, problems, rates = [], [], [], [], []
    stalls = draws = 0
    deadline = time.perf_counter() + seconds
    while len(runs) < MIN_RUNS or time.perf_counter() < deadline:
        cal.append(run_process(CALIBRATE_ARGV).wall_s)
        setup.append(run_process(SETUP_ARGV).wall_s)
        run = run_process(argv)
        out, bad = check(run)
        runs.append(run)
        if bad:
            problems.append(bad)
            rates.append(None)
            continue
        rates.append(workload.work(out) / run.wall_s)
        s, d = workload.draws(out)
        stalls, draws = stalls + s, draws + d
    scale = [CAL_REF_S / c for c in cal]  # < 1 while the machine runs slow
    ok = [(rate, f) for rate, f in zip(rates, scale) if rate is not None]
    metrics = {
        "setup_s": statistics.median(t * f for t, f in zip(setup, scale)),
        "wall_s": statistics.median(r.wall_s * f for r, f in zip(runs, scale)),
        "points_per_s": statistics.median(rate / f for rate, f in ok) if ok else 0.0,
        "peak_rss_mb": statistics.median(r.rss_mb for r in runs),
        "raw_setup_s": statistics.median(setup),
        "raw_wall_s": statistics.median(r.wall_s for r in runs),
        "raw_points_per_s": statistics.median(rate for rate, _ in ok) if ok else 0.0,
        "calibration_s": statistics.median(cal),
        "failed_ratio": len(problems) / len(runs),
        "stall_ratio": stalls / draws if draws else 0.0,
    }
    return {"attempted": len(runs), "failed": len(problems), "problems": problems[:3],
            "metrics": metrics, "walls_s": [r.wall_s for r in runs], "setup_walls_s": setup,
            "calibration_walls_s": cal}


def measure_traced(workload, seed: int, seconds: float, reference: dict) -> dict:
    """Per-layer pass: untraced and traced runs alternate for `seconds`."""
    check = Checker(workload, seed, reference)
    argv = workload.argv(check.seed, OUT)
    spans_file = OUT / f"spans-{workload.name}.json"
    attempted, problems = 0, []

    def checked(run: Run, extra: list[str] = ()) -> bool:
        nonlocal attempted
        attempted += 1
        bad = check(run)[1] + list(extra)
        if bad:
            problems.append(bad)
        return not bad

    plain, single, traced, layers = [], [], [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or not (traced or problems):
        run = run_process(argv)
        if checked(run):
            plain.append(run.wall_s)
        if workload.workers > 1:
            run = run_process(workload.argv(check.seed, OUT, workers=1))
            if checked(run):
                single.append(run.wall_s)
        spans_file.unlink(missing_ok=True)
        run = run_process([str(HERE / "traced.py"), str(spans_file), *argv])
        try:
            spans = json.loads(spans_file.read_text())
        except (OSError, ValueError) as exc:
            checked(run, [f"no spans written: {exc!r}"])
            continue
        found = layer_metrics(spans["names"], spans["spans"], spans["counts"],
                              spans["main_pid"], spans["wall_ns"])
        missing = []
        worker_spans = any(s >> 32 != spans["main_pid"] for s in spans["spans"][::5])
        if workload.workers > 1 and not worker_spans:
            missing.append("no spans came back from the pool workers (fork start method needed)")
        if checked(run, missing):
            traced.append(run.wall_s)
            layers.append(found)
    metrics = median_metrics(layers) if layers else {}
    untraced = statistics.median(plain) if plain else 0.0
    metrics["trace.overhead"] = (
        statistics.median(traced) / untraced if traced and untraced else 0.0)
    metrics["cli.pool.efficiency"] = (
        statistics.median(single) / (workload.workers * untraced) if single and untraced else 0.0)
    return {"attempted": attempted, "failed": len(problems), "problems": problems[:3],
            "metrics": metrics, "untraced_walls_s": plain, "one_worker_walls_s": single,
            "traced_walls_s": traced,
            "skipped_targets": spans.get("skipped", []) if traced else []}


# ---------------------------------------------------------------------------
# environment and output
# ---------------------------------------------------------------------------

def environment(seed: int) -> dict:
    sources = sorted((SRC / "msgkit").glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    version = re.search(r'__version__ = "([^"]+)"',
                        (SRC / "msgkit" / "__init__.py").read_text())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "msgkit": version.group(1) if version else None, "commit": commit,
            "src_sha256": digest.hexdigest(), "src_msgkit_lines": lines,
            "seed": seed, "input_seed": input_seed(seed)}


def registered_metrics(trace: int) -> list[tuple[str, str]]:
    """(name, unit) of the metrics BENCHMARK.json registers for this pass."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def run_workload(name: str, seed: int, seconds: float, trace: int, reference: dict) -> dict:
    workload = WORKLOADS[name]
    result = (measure_traced if trace else measure)(workload, seed, seconds, reference)
    record = {"workload": name, "trace": trace, "environment": environment(seed), **result}
    (OUT / f"result-{name}-trace{trace}.json").write_text(json.dumps(record, indent=1))
    for problem in result["problems"]:
        print(f"{name}: FAILED: {'; '.join(problem)}", file=sys.stderr)
    return record


def print_table(records: list[dict], trace: int) -> None:
    names = registered_metrics(trace) + ([] if trace else list(REPORT_ONLY))
    width = max(len(n) for n, _ in names) + 2
    print(f"{'metric':<{width}}{'unit':<15}" + "".join(f"{r['workload']:>20}" for r in records))
    for name, unit in names:
        row = "".join(f"{r['metrics'].get(name, float('nan')):>20.6g}" for r in records)
        print(f"{name:<{width}}{unit:<15}{row}")
    for r in records:
        print(f"{r['workload']}: {r['attempted']} runs, {r['failed']} failed;"
              f" environment {json.dumps(r['environment'], sort_keys=True)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    needed = (SRC / "msgkit" / "__init__.py", REFERENCE_FILE, ROOT / "BENCHMARK.json")
    if not all(path.is_file() for path in needed):
        print("error: run from the root of a msgkit checkout; missing "
              + ", ".join(str(p) for p in needed if not p.is_file()), file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    reference = load_reference()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = [run_workload(n, args.seed, args.seconds, args.trace, reference) for n in names]
    print_table(records, args.trace)
    units = registered_metrics(args.trace)
    if len(records) == 1:
        metrics = {n: {"value": records[0]["metrics"].get(n, 0.0), "unit": u} for n, u in units}
    else:
        metrics = {f"{r['workload']}.{n}": {"value": r["metrics"].get(n, 0.0), "unit": u}
                   for r in records for n, u in units}
    failed = sum(r["failed"] for r in records)
    print(json.dumps({"correct": failed == 0, "attempted": sum(r["attempted"] for r in records),
                      "failed": failed, "metrics": metrics}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

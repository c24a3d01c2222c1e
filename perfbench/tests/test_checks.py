"""The correctness checks must flag tampered outputs; BENCHMARK.json must match the code."""

import json
import shutil
import subprocess
import sys

import pytest

from conftest import BENCH
from run import OUT, Checker, Run, run_process
from tracer import layer_metrics
from workloads import WORKLOADS, load_reference

ROOT = BENCH.parent


@pytest.fixture(scope="module")
def reference():
    OUT.mkdir(exist_ok=True)
    return load_reference()


def run_workload(name, extra=()):
    workload = WORKLOADS[name]
    return workload, run_process(workload.argv(0, OUT) + list(extra))


def tampered(run, edit):
    out = json.loads(run.stdout)
    edit(out)
    return Run(run.wall_s, run.rss_mb, run.code, json.dumps(out).encode())


def test_verify_fault_injection_is_flagged(reference):
    workload, run = run_workload("verify-exhaustive", ["--inject-fault"])
    assert run.code == 1
    _, problems = Checker(workload, 0, reference)(run)
    assert any("exit code 1" in p for p in problems)
    assert any("mismatch_count" in p for p in problems)


def test_scan_with_one_count_tampered_is_flagged(reference):
    workload, run = run_workload("scan-pool")
    assert Checker(workload, 0, reference)(run)[1] == []

    def shift(out):
        hist = out["excess_dim_histogram"]
        key = next(iter(hist))
        hist[key] -= 1
        hist[str(int(key) + 1)] = hist.get(str(int(key) + 1), 0) + 1

    _, problems = Checker(workload, 0, reference)(tampered(run, shift))
    assert any("histogram" in p for p in problems)

    def drop(out):
        out["points"] -= 1

    assert Checker(workload, 0, reference)(tampered(run, drop))[1]


def test_rational_checks_eigenvalues_and_normal_forms(reference):
    workload, run = run_workload("rational-pencils")
    assert Checker(workload, 0, reference)(run)[1] == []

    def eigen(out):
        out["pencils"][0]["eigenvalues"][0] = "1/7"

    assert any("planted" in p for p in Checker(workload, 0, reference)(tampered(run, eigen))[1])

    def normal_form(out):
        P = out["pencils"][1]["normal_forms"][0]["P"]
        P[0][0] = "2" if P[0][0] != "2" else "3"

    assert any("canonical" in p
               for p in Checker(workload, 0, reference)(tampered(run, normal_form))[1])


def test_benchmark_json_names_every_metric_the_code_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reported = set(layer_metrics([], [], {}, 0, 0)) | {"cli.pool.efficiency", "trace.overhead"}
    assert {m["name"] for m in spec["per_layer"]} == reported
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "wall_s", "points_per_s",
                                                       "peak_rss_mb"}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "verify-sampled",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""

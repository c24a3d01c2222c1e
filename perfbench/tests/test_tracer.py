"""Span accounting of the tracer: self time, generator steps, attribution."""

import itertools
import json
import os
import subprocess
import sys
import types
from collections import Counter

from conftest import BENCH
from tracer import Tracer, _unpack, layer_metrics, self_times

ROOT = BENCH.parent


def ticking_tracer() -> Tracer:
    """A tracer whose clock advances by one on every reading."""
    return Tracer(clock=itertools.count(1).__next__)


def self_by_name(tracer: Tracer) -> Counter:
    spans = _unpack(tracer.names, tracer.spans)
    own = self_times(spans)
    out = Counter()
    for sid, _, name, _, _ in spans:
        out[name] += own[sid]
    return out


def test_self_time_of_nested_spans():
    tr = ticking_tracer()
    ns = types.SimpleNamespace()
    ns.leaf = tr.wrap_call(lambda: None, "leaf")
    ns.mid = tr.wrap_call(lambda: (ns.leaf(), ns.leaf()), "mid")
    ns.top = tr.wrap_call(lambda: ns.mid(), "top")
    ns.top()
    # clock: top 1..8, mid 2..7, leaf 3..4 and 5..6
    assert self_by_name(tr) == {"top": 2, "mid": 3, "leaf": 2}
    assert tr.stack == []


def test_generator_steps_are_spans_of_the_consumer():
    tr = ticking_tracer()
    ns = types.SimpleNamespace()
    ns.work = tr.wrap_call(lambda: None, "work")

    def gen(n):
        for i in range(n):
            ns.work()
            yield i

    ns.gen = tr.wrap_generator(gen, "gen", "gen.items")

    def consume():
        for _ in ns.gen(2):
            ns.work()

    ns.consume = tr.wrap_call(consume, "consume")
    ns.consume()
    assert tr.counts == {"gen.items": 2}
    spans = _unpack(tr.names, tr.spans)
    consume_id = next(s[0] for s in spans if s[2] == "consume")
    gen_spans = [s for s in spans if s[2] == "gen"]
    # the call that builds the generator, two yielding steps, the final step
    assert len(gen_spans) == 4
    assert all(s[1] == consume_id for s in gen_spans)
    # consume 1..18; gen call 2..3; steps 4..7, 10..13, 16..17 each with
    # work inside (5..6, 11..12); the consumer's own work 8..9 and 14..15
    assert self_by_name(tr) == {"consume": 7, "gen": 6, "work": 4}


def test_exception_closes_the_span():
    tr = ticking_tracer()

    def boom():
        raise KeyError("x")

    wrapped = tr.wrap_call(boom, "boom")
    try:
        wrapped()
    except KeyError:
        pass
    assert tr.stack == [] and len(tr.spans) == 5


def hand_built(spans):
    names = sorted({s[2] for s in spans})
    flat = []
    for sid, parent, name, t0, t1 in spans:
        flat += [sid, parent, names.index(name), t0, t1]
    return names, flat


def test_rank_is_rref_under_verify_or_report():
    names, flat = hand_built([
        (1, 0, "tangent.verify", 0, 100),
        (2, 1, "matrices.rref", 10, 30),        # the constraint rank
        (3, 1, "tangent.context", 40, 70),
        (4, 3, "matrices.rref", 50, 60),        # inside the point context: not rank
        (7, 4, "matrices.construct", 52, 54),
        (5, 0, "tangent.report", 100, 150),
        (6, 5, "matrices.rref", 110, 120),      # the constraint rank
    ])
    m = layer_metrics(names, flat, {}, main_pid=0, wall_ns=200)
    assert m["matrices.rref.calls"] == 3
    assert m["tangent.rank.calls"] == 2
    assert abs(m["tangent.rank.self_s"] - 30e-9) < 1e-15
    assert abs(m["matrices.rref.self_s"] - 38e-9) < 1e-15
    assert abs(m["tangent.context.self_s"] - 20e-9) < 1e-15
    assert m["trace.uncovered_share"] == 0.25


def test_worker_spans_do_not_reduce_the_pool_wait():
    worker = 7 << 32
    names, flat = hand_built([
        (1, 0, "cli.pool", 0, 100),
        (worker | 1, 1, "symplectic.forms", 10, 90),
        (worker | 2, worker | 1, "matrices.mul", 20, 30),
    ])
    m = layer_metrics(names, flat, {}, main_pid=0, wall_ns=100)
    assert abs(m["cli.pool.self_s"] - 100e-9) < 1e-15
    assert abs(m["symplectic.forms.self_s"] - 70e-9) < 1e-15
    assert m["trace.uncovered_share"] == 0.0


def test_minors_counted_under_pencil_spans_only():
    names, flat = hand_built([
        (1, 0, "tangent.pencil", 0, 50),
        (2, 1, "polynomials.det", 1, 2),
        (3, 1, "polynomials.gcd", 3, 10),
        (4, 3, "polynomials.det", 4, 5),        # nested deeper, still under the pencil
        (5, 0, "tangent.pencil", 50, 60),
        (6, 0, "polynomials.det", 70, 80),      # char poly, no pencil
    ])
    m = layer_metrics(names, flat, {}, main_pid=0, wall_ns=100)
    assert m["polynomials.det.calls"] == 3
    assert m["polynomials.minors_per_pencil"] == 1.0


def run_traced(tmp_path, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    spans = tmp_path / "spans.json"
    traced = subprocess.run([sys.executable, str(BENCH / "traced.py"), str(spans),
                             "-m", "msgkit", *args], capture_output=True, env=env, timeout=120)
    plain = subprocess.run([sys.executable, "-m", "msgkit", *args],
                           capture_output=True, env=env, timeout=120)
    data = json.loads(spans.read_text())
    return traced, plain, data


def test_traced_verify_matches_untraced_and_counts_the_walk(tmp_path):
    traced, plain, data = run_traced(tmp_path, "verify", "--n", "4", "--k", "2", "--p", "3",
                                     "--pairs", "1")
    assert traced.returncode == plain.returncode == 0
    assert traced.stdout == plain.stdout
    assert data["skipped"] == []
    out = json.loads(traced.stdout)
    m = layer_metrics(data["names"], data["spans"], data["counts"], data["main_pid"],
                      data["wall_ns"])
    assert m["symplectic.enumerate.visited"] == 130  # Gaussian binomial [4 choose 2]_3
    assert m["symplectic.enumerate.isotropic"] == out["points_checked"]
    assert m["symplectic.isotropy.calls"] >= 130
    assert m["tangent.pencil.calls"] == out["points_checked"]
    assert m["tangent.rank.calls"] == out["points_checked"]
    assert m["cli.tasks"] == 1
    assert 0 <= m["trace.uncovered_share"] < 1


def test_traced_scan_collects_pool_worker_spans(tmp_path):
    traced, plain, data = run_traced(tmp_path, "scan", "--n", "4", "--k", "2", "--m", "2",
                                     "--p", "3", "--samples", "20", "--workers", "2")
    assert traced.returncode == plain.returncode == 0
    assert traced.stdout == plain.stdout
    pids = {sid >> 32 for sid in data["spans"][::5]}
    assert len(pids) >= 2 and data["main_pid"] in pids
    m = layer_metrics(data["names"], data["spans"], data["counts"], data["main_pid"],
                      data["wall_ns"])
    assert m["cli.tasks"] == 20
    assert m["symplectic.forms.calls"] == 20
    assert m["tangent.report.calls"] == 20 - json.loads(traced.stdout)["sampler_exhausted"]
    assert m["tangent.pencil.calls"] == 0

"""Span tracing of msgkit from outside the program.

`install` replaces the public functions of the msgkit modules, and the
`Matrix` and `PointContext` methods, wherever callers look them up: every
module attribute and class attribute that holds the original object gets a
wrapper that records one span per call.  A generator returned by an
enumeration function gets one span per step (each `next`), so the
consumer's work between yields stays with the consumer.

A span is five integers: id, parent id, name index, start and end
(`perf_counter_ns`).  Ids carry the process id in their high 32 bits, so
spans of forked pool workers merge with the parent's without clashes; a
worker inherits the parent's span stack at fork time, so its top-level
spans name the parent's `cli.pool` span as their parent.  Spans stay in
memory; the traced process writes them once, when it ends, and each fork
worker writes its own spans when it exits.

Layer metrics come from the spans alone (`layer_metrics`), so the tests
can check the accounting on hand-built spans.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

# (module, attribute, span name, kind).  kind "call" wraps a function or
# method, "gen" wraps a function that returns a generator and records its
# steps.  A target missing from the program is skipped: its metrics read 0.
TARGETS = [
    ("msgkit.symplectic", "enumerate_subspaces", "symplectic.enumerate", "gen"),
    ("msgkit.symplectic", "enumerate_isotropic_subspaces", "symplectic.enumerate", "gen"),
    ("msgkit.symplectic", "isotropy_failure", "symplectic.isotropy", "call"),
    ("msgkit.symplectic", "random_isotropic_subspace", "symplectic.sample", "call"),
    ("msgkit.symplectic", "random_form_space", "symplectic.forms", "call"),
    ("msgkit.tangent", "PointContext.__init__", "tangent.context", "call"),
    ("msgkit.tangent", "build_constraints", "tangent.constraints", "call"),
    ("msgkit.tangent", "find_degenerate_pencil", "tangent.pencil", "call"),
    ("msgkit.tangent", "tangent_report", "tangent.report", "call"),
    ("msgkit.tangent", "verify_pair", "tangent.verify", "call"),
    ("msgkit.tangent", "check_even_eigenspaces", "tangent.eigen", "call"),
    ("msgkit.matrices", "Matrix.__init__", "matrices.construct", "call"),
    ("msgkit.matrices", "Matrix.mul", "matrices.mul", "call"),
    ("msgkit.matrices", "Matrix.rref", "matrices.rref", "call"),
    ("msgkit.matrices", "skew_normal_form", "matrices.normal_form", "call"),
    ("msgkit.polynomials", "pmat_det", "polynomials.det", "call"),
    ("msgkit.polynomials", "binary_form_gcd", "polynomials.gcd", "call"),
    ("msgkit.polynomials", "proots", "polynomials.roots", "call"),
    ("msgkit._integers", "divisors", "integers.divisors", "call"),
    ("msgkit.cli", "_run_tasks", "cli.pool", "call"),
]

# Counters kept beside the spans, keyed by (module, attribute).
YIELD_COUNTERS = {
    ("msgkit.symplectic", "enumerate_subspaces"): "symplectic.enumerate.visited",
    ("msgkit.symplectic", "enumerate_isotropic_subspaces"): "symplectic.enumerate.isotropic",
}


def _count_result(tracer: "Tracer", key, args, result) -> None:
    if key == ("msgkit.symplectic", "random_isotropic_subspace") and result is None:
        tracer.counts["symplectic.sample.stalls"] += 1
    elif key == ("msgkit.tangent", "find_degenerate_pencil") and result is not None:
        tracer.counts["tangent.pencil.degenerate"] += 1
    elif key == ("msgkit.cli", "_run_tasks") and len(args) > 1:
        tracer.counts["cli.tasks"] += len(args[1])


class Tracer:
    """In-memory span store with a call stack; one per traced process."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans = array("q")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._reset_ids()
        self.main_pid = self.pid
        self.worker_dir: Path | None = None

    def _reset_ids(self) -> None:
        self.pid = os.getpid()
        self._prefix = self.pid << 32
        self._counter = 0

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def new_id(self) -> int:
        self._counter += 1
        return self._prefix | self._counter

    def record(self, sid: int, parent: int, nid: int, t0: int, t1: int) -> None:
        self.spans.extend((sid, parent, nid, t0, t1))

    # -- wrappers -------------------------------------------------------------

    def wrap_call(self, fn, name: str, key=None):
        nid = self.name_id(name)
        stack, clock = self.stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self.new_id()
            parent = stack[-1] if stack else 0
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self.spans.extend((sid, parent, nid, t0, t1))
            if key is not None:
                _count_result(self, key, args, result)
            return result

        return wrapper

    def wrap_generator(self, fn, name: str, counter: str):
        """Wrap a generator factory: a span for the call, then one per step."""
        nid = self.name_id(name)
        factory = self.wrap_call(fn, name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._steps(factory(*args, **kwargs), nid, counter)

        return wrapper

    def _steps(self, gen, nid: int, counter: str):
        stack, clock, counts = self.stack, self.clock, self.counts
        while True:
            sid = self.new_id()
            parent = stack[-1] if stack else 0
            stack.append(sid)
            t0 = clock()
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                t1 = clock()
                stack.pop()
                self.spans.extend((sid, parent, nid, t0, t1))
            counts[counter] += 1
            yield item

    # -- fork workers -----------------------------------------------------------

    def _after_fork(self) -> None:
        """In a forked pool worker: drop the parent's spans, write ours at exit."""
        from multiprocessing import util

        del self.spans[:]
        self.counts.clear()
        self._reset_ids()
        util.Finalize(self, Tracer._write_worker, args=(self,), exitpriority=10)

    def _write_worker(self) -> None:
        if self.worker_dir is not None:
            path = self.worker_dir / f"worker-{self.pid}.json"
            path.write_text(json.dumps(self.payload()))

    def payload(self) -> dict:
        return {"pid": self.pid, "names": self.names, "counts": dict(self.counts),
                "spans": self.spans.tolist()}

    def merge(self, payload: dict) -> None:
        """Append another process's spans, remapping its name indices."""
        remap = [self.name_id(n) for n in payload["names"]]
        flat = payload["spans"]
        for i in range(0, len(flat), 5):
            self.record(flat[i], flat[i + 1], remap[flat[i + 2]], flat[i + 3], flat[i + 4])
        self.counts.update(payload["counts"])


def install(tracer: Tracer, worker_dir: Path | None = None) -> list[str]:
    """Wrap every target found in the loaded msgkit modules; return the skipped ones."""
    import multiprocessing.util

    tracer.worker_dir = worker_dir
    multiprocessing.util.register_after_fork(tracer, Tracer._after_fork)
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "msgkit" or name.startswith("msgkit."))]
    skipped = []
    for modname, attr, span, kind in TARGETS:
        home = sys.modules.get(modname)
        owner, _, member = attr.rpartition(".")
        holder = getattr(home, owner, None) if owner else home
        original = getattr(holder, member, None) if holder is not None else None
        if original is None:
            skipped.append(f"{modname}.{attr}")
            continue
        key = (modname, attr)
        if kind == "gen":
            wrapper = tracer.wrap_generator(original, span, YIELD_COUNTERS[key])
        else:
            wrapper = tracer.wrap_call(original, span, key)
        if owner:
            setattr(holder, member, wrapper)
            for other, value in list(vars(holder).items()):
                if value is original:  # aliases such as __matmul__
                    setattr(holder, other, wrapper)
        else:
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapper)
    return skipped


# ---------------------------------------------------------------------------
# accounting
# ---------------------------------------------------------------------------

RANK_PARENTS = ("tangent.verify", "tangent.report")
_NS = 1e-9


def _unpack(names: list[str], flat) -> list[tuple]:
    return [(flat[i], flat[i + 1], names[flat[i + 2]], flat[i + 3], flat[i + 4])
            for i in range(0, len(flat), 5)]


def self_times(spans: list[tuple]) -> dict[int, int]:
    """Span id -> duration minus the durations of its children in the same process.

    A worker's top-level spans name the parent process's pool span as
    parent, but they ran concurrently elsewhere, so they are not subtracted.
    """
    own = {sid: t1 - t0 for sid, _, _, t0, t1 in spans}
    for sid, parent, _, t0, t1 in spans:
        if parent in own and parent >> 32 == sid >> 32:
            own[parent] -= t1 - t0
    return own


def covered_ns(spans: list[tuple], pid: int) -> int:
    """Time of `pid` inside some top-level span (these never overlap)."""
    return sum(t1 - t0 for sid, parent, _, t0, t1 in spans
               if parent == 0 and sid >> 32 == pid)


def layer_metrics(names: list[str], flat, counts: dict, main_pid: int, wall_ns: int) -> dict:
    """Every span-derived per-layer metric of one traced run, in seconds and counts."""
    spans = _unpack(names, flat)
    own = self_times(spans)
    by_id = {s[0]: s for s in spans}
    calls: Counter = Counter()
    self_s: Counter = Counter()
    total_s: Counter = Counter()
    rank_calls = 0
    rank_ns = 0
    minors = 0
    for sid, parent, name, t0, t1 in spans:
        calls[name] += 1
        self_s[name] += own[sid]
        total_s[name] += t1 - t0
        if name == "matrices.rref" and parent in by_id and by_id[parent][2] in RANK_PARENTS:
            rank_calls += 1
            rank_ns += own[sid]
        elif name == "polynomials.det":
            up = parent
            while up in by_id:
                if by_id[up][2] == "tangent.pencil":
                    minors += 1
                    break
                up = by_id[up][1]

    def sec(counter, name):
        return counter[name] * _NS

    visited = counts.get("symplectic.enumerate.visited", 0)
    isotropic = counts.get("symplectic.enumerate.isotropic", 0)
    pencils = calls["tangent.pencil"]
    out = {
        "symplectic.enumerate.visited": visited,
        "symplectic.enumerate.isotropic": isotropic,
        "symplectic.enumerate.hit_ratio": isotropic / visited if visited else 0.0,
        "symplectic.enumerate.self_s": sec(self_s, "symplectic.enumerate"),
        "symplectic.isotropy.calls": calls["symplectic.isotropy"],
        "symplectic.isotropy.self_s": sec(self_s, "symplectic.isotropy"),
        "symplectic.sample.calls": calls["symplectic.sample"],
        "symplectic.sample.stalls": counts.get("symplectic.sample.stalls", 0),
        "symplectic.sample.self_s": sec(self_s, "symplectic.sample"),
        "symplectic.forms.calls": calls["symplectic.forms"],
        "symplectic.forms.self_s": sec(self_s, "symplectic.forms"),
        "symplectic.forms.total_s": sec(total_s, "symplectic.forms"),
        "tangent.verify.self_s": sec(self_s, "tangent.verify"),
        "tangent.context.calls": calls["tangent.context"],
        "tangent.context.self_s": sec(self_s, "tangent.context"),
        "tangent.constraints.calls": calls["tangent.constraints"],
        "tangent.constraints.self_s": sec(self_s, "tangent.constraints"),
        "tangent.rank.calls": rank_calls,
        "tangent.rank.self_s": rank_ns * _NS,
        "tangent.pencil.calls": pencils,
        "tangent.pencil.degenerate": counts.get("tangent.pencil.degenerate", 0),
        "tangent.pencil.self_s": sec(self_s, "tangent.pencil"),
        "tangent.pencil.total_s": sec(total_s, "tangent.pencil"),
        "tangent.report.calls": calls["tangent.report"],
        "tangent.report.self_s": sec(self_s, "tangent.report"),
        "tangent.eigen.calls": calls["tangent.eigen"],
        "tangent.eigen.total_s": sec(total_s, "tangent.eigen"),
        "matrices.construct.calls": calls["matrices.construct"],
        "matrices.construct.self_s": sec(self_s, "matrices.construct"),
        "matrices.mul.calls": calls["matrices.mul"],
        "matrices.mul.self_s": sec(self_s, "matrices.mul"),
        "matrices.rref.calls": calls["matrices.rref"],
        "matrices.rref.self_s": sec(self_s, "matrices.rref"),
        "matrices.normal_form.calls": calls["matrices.normal_form"],
        "matrices.normal_form.self_s": sec(self_s, "matrices.normal_form"),
        "polynomials.det.calls": calls["polynomials.det"],
        "polynomials.det.self_s": sec(self_s, "polynomials.det"),
        "polynomials.minors_per_pencil": minors / pencils if pencils else 0.0,
        "polynomials.gcd.calls": calls["polynomials.gcd"],
        "polynomials.gcd.self_s": sec(self_s, "polynomials.gcd"),
        "polynomials.roots.calls": calls["polynomials.roots"],
        "polynomials.roots.self_s": sec(self_s, "polynomials.roots"),
        "integers.divisors.calls": calls["integers.divisors"],
        "integers.divisors.self_s": sec(self_s, "integers.divisors"),
        "cli.tasks": counts.get("cli.tasks", 0),
        "cli.pool.self_s": sec(self_s, "cli.pool"),
        "trace.spans": len(spans),
        "trace.uncovered_share": 1.0 - covered_ns(spans, main_pid) / wall_ns if wall_ns else 0.0,
    }
    return out


def median_metrics(runs: list[dict]) -> dict:
    return {name: statistics.median(run[name] for run in runs) for name in runs[0]}

"""Per-layer spans recorded around the program's public entry points.

:func:`install` replaces each entry point named in :data:`LAYERS` with a
wrapper that records one span per call: its layer, start and end on the
``perf_counter_ns`` clock, the index of the enclosing span *on the same
thread*, and the operation id the benchmark loop set.  Spans live in one
list per thread (``run_many`` workers run concurrently) and are only
written out when the run ends.  Nothing under ``src/`` is edited; the
wrappers exist only in the process that calls :func:`install`, which is
never the process that measures end-to-end metrics.

A layer's self time is its span's duration minus the durations of its
direct children.  Children are recorded on the parent's own thread and
nest strictly inside it, so self time can never be negative.  Work on
worker threads forms its own span trees; what no span on any thread
covers inside an operation's interval is reported as ``other``.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import threading
import time
from collections import defaultdict

#: layer -> entry points as (module, class or None, attribute)
LAYERS: dict[str, tuple[tuple[str, str | None, str], ...]] = {
    "lang.parse": (("repro.lang.parser", None, "parse_query"),),
    "typing.check": (("repro.typing.checker", None, "check_query"),),
    "effects.check": (("repro.effects.checker", "EffectChecker", "check_traced"),),
    "db.context": (("repro.db.database", "Database", "oid_types"),),
    "exec.decide": (("repro.exec.engine", None, "decide"),),
    "optimizer.optimize": (("repro.optimizer.planner", None, "optimize"),),
    "optimizer.cost_model": (("repro.optimizer.cost", "CostModel", "from_database"),),
    "exec.compile": (("repro.exec.compiler", None, "compile_plan"),),
    "exec.execute": (("repro.exec.engine", None, "execute_plan"),),
    "semantics.machine": (("repro.semantics.evaluator", None, "evaluate"),),
    "semantics.bigstep": (("repro.semantics.bigstep", None, "evaluate_bigstep"),),
    "db.store": (
        ("repro.db.store", "ObjectEnv", "with_object"),
        ("repro.db.store", "ObjectEnv", "with_objects"),
        ("repro.db.store", "ExtentEnv", "with_member"),
        ("repro.db.store", "ExtentEnv", "with_members"),
    ),
    "db.wal": (("repro.db.wal", "WriteAheadLog", "append"),),
    "db.statistics": (("repro.db.statistics", "StatisticsCatalog", "note_write"),),
    "exec.cache": (("repro.exec.cache", "PlanCache", "note_write"),),
    "sched.admit": (("repro.sched.scheduler", "QueryScheduler", "admit"),),
    "sched.conflict_graph": (("repro.sched.scheduler", "QueryScheduler", "conflict_graph"),),
    "replication.poll": (("repro.replication.replica", "Replica", "poll"),),
}


class Tracer:
    """Span buffers (one per thread) plus the current operation id."""

    def __init__(self) -> None:
        self.active = False
        self.op_id = -1
        self.fsyncs = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffers: list[list] = []

    def _thread_stack(self) -> list:
        """This thread's open spans; registers its span buffer on first use."""
        local = self._local
        local.stack = []
        local.spans = []
        with self._lock:
            self._buffers.append(local.spans)
        return local.stack

    def wrap(self, layer: str, fn):
        local = self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = self._thread_stack()
            elif stack and stack[-1][0] == layer:
                # recursion inside one layer is one span of that layer
                return fn(*args, **kwargs)
            spans = local.spans
            idx = len(spans)
            spans.append(None)
            parent = stack[-1][1] if stack else -1
            stack.append((layer, idx))
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[idx] = (layer, start, end, parent, self.op_id)

        return traced

    def spans(self) -> list[list]:
        """Every span, one list per thread (``None`` = still open)."""
        with self._lock:
            return [list(buf) for buf in self._buffers]


def install(tracer: Tracer) -> None:
    """Wrap every entry point in :data:`LAYERS`, and ``os.fsync``.

    A module-level function is replaced in *every* loaded ``repro``
    module that bound it by name (``from … import f``), so call sites
    that imported it directly are traced too.
    """
    for layer, targets in LAYERS.items():
        for module_name, cls_name, attr in targets:
            module = importlib.import_module(module_name)
            if cls_name is None:
                _wrap_function(tracer, layer, getattr(module, attr))
            else:
                _wrap_method(tracer, layer, getattr(module, cls_name), attr)
    real_fsync = os.fsync

    def counted_fsync(fd):
        if tracer.active:
            tracer.fsyncs += 1
        return real_fsync(fd)

    os.fsync = counted_fsync


def _wrap_function(tracer: Tracer, layer: str, fn) -> None:
    wrapped = tracer.wrap(layer, fn)
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is fn:
                setattr(module, attr, wrapped)


def _wrap_method(tracer: Tracer, layer: str, cls, attr: str) -> None:
    raw = cls.__dict__[attr]
    if isinstance(raw, staticmethod):
        setattr(cls, attr, staticmethod(tracer.wrap(layer, raw.__func__)))
    else:
        setattr(cls, attr, tracer.wrap(layer, raw))


def layer_totals(
    spans_by_thread: list[list], op_intervals: list[tuple[int, int]]
) -> tuple[dict[str, int], dict[str, int], int]:
    """``(self_ns, calls, other_ns)`` summed over every operation.

    ``other_ns`` is, per operation, the part of its interval that no
    top-level span on any thread covers.
    """
    self_ns: dict[str, int] = defaultdict(int)
    calls: dict[str, int] = defaultdict(int)
    roots: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for spans in spans_by_thread:
        child_ns = [0] * len(spans)
        for span in spans:
            if span is not None and span[3] >= 0:
                child_ns[span[3]] += span[2] - span[1]
        for idx, span in enumerate(spans):
            if span is None or span[4] < 0:
                continue
            layer, start, end, parent, op = span
            self_ns[layer] += end - start - child_ns[idx]
            calls[layer] += 1
            if parent < 0:
                roots[op].append((start, end))
    other_ns = 0
    for op, (lo, hi) in enumerate(op_intervals):
        covered, cursor = 0, lo
        for start, end in sorted(roots.get(op, ())):
            start, end = max(start, cursor), min(end, hi)
            if end > start:
                covered += end - start
                cursor = end
        other_ns += hi - lo - covered
    return dict(self_ns), dict(calls), other_ns

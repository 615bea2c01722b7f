"""Span recording around calls into the layers of ``repro``.

The benchmark does not change the program to trace it.  ``install`` swaps
public functions and methods of ``repro`` for wrappers that time each call
and restores the originals on ``uninstall``.  A function imported by name
into other modules (``from repro.opt import optimize as plan_body``) is
replaced in every loaded ``repro`` module that holds it, so each call site
goes through the wrapper.

Each call becomes a span: name, start, end, the id of the enclosing span on
the same thread, and the request id the caller set.  A layer's self time is
the sum over its spans of the duration minus the time covered by direct
child spans.  Spans are kept in memory (the first ``MAX_SPANS``) and
written out as JSON lines by ``dump``; the per-span aggregates cover every
span, kept or not.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
from time import perf_counter

MAX_SPANS = 200_000

# (module, attribute path, span name).  The span name's prefix before the
# first dot is the layer.
TARGETS = [
    ("repro.lang.parser", "parse_program", "lang.parse_program"),
    ("repro.lang.parser", "parse_query", "lang.parse_query"),
    ("repro.vm.compiler", "ProgramCompiler.compile_program", "compile.program"),
    ("repro.opt.passes", "optimize", "opt.plan"),
    ("repro.nail.seminaive", "seminaive_eval", "nail.fixpoint"),
    ("repro.nail.seminaive", "incremental_eval", "nail.repair"),
    ("repro.col.kernels", "run_probe", "col.probe"),
    ("repro.col.kernels", "run_broadcast", "col.broadcast"),
    ("repro.col.kernels", "run_member", "col.member"),
    ("repro.col.kernels", "ColumnarContext.glue_probe_table", "col.glue_probe"),
    ("repro.storage.relation", "Relation.insert", "storage.insert"),
    ("repro.storage.relation", "Relation.insert_new", "storage.insert_new"),
    ("repro.vm.machine", "Machine.exec_stmt", "vm.stmt"),
    ("repro.txn.manager", "TransactionManager.commit", "txn.commit"),
    ("repro.txn.manager", "TransactionManager.record_insert", "txn.autocommit_insert"),
    ("repro.txn.manager", "TransactionManager.record_delete", "txn.autocommit_delete"),
    ("repro.txn.wal", "WriteAheadLog.append_commit", "txn.wal_append"),
    ("os", "fsync", "txn.fsync"),
    ("repro.txn.wal", "replay_wal", "txn.replay"),
    ("repro.mvcc.store", "VersionStore.publish", "mvcc.publish"),
    ("repro.mvcc.store", "VersionStore.pin", "mvcc.pin"),
    ("repro.sub.manager", "SubscriptionManager.on_commit", "sub.flush"),
    ("repro.sub.manager", "Subscription.emit", "sub.emit"),
    ("repro.server.server", "Session.dispatch", "server.dispatch"),
    ("repro.server.protocol", "encode", "server.encode"),
    ("repro.server.protocol", "decode", "server.decode"),
]


def _rounds_of(result) -> int:
    """``seminaive_eval`` returns its round count, ``incremental_eval`` a
    ``(rounds, new_rows)`` pair."""
    return result[0] if isinstance(result, tuple) else int(result)


# Span names whose return value carries a count worth keeping.
RESULT_COUNTS = {
    "nail.fixpoint": ("nail.rounds", _rounds_of),
    "nail.repair": ("nail.rounds", _rounds_of),
}


class SpanRecorder:
    """Collects spans from any number of threads while installed."""

    def __init__(self):
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._patches: list = []
        self.spans: list = []
        # name -> [calls, total seconds, self seconds]
        self.totals: dict = {}
        # extra counts taken from return values (nail.rounds)
        self.counts: dict = {}
        self.missing: set = set()

    # -------------------------------------------------------------- #
    # request ids

    def set_request(self, request_id) -> None:
        self._local.request = request_id

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -------------------------------------------------------------- #
    # wrapping

    def _wrap(self, name: str, fn):
        recorder = self
        count = RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = recorder._stack()
            span_id = next(recorder._ids)
            parent = stack[-1] if stack else None
            frame = [span_id, 0.0]  # id, seconds covered by child spans
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                recorder._record(name, span_id, parent, start, end, duration - frame[1])
            if count is not None:
                key, extract = count
                with recorder._lock:
                    recorder.counts[key] = recorder.counts.get(key, 0) + extract(result)
            return result

        return traced

    def _record(self, name, span_id, parent, start, end, self_time) -> None:
        request = getattr(self._local, "request", None)
        with self._lock:
            entry = self.totals.get(name)
            if entry is None:
                entry = self.totals[name] = [0, 0.0, 0.0]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += self_time
            if len(self.spans) < MAX_SPANS:
                self.spans.append(
                    (span_id, name, start, end, parent[0] if parent else None, request)
                )

    def install(self) -> None:
        """Wrap every target the program still has.  A target it lost is
        reported on standard error and its layer reads 0."""
        if self._patches:
            return
        import importlib

        for module_name, path, span_name in TARGETS:
            owner_path, _, attr = path.rpartition(".")
            try:
                owner = module = importlib.import_module(module_name)
                for part in filter(None, owner_path.split(".")):
                    owner = getattr(owner, part)
                original = vars(owner)[attr]
            except (ImportError, AttributeError, KeyError):
                if (module_name, path) not in self.missing:
                    self.missing.add((module_name, path))
                    print(f"perfbench: no {module_name}.{path} to trace", file=sys.stderr)
                continue
            wrapper = self._wrap(span_name, original)
            self._patch(owner, attr, original, wrapper)
            if owner is module and module_name != "os":
                # Re-bind names other repro modules imported directly.
                for other_name, other in list(sys.modules.items()):
                    if other is module or other is None:
                        continue
                    if not (other_name == "repro" or other_name.startswith("repro.")):
                        continue
                    for key, value in list(vars(other).items()):
                        if value is original:
                            self._patch(other, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -------------------------------------------------------------- #
    # results

    def snapshot(self) -> dict:
        """Aggregates so far: per span name calls/total/self, plus counts."""
        with self._lock:
            return {
                "totals": {name: list(entry) for name, entry in self.totals.items()},
                "counts": dict(self.counts),
            }

    def dump(self, path: str) -> int:
        """Write the kept spans as JSON lines; returns how many."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with self._lock:
            spans = list(self.spans)
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent, request in spans:
                handle.write(json.dumps({
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent, "request": request,
                }) + "\n")
        return len(spans)


def diff(after: dict, before: dict) -> dict:
    """Aggregates accumulated between two ``snapshot`` calls."""
    totals = {}
    for name, (calls, total, self_time) in after["totals"].items():
        b_calls, b_total, b_self = before["totals"].get(name, (0, 0.0, 0.0))
        if calls - b_calls:
            totals[name] = [calls - b_calls, total - b_total, self_time - b_self]
    counts = {
        key: value - before["counts"].get(key, 0)
        for key, value in after["counts"].items()
    }
    return {"totals": totals, "counts": counts}


def add(into: dict, other: dict) -> dict:
    """Sum two aggregate dicts (as returned by ``diff``)."""
    for name, values in other["totals"].items():
        entry = into["totals"].setdefault(name, [0, 0.0, 0.0])
        for i in range(3):
            entry[i] += values[i]
    for key, value in other["counts"].items():
        into["counts"][key] = into["counts"].get(key, 0) + value
    return into


def empty() -> dict:
    return {"totals": {}, "counts": {}}


def layer_self_ms(agg: dict, layer: str) -> float:
    """Self time of every span of ``layer`` (name prefix), in ms."""
    return 1000.0 * sum(
        entry[2] for name, entry in agg["totals"].items() if name.split(".", 1)[0] == layer
    )


def span_self_ms(agg: dict, *names: str) -> float:
    return 1000.0 * sum(agg["totals"].get(name, (0, 0.0, 0.0))[2] for name in names)


def calls(agg: dict, *names: str) -> int:
    return sum(agg["totals"].get(name, (0, 0.0, 0.0))[0] for name in names)

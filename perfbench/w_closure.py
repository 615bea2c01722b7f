"""nail-closure: NAIL! transitive closure, one fresh system per operation.

Each operation builds a system from rule text, loads the graph's edges in
batches, answers ``path(X, Y)?`` and then ``path(s, Y)?`` demand-driven
(``query_magic``) for three sources.  The graphs alternate between layered
bundle chains (wide deltas) and sparse random DAGs (many narrow rounds).
"""

from __future__ import annotations

from collections import Counter
from time import perf_counter

import checks
import gen
from common import Ledger, TracedRun, probe_setup, run_rounds, self_peak_rss_mb
from layers import layer_metrics

RULES = """
path(X, Y) :- edge(X, Y).
path(X, Z) :- path(X, Y) & edge(Y, Z).
"""

BATCH = 32  # edges per EDB load call: one update sample each


def build(edges, ledger=None):
    from repro import GlueNailSystem

    system = GlueNailSystem()
    system.load(RULES)
    for start in range(0, len(edges), BATCH):
        t0 = perf_counter()
        system.facts("edge", edges[start:start + BATCH])
        if ledger is not None:
            ledger.update(perf_counter() - t0)
    system.compile()
    return system


def ready(seed: int) -> None:
    """Set-up as a user pays it: the first graph loaded, rules compiled,
    a first query answered."""
    _, edges, sources = gen.closure_graphs(seed)[0]
    system = build(edges)
    system.query(f"edge({sources[0]}, Y)?")


def run(seed: int, seconds: float, trace: bool):
    from repro import rows_to_python

    graphs = gen.closure_graphs(seed)
    expected = {}
    setup_s = None if trace else probe_setup("nail-closure", seed)
    ledger = Ledger()
    traced = TracedRun(trace)
    problems: list = []
    counters: Counter = Counter()
    kernel_cache = [0, 0]

    def operation(index, graph_index, counted, record):
        shape, edges, sources = graphs[graph_index]
        traced.recorder.set_request(f"{index}.{graph_index}")
        system = build(edges, record)
        queries = [("path(X, Y)?", None)] + [(f"path({s}, Y)?", s) for s in sources]
        for text, source in queries:
            t0 = perf_counter()
            if source is None:
                rows = rows_to_python(system.query(text))
            else:
                rows = rows_to_python(system.query_magic(text))
            elapsed = perf_counter() - t0
            if record is not None:
                record.read(elapsed, len(rows))
            t0 = perf_counter()
            key = (graph_index, source)
            if key not in expected:
                expected[key] = (checks.closure(edges) if source is None
                                 else checks.reach(edges, source))
            problems.extend(checks.compare(f"{shape}#{graph_index} {text}", rows,
                                           expected[key]))
            ledger.checking += perf_counter() - t0
        if counted:
            counters.update(system.db.counters.snapshot())
            kernel_cache[0] += system.db.columnar.hits
            kernel_cache[1] += system.db.columnar.misses

    # One untimed round fills lazy state (imports, bytecode, caches).
    for graph_index in range(len(graphs)):
        operation(-1, graph_index, False, None)

    def one_round(index, counted):
        before = ledger.attempted
        for graph_index in range(len(graphs)):
            operation(index, graph_index, counted, ledger)
        return ledger.attempted - before

    run_rounds(seconds, one_round, traced, ledger)
    if trace:
        metrics = layer_metrics(traced, counters, tuple(kernel_cache), {})
    else:
        metrics = ledger.end_to_end(setup_s, self_peak_rss_mb())
    return problems, ledger.attempted, ledger.failed, metrics, traced

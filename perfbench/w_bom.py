"""glue-bom: the bill-of-materials program under a closed loop of reads
and keyed writes.

Per round and per root: ``explode(root)`` (a ``repeat`` loop, ``sum``
aggregation, pipeline breaks), ``build(root)`` (keyed ``+=[P]`` writes to
``stock`` and ``shortage``), ``uses(root, C)?`` and ``direct_cost(P, T)?``.
The two queries read IDB relations that do not depend on ``stock``, so
their caches should survive the writes.
"""

from __future__ import annotations

from collections import Counter
from time import perf_counter

import checks
import gen
from common import Ledger, TracedRun, probe_setup, run_rounds, self_peak_rss_mb
from layers import layer_metrics

# The program of examples/bill_of_materials.py, fixed here so the workload
# does not change when the example does, with one correction: the example's
# ``explode`` keeps its frontier and demand as sets of (part, quantity), so
# two paths that reach a part with the same quantity product merge and the
# leaf demand comes out short.  Here each round of the loop sums the
# frontier per (part, depth), and demand keeps the depth, so every path
# counts.
PROGRAM = """
uses(P, C) :- assembly(P, C, _).
uses(P, C) :- uses(P, M) & assembly(M, C, _).

leaf(P) :- part(P) & !has_children(P).
has_children(P) :- assembly(P, _, _).

direct_cost(P, T) :-
  assembly(P, C, Q) & unit_cost(C, U) & V = Q * U &
  group_by(P) & T = sum(V).

proc explode(Root:Part, Qty)
rels demand(P, Q, D), frontier(P, Q, D);
  frontier(Root, 1, 0) := in(Root).
  repeat
    demand(P, Q, D) += frontier(P, Q, D).
    frontier(C, Q2, D2) :=
      frontier(P, Q, D) & assembly(P, C, QC) & V = Q * QC & D2 = D + 1 &
      group_by(C, D2) & Q2 = sum(V).
  until empty(frontier(_, _, _));
  return(Root:Part, Qty) :=
    demand(Part, Q, D) & leaf(Part) & group_by(Part) & Qty = sum(Q).
end

proc build(Root:Part, Short)
rels needs(P, Q);
  needs(P, Q) := in(Root) & explode(Root, P, Q).
  stock(P, S2) +=[P] needs(P, Q) & stock(P, S) & S2 = S - Q.
  shortage(P, M) +=[P] stock(P, S) & S < 0 & M = 0 - S.
  return(Root:Part, Short) := shortage(Part, Short).
end
"""


def build_system(data):
    from repro import GlueNailSystem

    system = GlueNailSystem()
    system.load(PROGRAM)
    system.facts("part", [(p,) for p in data["parts"]])
    system.facts("assembly", data["assembly"])
    system.facts("unit_cost", data["unit_cost"])
    system.facts("stock", data["stock"])
    system.compile()
    return system


def ready(seed: int) -> None:
    data = gen.bom(seed)
    build_system(data).query(f"assembly({data['roots'][0]}, C, Q)?")


def run(seed: int, seconds: float, trace: bool):
    from repro import rows_to_python

    data = gen.bom(seed)
    model = checks.BomModel(data)
    roots = data["roots"]
    expected_explode = {root: model.explode(root) for root in roots}
    expected_uses = {root: model.uses(root) for root in roots}
    expected_cost = model.direct_cost()
    setup_s = None if trace else probe_setup("glue-bom", seed)
    system = build_system(data)
    ledger = Ledger()
    traced = TracedRun(trace)
    problems: list = []

    def check(label, rows, expected):
        """Compare outside the timed phase; ``expected`` may be a thunk."""
        t0 = perf_counter()
        if callable(expected):
            expected = expected()
        problems.extend(checks.compare(label, rows, expected))
        ledger.checking += perf_counter() - t0

    def one_round(index, record):
        before = ledger.attempted
        for op_index, root in enumerate(roots):
            traced.recorder.set_request(f"{index}.{op_index}")
            t0 = perf_counter()
            rows = rows_to_python(system.call("explode", [(root,)]))
            if record is not None:
                record.read(perf_counter() - t0, len(rows))
            check(f"explode({root})", rows, expected_explode[root])

            t0 = perf_counter()
            rows = rows_to_python(system.call("build", [(root,)]))
            if record is not None:
                record.update(perf_counter() - t0)
            check(f"build({root})", rows, lambda: model.build(root))

            t0 = perf_counter()
            rows = rows_to_python(system.query(f"uses({root}, C)?"))
            if record is not None:
                record.read(perf_counter() - t0, len(rows))
            check(f"uses({root}, C)", rows, expected_uses[root])

            t0 = perf_counter()
            rows = rows_to_python(system.query("direct_cost(P, T)?"))
            if record is not None:
                record.read(perf_counter() - t0, len(rows))
            check("direct_cost(P, T)", rows, expected_cost)
        return ledger.attempted - before

    # One untimed round fills the IDB caches and lazy state.
    one_round(-1, None)
    counters = Counter()
    kernel_cache = [0, 0]

    def timed_round(index, counted):
        if not counted:
            return one_round(index, ledger)
        before = system.db.counters.snapshot()
        columnar = system.db.columnar
        hits, misses = columnar.hits, columnar.misses
        ops = one_round(index, ledger)
        after = system.db.counters.snapshot()
        counters.update({k: after[k] - before[k] for k in after})
        kernel_cache[0] += columnar.hits - hits
        kernel_cache[1] += columnar.misses - misses
        return ops

    run_rounds(seconds, timed_round, traced, ledger)
    check("stock(P, S)", rows_to_python(system.rows("stock", 2)), model.stock_rows())
    if trace:
        metrics = layer_metrics(traced, counters, tuple(kernel_cache), {})
    else:
        metrics = ledger.end_to_end(setup_s, self_peak_rss_mb())
    return problems, ledger.attempted, ledger.failed, metrics, traced

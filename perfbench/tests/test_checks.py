"""Tests of the benchmark's own checkers, span wrappers and metric names.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q

Each checker must accept the program's real answer and reject the same
answer with one row dropped or one row added.
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import gen  # noqa: E402
import layers  # noqa: E402
from common import Ledger, TracedRun  # noqa: E402
from spans import SpanRecorder  # noqa: E402

from repro import rows_to_python  # noqa: E402


def mutations(rows, extra_row):
    """The answer with its first row dropped, and with ``extra_row`` added."""
    rows = list(rows)
    assert rows and extra_row not in rows
    return [rows[1:], rows + [extra_row]]


# ------------------------------------------------------------------ #
# nail-closure


@pytest.fixture(scope="module")
def closure_system():
    import w_closure

    edges = [(1, 2), (2, 3), (3, 4), (2, 5), (6, 1)]
    return edges, w_closure.build(edges)


def test_full_closure_checker(closure_system):
    edges, system = closure_system
    rows = rows_to_python(system.query("path(X, Y)?"))
    expected = checks.closure(edges)
    assert checks.compare("closure", rows, expected) == []
    for bad in mutations(rows, (4, 1)):
        assert checks.compare("closure", bad, expected)


def test_reachability_checker(closure_system):
    edges, system = closure_system
    rows = rows_to_python(system.query_magic("path(2, Y)?"))
    expected = checks.reach(edges, 2)
    assert checks.compare("reach", rows, expected) == []
    for bad in mutations(rows, (2, 6)):
        assert checks.compare("reach", bad, expected)


def test_duplicate_rows_are_rejected():
    assert checks.compare("dup", [(1, 2), (1, 2)], {(1, 2)})


# ------------------------------------------------------------------ #
# glue-bom


@pytest.fixture(scope="module")
def bom():
    import w_bom

    data = gen.bom(7)
    return data, checks.BomModel(data), w_bom.build_system(data)


def test_bom_checkers(bom):
    data, model, system = bom
    root = data["roots"][0]

    explode = rows_to_python(system.call("explode", [(root,)]))
    assert checks.compare("explode", explode, model.explode(root)) == []
    for bad in mutations(explode, (root, "p3_0", -1)):
        assert checks.compare("explode", bad, model.explode(root))

    uses = rows_to_python(system.query(f"uses({root}, C)?"))
    assert checks.compare("uses", uses, model.uses(root)) == []
    for bad in mutations(uses, (root, root)):
        assert checks.compare("uses", bad, model.uses(root))

    cost = rows_to_python(system.query("direct_cost(P, T)?"))
    assert checks.compare("cost", cost, model.direct_cost()) == []
    for bad in mutations(cost, ("p3_0", 1)):
        assert checks.compare("cost", bad, model.direct_cost())

    shortages = rows_to_python(system.call("build", [(root,)]))
    expected = model.build(root)
    assert checks.compare("build", shortages, expected) == []
    for bad in mutations(shortages, (root, "p0_0", 1)):
        assert checks.compare("build", bad, expected)

    stock = rows_to_python(system.rows("stock", 2))
    assert checks.compare("stock", stock, model.stock_rows()) == []
    # One tuple per key: a second value for a part is an error too.
    for bad in mutations(stock, (stock[0][0], stock[0][1] + 1)):
        assert checks.compare("stock", bad, model.stock_rows())


# ------------------------------------------------------------------ #
# server-durable


def _history():
    base = [(1, 2), (2, 3)]
    history = checks.EdgeHistory(base)
    for change in [("insert", [(3, 4)]), ("insert", [(4, 5)]), ("delete", [(2, 3)]),
                   ("delete", [(1, 2), (4, 5)])]:
        history.append(*change)
    return history


def test_prefix_read_checker():
    history = _history()
    # A read sent after commit 1 was acknowledged and returned before
    # commit 3 was sent may show prefix 1 or 2.
    path_after_2 = sorted(checks.reach({(1, 2), (2, 3), (3, 4), (4, 5)}, 1))
    good = [(1, 2, "path", 1, path_after_2)]
    assert checks.check_prefix_reads(history, good) == []
    for bad in mutations(path_after_2, (1, 9)):
        assert checks.check_prefix_reads(history, [(1, 2, "path", 1, bad)])
    # Prefix 3 (after the delete) is outside [1, 2].
    assert checks.check_prefix_reads(history, [(1, 2, "path", 1, [(1, 2)])])

    edges_after_1 = sorted({(1, 2), (2, 3), (3, 4)})
    assert checks.check_prefix_reads(history, [(0, 1, "edge", None, edges_after_1)]) == []
    for bad in mutations(edges_after_1, (9, 9)):
        assert checks.check_prefix_reads(history, [(0, 1, "edge", None, bad)])


def test_final_state_checker():
    history = _history()
    final = sorted(history.final())
    assert final == [(3, 4)]
    assert checks.compare("final", final, history.final()) == []
    for bad in mutations(final, (2, 3)):
        assert checks.compare("final", bad, history.final())


def test_notification_checker():
    history = _history()
    notes = [(1, "insert", [(3, 4)]), (2, "insert", [(4, 5)]), (3, "delete", [(2, 3)]),
             (4, "delete", [(4, 5), (1, 2)])]
    assert checks.check_notifications(history, notes) == []
    for bad in mutations(notes[3][2], (9, 9)):
        assert checks.check_notifications(history, notes[:3] + [(4, "delete", bad)])
    assert checks.check_notifications(history, notes[:2] + [(3, "delete", [])] + notes[3:])
    assert checks.check_notifications(history, notes[:3])
    assert checks.check_notifications(history, [notes[1], notes[0]] + notes[2:])


def test_edge_writer_keeps_the_graph_acyclic_and_its_size():
    base, _ = gen.server_graph(5)
    writer = gen.EdgeWriter(5, base)
    present = set(writer.start)
    assert len(present) == len(base) + gen.SERVER_WINDOW
    width = gen.SERVER_GRAPH["width"]
    history = checks.EdgeHistory(writer.start)
    for _ in range(200):
        for change in writer.round() + [writer.trim()]:
            kind, edges = change
            for a, b in edges:
                assert a // width < b // width
                assert ((a, b) in present) == (kind == "delete")
            checks.apply(present, change)
            history.append(*change)
        assert len(present) == len(writer.start)
    assert present == writer.present == history.final()


# ------------------------------------------------------------------ #
# span wrappers and metric names


def test_spans_restore_the_program():
    import repro.nail.bodyeval as bodyeval
    import repro.opt as opt
    from repro.lang import parser

    originals = (parser.parse_query, opt.optimize, bodyeval._optimize)
    recorder = SpanRecorder()
    recorder.install()
    try:
        assert parser.parse_query is not originals[0]
        assert bodyeval._optimize is not originals[2]
        parser.parse_query("p(X)?")
    finally:
        recorder.uninstall()
    assert (parser.parse_query, opt.optimize, bodyeval._optimize) == originals
    assert recorder.totals["lang.parse_query"][0] == 1


def test_self_time_excludes_children():
    recorder = SpanRecorder()
    inner = recorder._wrap("b.inner", lambda: sum(range(20000)))
    outer = recorder._wrap("a.outer", lambda: inner() + inner())
    outer()
    calls, total, self_time = recorder.totals["a.outer"]
    inner_total = recorder.totals["b.inner"][1]
    assert calls == 1
    assert self_time == pytest.approx(total - inner_total, abs=1e-6)


def test_round_rates_take_the_lower_quartile_and_leave_out_checking():
    ledger = Ledger()
    for read_s in (0.1, 0.2, 0.3, 0.4, 0.5):
        ledger.begin_round()
        ledger.read(read_s, 60)
        ledger.other()
        ledger.other(failed=True)
        ledger.checking += 1.0
        ledger.end_round(3.0)
    assert ledger.round_ops == [1.0] * 5  # two done in 3 s, 1 s of it checking
    assert ledger.round_rows == pytest.approx([600, 300, 200, 150, 120])
    for _ in range(200):
        ledger.read(0.001, 0)
        ledger.update(0.001)
    e2e = ledger.end_to_end(0.5, 40.0)
    assert e2e["derived_rows_per_s"][0] == pytest.approx(150)
    assert e2e["ops_per_s"][0] == pytest.approx(1.0)


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    ledger = Ledger()
    for _ in range(4):
        ledger.begin_round()
        for _ in range(50):
            ledger.read(0.001, 3)
            ledger.update(0.002)
        ledger.end_round(1.0)
    e2e = ledger.end_to_end(0.5, 40.0)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: unit for name, (_, unit) in e2e.items()
    }
    traced = TracedRun(True)
    traced.plain_rounds, traced.traced_rounds = [1.0], [1.0]
    traced.traced_ops, traced.counted_rounds = 1, 1
    per_layer = layers.layer_metrics(traced, {}, (0, 0), {})
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (_, unit) in per_layer.items()
    }

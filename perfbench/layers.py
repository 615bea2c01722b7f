"""Per-layer metrics of a traced run.

Times are self time per operation of the workload, in ms, over every
traced round.  Counts are per round, over the first counted rounds.
Layers a workload never calls read 0.
"""

from __future__ import annotations

from spans import calls, layer_self_ms, span_self_ms

# CostCounters fields reported as per-round counts.
COUNTERS = {
    "nail.idb_cache_hits": "idb_cache_hits",
    "nail.idb_delta_repairs": "idb_delta_repairs",
    "nail.idb_invalidations": "idb_invalidations",
    "storage.inserts": "inserts",
    "storage.duplicate_inserts": "duplicate_inserts",
    "storage.tuples_scanned": "tuples_scanned",
    "storage.index_probe_tuples": "index_probe_tuples",
    "storage.index_builds": "index_builds",
    "vm.pipeline_breaks": "pipeline_breaks",
    "vm.materialized_tuples": "materialized_tuples",
    "vm.glue_hash_joins": "glue_hash_joins",
}

# Metrics only the server workload measures; the others report 0.
SERVER_ONLY = {
    "txn.wal_bytes": "B",
    "txn.replay_ms": "ms",
    "server.wire_ms": "ms",
    "sub.notify_p50_ms": "ms",
    "txn.commit_p50_ms": "ms",
    "txn.recovery_s": "s",
    "txn.wal_bytes_per_fact": "B",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(traced, counters: dict, kernel_cache: tuple, extra: dict) -> dict:
    """``counters`` sums CostCounters over the counted rounds,
    ``kernel_cache`` is the columnar kernel cache's (hits, misses) over the
    same rounds, ``extra`` carries the server-only metrics."""
    t = traced.time_agg
    c = traced.count_agg
    ops = traced.traced_ops
    rounds = traced.counted_rounds

    def per_op(ms):
        return ms / ops

    def per_round(n):
        return n / rounds

    cnt = {name: per_round(counters.get(field, 0)) for name, field in COUNTERS.items()}
    hits, misses = kernel_cache
    metrics = {
        "lang.parse_ms": (per_op(layer_self_ms(t, "lang")), "ms"),
        "lang.parses": (per_round(calls(c, "lang.parse_program", "lang.parse_query")), "count"),
        "compile.ms": (per_op(layer_self_ms(t, "compile")), "ms"),
        "opt.plan_ms": (per_op(layer_self_ms(t, "opt")), "ms"),
        "opt.plans": (per_round(calls(c, "opt.plan")), "count"),
        "nail.fixpoint_ms": (per_op(layer_self_ms(t, "nail")), "ms"),
        "nail.rounds": (per_round(c["counts"].get("nail.rounds", 0)), "count"),
        "nail.idb_cache_hit_ratio": (_ratio(
            counters.get("idb_cache_hits", 0),
            counters.get("idb_cache_hits", 0) + counters.get("idb_delta_repairs", 0)
            + counters.get("idb_invalidations", 0),
        ), "ratio"),
        "col.kernel_ms": (per_op(layer_self_ms(t, "col")), "ms"),
        "col.kernel_calls": (per_round(calls(
            c, "col.probe", "col.broadcast", "col.member", "col.glue_probe")),
                             "count"),
        "col.kernel_cache_hit_ratio": (_ratio(hits, hits + misses), "ratio"),
        "storage.insert_ms": (per_op(layer_self_ms(t, "storage")), "ms"),
        "storage.useful_insert_ratio": (_ratio(
            counters.get("inserts", 0),
            counters.get("inserts", 0) + counters.get("duplicate_inserts", 0),
        ), "ratio"),
        "vm.stmt_ms": (per_op(layer_self_ms(t, "vm")), "ms"),
        "vm.stmts": (per_round(calls(c, "vm.stmt")), "count"),
        "txn.commit_ms": (per_op(span_self_ms(
            t, "txn.commit", "txn.autocommit_insert", "txn.autocommit_delete")), "ms"),
        "txn.wal_append_ms": (per_op(span_self_ms(t, "txn.wal_append")), "ms"),
        "txn.fsync_ms": (per_op(span_self_ms(t, "txn.fsync")), "ms"),
        "txn.fsyncs": (per_round(calls(c, "txn.fsync")), "count"),
        "mvcc.publish_ms": (per_op(span_self_ms(t, "mvcc.publish")), "ms"),
        "mvcc.publishes": (per_round(calls(c, "mvcc.publish")), "count"),
        "mvcc.pins": (per_round(calls(c, "mvcc.pin")), "count"),
        "sub.flush_ms": (per_op(layer_self_ms(t, "sub")), "ms"),
        "sub.notifications": (per_round(calls(c, "sub.emit")), "count"),
        "server.dispatch_ms": (per_op(span_self_ms(t, "server.dispatch")), "ms"),
        "server.encode_ms": (per_op(span_self_ms(t, "server.encode")), "ms"),
        "server.decode_ms": (per_op(span_self_ms(t, "server.decode")), "ms"),
        "server.requests": (per_round(calls(c, "server.dispatch")), "count"),
        "trace.overhead_pct": (traced.overhead_pct(), "%"),
    }
    for name, value in cnt.items():
        metrics[name] = (value, "count")
    for name, unit in SERVER_ONLY.items():
        metrics[name] = (extra.get(name, 0.0), unit)
    return metrics

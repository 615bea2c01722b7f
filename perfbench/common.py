"""Shared pieces of the workloads: timing records, percentiles, memory,
the whole-round loop, and the traced-run bookkeeping."""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter

from spans import SpanRecorder, add, diff, empty

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

# Rounds of the traced run whose counts are reported (per round).  Counting
# a fixed window, not the whole run, keeps counts independent of how many
# rounds fit in the run.
COUNT_ROUNDS = 2
P95_SAMPLES = 200
MIN_ROUNDS = 4  # timed rounds a quartile of round rates needs


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pid_peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def p95(samples) -> float:
    """The 95th percentile, interpolated between closest ranks."""
    return statistics.quantiles(samples, n=20, method="inclusive")[-1]


def quartile(samples, which: int) -> float:
    """The first (``which`` 1), second or third quartile."""
    return statistics.quantiles(samples, n=4, method="inclusive")[which - 1]


class Ledger:
    """Latency samples, counts and per-round rates of one run's timed
    phase."""

    def __init__(self):
        self.reads: list = []      # ms
        self.updates: list = []    # ms
        self.read_rows = 0
        self.read_seconds = 0.0
        self.checking = 0.0        # seconds spent checking answers
        self.attempted = 0
        self.failed = 0
        self.round_ops: list = []   # ops/s of each timed round
        self.round_rows: list = []  # rows/s of read time of each timed round
        self._mark = None

    def read(self, seconds: float, rows: int) -> None:
        self.reads.append(seconds * 1000.0)
        self.read_rows += rows
        self.read_seconds += seconds
        self.attempted += 1

    def update(self, seconds: float) -> None:
        self.updates.append(seconds * 1000.0)
        self.attempted += 1

    def other(self, failed: bool = False) -> None:
        self.attempted += 1
        if failed:
            self.failed += 1

    def _totals(self):
        return (self.attempted - self.failed, self.read_rows, self.read_seconds,
                self.checking)

    def begin_round(self) -> None:
        self._mark = self._totals()

    def end_round(self, seconds: float) -> None:
        """Record the rates of the round begun last, which took
        ``seconds`` of wall time, checking included."""
        done, rows, read_s, checking = (
            now - then for now, then in zip(self._totals(), self._mark))
        self.round_ops.append(done / (seconds - checking))
        self.round_rows.append(rows / read_s)

    def merge(self, other: "Ledger") -> None:
        """Fold in a ledger another thread kept."""
        self.reads.extend(other.reads)
        self.updates.extend(other.updates)
        self.read_rows += other.read_rows
        self.read_seconds += other.read_seconds
        self.attempted += other.attempted
        self.failed += other.failed

    def end_to_end(self, setup_s: float, rss_mb: float, rate_quartile: int = 1) -> dict:
        # A 95th percentile needs ten samples beyond it.
        if min(len(self.reads), len(self.updates)) < P95_SAMPLES:
            raise RuntimeError(
                f"{len(self.reads)} reads and {len(self.updates)} updates; "
                f"a 95th percentile needs {P95_SAMPLES} of each"
            )
        if len(self.round_ops) < MIN_ROUNDS:
            raise RuntimeError(
                f"{len(self.round_ops)} timed rounds; the rates need {MIN_ROUNDS}"
            )
        # The rates are a quartile of the rounds' rates: by default the
        # lower one.  This host runs in spells of steady speed broken by
        # faster, erratic bursts; the bursts move a whole run's mean or
        # median rate by up to 20% from one run to the next, while the
        # slower rounds, like the 95th percentiles, vary far less.
        return {
            "setup_s": (setup_s, "s"),
            "query_p50_ms": (statistics.median(self.reads), "ms"),
            "query_p95_ms": (p95(self.reads), "ms"),
            "update_p95_ms": (p95(self.updates), "ms"),
            "ops_per_s": (quartile(self.round_ops, rate_quartile), "ops/s"),
            "derived_rows_per_s": (quartile(self.round_rows, rate_quartile), "rows/s"),
            "peak_rss_mb": (rss_mb, "MB"),
        }


class TracedRun:
    """Alternates untraced and traced rounds in a ``--trace 1`` run.

    Even rounds run plain, odd rounds run with the span wrappers
    installed; the overhead is the ratio of the median round durations.
    Time metrics come from every traced round, counts from the first
    ``COUNT_ROUNDS`` traced rounds.
    """

    def __init__(self, enabled: bool, toggle=None):
        self.enabled = enabled
        self.recorder = SpanRecorder()
        # ``toggle(on)`` switches tracing where the work runs; in-process
        # that is this recorder, for the server a request to its launcher.
        self.toggle = toggle or self._toggle_local
        self.plain_rounds: list = []
        self.traced_rounds: list = []
        self.traced_ops = 0
        self.time_agg = empty()
        self.count_agg = empty()
        self.counted_rounds = 0
        self._before = None

    def _toggle_local(self, on: bool) -> dict:
        if on:
            self.recorder.install()
        else:
            self.recorder.uninstall()
        return self.recorder.snapshot()

    def traced(self, round_index: int) -> bool:
        return self.enabled and round_index % 2 == 1

    def begin_round(self, round_index: int) -> None:
        if self.traced(round_index):
            self._before = self.toggle(True)

    def end_round(self, round_index: int, seconds: float, ops: int) -> bool:
        """Close a round; returns True when it is a counted round."""
        if not self.enabled:
            return False
        if not self.traced(round_index):
            self.plain_rounds.append(seconds)
            return False
        after = self.toggle(False)
        delta = diff(after, self._before)
        self.traced_rounds.append(seconds)
        self.traced_ops += ops
        add(self.time_agg, delta)
        counted = self.counted_rounds < COUNT_ROUNDS
        if counted:
            add(self.count_agg, delta)
            self.counted_rounds += 1
        return counted

    def overhead_pct(self) -> float:
        plain = statistics.median(self.plain_rounds)
        return 100.0 * (statistics.median(self.traced_rounds) / plain - 1.0)


def run_rounds(seconds: float, run_round, traced: TracedRun, ledger: Ledger) -> None:
    """Run whole rounds until ``seconds`` have passed, recording each
    round's rates in ``ledger``.  ``run_round(index, counted)`` returns the
    number of operations it attempted.  A traced run goes on until it has
    its counted rounds.
    """
    start = perf_counter()
    index = 0
    while True:
        traced.begin_round(index)
        ledger.begin_round()
        t0 = perf_counter()
        ops = run_round(index, traced.traced(index) and traced.counted_rounds < COUNT_ROUNDS)
        took = perf_counter() - t0
        ledger.end_round(took)
        traced.end_round(index, took, ops)
        index += 1
        if perf_counter() - start >= seconds and (
                not traced.enabled or traced.counted_rounds >= COUNT_ROUNDS):
            return


def probe_setup(workload: str, seed: int, times: int = 5) -> float:
    """Median wall time of ``times`` fresh processes from spawn until the
    workload's system has its EDB loaded, its program compiled and its
    first query answered."""
    samples = []
    for _ in range(times):
        t0 = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(ROOT, "perfbench", "setup_probe.py"),
             workload, str(seed)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        try:
            line = proc.stdout.readline()
            samples.append(perf_counter() - t0)
        finally:
            proc.stdout.close()
            code = proc.wait(timeout=60)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"setup probe for {workload} failed ({code}): {line!r}")
    return statistics.median(samples)


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    """Print the result line: the last line of standard output."""
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))

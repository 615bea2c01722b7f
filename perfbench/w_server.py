"""server-durable: ``gluenail serve --db DIR`` in its own process, WAL
fsync on, driven over two connections in lockstep rounds.

Per round, connection A commits eleven single-fact transactions -- one
delete through the Glue procedure ``del_edge``, which forces a scoped
rebuild of ``path`` and answers from it, then ten inserts into ``edge``
-- and after each waits for its notification on an EDB subscription to
``edge``.  Meanwhile connection B, once the delete is acknowledged, sends
eight bound ``path(k, Y)?`` queries and one read of all of ``edge``.  When
both are done, A commits one untimed delete that brings ``edge`` back to
its size at the start of the round, and polls the subscription once with
a zero timeout, which fails today (``BlockingIOError``) and is counted as
a failed operation.
"""

from __future__ import annotations

import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
from time import perf_counter, sleep

import checks
import gen
from common import (
    OUT, ROOT, SRC, Ledger, TracedRun, pid_peak_rss_mb, run_rounds,
)
from layers import layer_metrics

PROGRAM = """
path(X, Y) :- edge(X, Y).
path(X, Z) :- path(X, Y) & edge(Y, Z).

proc del_edge(X, Y:Z)
  edge(X, Y) -= in(X, Y) & edge(X, Y).
  return(X, Y:Z) := in(X, Y) & path(X, Z).
end
"""

SETUP_STARTS = 5
RECOVERY_OPENS = 3
READS_PER_ROUND = gen.SERVER_SOURCES + 1  # bound path queries, then all of edge


class Server:
    """One ``gluenail serve`` process over a copy of the template store."""

    def __init__(self, work: str, name: str, template: str, traced: bool):
        self.db_dir = os.path.join(work, name)
        shutil.copytree(template, self.db_dir)
        self.log_path = self.db_dir + ".log"
        program = os.path.join(work, "program.glue")
        args = ["serve", "--db", self.db_dir, "--program", program, "--port", "0"]
        if traced:
            cmd = [sys.executable, os.path.join(ROOT, "perfbench", "serve_traced.py")] + args
        else:
            cmd = [sys.executable, "-m", "repro.core.cli"] + args
        env = dict(os.environ, PYTHONPATH=SRC)
        self.started = perf_counter()
        with open(self.log_path, "w", encoding="utf-8") as log:
            self.proc = subprocess.Popen(
                cmd, cwd=ROOT, env=env, stderr=log,
                stdin=subprocess.PIPE if traced else subprocess.DEVNULL,
                stdout=subprocess.PIPE if traced else subprocess.DEVNULL,
                text=True,
            )
        self.port = self._wait_port()

    def _wait_port(self) -> int:
        deadline = perf_counter() + 60
        while perf_counter() < deadline:
            with open(self.log_path, encoding="utf-8") as log:
                found = re.search(r"serving .* on [\d.]+:(\d+)", log.read())
            if found:
                return int(found.group(1))
            if self.proc.poll() is not None:
                break
            sleep(0.002)
        self.stop()
        with open(self.log_path, encoding="utf-8") as log:
            raise RuntimeError(f"server did not start: {log.read()[-2000:]}")

    def control(self, command: str) -> dict:
        """Send one control line to the traced launcher; its JSON reply."""
        import json

        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def wal_bytes(self) -> int:
        return os.path.getsize(os.path.join(self.db_dir, "wal.log"))

    def stop(self) -> None:
        # SIGTERM, not SIGINT: a process started in the background may
        # inherit SIGINT ignored.  Commits are fsynced, so the hard stop
        # loses nothing and the next open replays the WAL.
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=20)
        for stream in (self.proc.stdin, self.proc.stdout):
            if stream is not None:
                stream.close()


def make_template(work: str, base_edges) -> str:
    """A store directory whose checkpoint holds the base graph."""
    from repro.storage.database import Database
    from repro.storage.persist import save_database

    template = os.path.join(work, "template")
    os.makedirs(template)
    db = Database()
    db.facts("edge", base_edges)
    save_database(db, os.path.join(template, "checkpoint.gnd"))
    with open(os.path.join(work, "program.glue"), "w", encoding="utf-8") as handle:
        handle.write(PROGRAM)
    return template


def run(seed: int, seconds: float, trace: bool):
    from repro import GlueNailSystem, rows_to_python
    from repro.server.client import Client

    work = os.path.join(OUT, "server-durable")
    base, sources = gen.server_graph(seed)
    writer = gen.EdgeWriter(seed, base)
    template = make_template(work, writer.start)
    problems: list = []

    server = None
    try:
        # Set-up: process start, store recovery, program compile, first
        # answer.  The last server started serves the run.
        setup_samples = []
        for i in range(1 if trace else SETUP_STARTS):
            if server is not None:
                server.stop()
                shutil.rmtree(server.db_dir)
            server = Server(work, f"db{i}", template, trace)
            with Client(port=server.port) as client:
                client.query(f"edge({sources[0]}, Y)?")
            setup_samples.append(perf_counter() - server.started)
        drive = Drive(server, writer, sources, trace, problems)
        drive.run(seconds)
        peak_rss = pid_peak_rss_mb(server.proc.pid)
        if trace:
            server.control(f"dump {os.path.join(work, 'server-spans.jsonl')}")
    finally:
        if server is not None:
            server.stop()

    # Recovery: reopen the directory in this process until edge answers.
    final = drive.history.final()
    recovery = []
    for _ in range(RECOVERY_OPENS):
        t0 = perf_counter()
        system = GlueNailSystem.open(server.db_dir)
        rows = rows_to_python(system.rows("edge", 2))
        recovery.append(perf_counter() - t0)
        system.close()
        problems.extend(checks.compare("recovered edge", rows, final))

    ledger, traced = drive.ledger, drive.traced
    if not trace:
        # The median round: a round's read rate here depends on how many of
        # A's commits land between B's reads, each forcing a rebuild of
        # B's cached closure, so its slow rounds measure that race.
        metrics = ledger.end_to_end(statistics.median(setup_samples), peak_rss,
                                    rate_quartile=2)
        return problems, ledger.attempted, ledger.failed, metrics, traced

    traced.recorder.install()
    GlueNailSystem.open(server.db_dir).close()
    traced.recorder.uninstall()
    counts = traced.count_agg["counts"]
    counters = {name[len("counter."):]: value for name, value in counts.items()
                if name.startswith("counter.")}
    kernel_cache = (counts.get("col.hits", 0), counts.get("col.misses", 0))
    dispatch = traced.time_agg["totals"].get("server.dispatch", (0, 0.0, 0.0))[1]
    rtt = sum(total for total, _ in drive.traced_rtt.values())
    requests = sum(n for _, n in drive.traced_rtt.values())
    server_only = {
        "txn.wal_bytes": drive.wal_counted / traced.counted_rounds,
        "txn.wal_bytes_per_fact": drive.wal_per_fact,
        "txn.replay_ms": 1000.0 * traced.recorder.totals["txn.replay"][1],
        "txn.recovery_s": statistics.median(recovery),
        "server.wire_ms": 1000.0 * (rtt - dispatch) / requests,
        "sub.notify_p50_ms": statistics.median(drive.plain_notify_ms),
        "txn.commit_p50_ms": statistics.median(drive.plain_commit_ms),
    }
    metrics = layer_metrics(traced, counters, kernel_cache, server_only)
    return problems, ledger.attempted, ledger.failed, metrics, traced


class Drive:
    """The two connections and everything they record."""

    def __init__(self, server, writer, sources, trace, problems):
        self.server = server
        self.sources = sources
        self.problems = problems
        self.writer = writer
        self.history = checks.EdgeHistory(writer.start)
        self.state = set(writer.start)  # edge after the last commit
        self.sent = 0    # commits A has sent
        self.acked = 0   # commits A has seen acknowledged
        # One ledger per connection thread; B's is folded into A's at the
        # end of each round.
        self.ledger = Ledger()
        self.read_ledger = Ledger()
        self.traced = TracedRun(trace, toggle=lambda on: server.control("on" if on else "off"))
        self.notes: list = []   # (seq, op, rows) per commit, in arrival order
        self.reads: list = []   # (lo, hi, kind, source, rows) per read of B
        self.plain_notify_ms: list = []
        self.plain_commit_ms: list = []  # timed commits of untraced rounds
        # Client round trips of traced rounds, per connection thread.
        self.traced_rtt = {"a": [0.0, 0], "b": [0.0, 0]}
        self.wal_counted = 0
        self.wal_per_fact = 0.0
        self._arrivals: dict = {}
        self._reader_error: list = []

    def run(self, seconds: float) -> None:
        from repro.server.client import Client

        with Client(port=self.server.port) as a, Client(port=self.server.port) as b:
            self.a, self.b = a, b
            self.sub = a.subscribe("edge", 2)
            # Stamp each notification frame as it comes off A's socket.
            dispatch = a._dispatch_notification

            def stamped(frame):
                self._arrivals[frame.get("seq")] = perf_counter()
                return dispatch(frame)

            a._dispatch_notification = stamped

            # One untimed round: compiles B's session and fills its cache.
            self.round(False, False)
            wal_start = self.server.wal_bytes()
            facts_before = self.history.facts()
            run_rounds(seconds, self.timed_round, self.traced, self.ledger)
            facts = self.history.facts() - facts_before
            self.wal_per_fact = (self.server.wal_bytes() - wal_start) / facts
            final_rows = b.rows("edge", 2).values
        history = self.history
        self.problems.extend(checks.compare("final edge", final_rows, history.final()))
        self.problems.extend(checks.check_prefix_reads(history, self.reads))
        self.problems.extend(checks.check_notifications(history, self.notes))

    def timed_round(self, index, counted):
        before = self.server.wal_bytes()
        ops = self.round(True, self.traced.traced(index))
        if counted:
            self.wal_counted += self.server.wal_bytes() - before
        return ops

    def round(self, timed, traced_round):
        """One round: B reads on its own thread while A commits.

        B starts once A's first commit, the delete, is acknowledged, so its
        first read rebuilds ``path`` while A waits for the notification,
        rather than always racing A's first commit for the server.
        """
        self.first_ack = threading.Event()
        self.read_ledger = Ledger()
        reader = threading.Thread(target=self.read_all, args=(timed, traced_round))
        ledger = self.ledger if timed else None
        reader.start()
        try:
            for kind, edges in self.writer.round():
                self.commit(kind, edges, ledger, traced_round)
        finally:
            self.first_ack.set()  # releases B if A failed before its first ack
            reader.join()
        if self._reader_error:
            raise self._reader_error[0]
        if timed:
            self.ledger.merge(self.read_ledger)
        self.commit(*self.writer.trim(), ledger, traced_round, timed=False)
        # The zero-timeout drain poll: nothing is pending, so it should
        # return None; today it raises BlockingIOError.
        failed = False
        try:
            extra = self.sub.next(timeout=0)
        except BlockingIOError:
            failed = True
        else:
            if extra is not None:
                self.problems.append(f"unexpected notification {extra}")
        if ledger is not None:
            ledger.other(failed=failed)
        return gen.SERVER_INSERTS + 3 + READS_PER_ROUND

    def commit(self, kind, edges, ledger, traced_round, timed=True):
        """Commit one change, wait for its notification and record it; an
        untimed commit counts as an operation without a latency sample."""
        self.history.append(kind, edges)
        checks.apply(self.state, (kind, edges))
        self.sent += 1
        t0 = perf_counter()
        if kind == "insert":
            if self.a.fact("edge", *edges[0]) != 1:
                self.problems.append(f"insert {edges[0]} was not new")
        elif len(edges) == 1:
            rows = self.a.call("del_edge", list(edges)).values
        else:
            # Outside a transaction the server commits each deleted row on
            # its own, so a delete of several edges is wrapped in one.
            self.a.begin()
            rows = self.a.call("del_edge", list(edges)).values
            self.a.commit()
        ack = perf_counter()
        self.acked += 1
        self.first_ack.set()
        note = self.sub.next(timeout=30)
        if note is None:
            raise RuntimeError(f"no notification for {kind} {edges}")
        self.notes.append((note.seq, note.op, note.rows))
        arrived = self._arrivals.pop(note.seq)
        if kind == "delete":
            # del_edge returns what each deleted edge's source still reaches.
            expected = {(x, y, z) for x, y in edges for _, z in checks.reach(self.state, x)}
            self.problems.extend(checks.compare(f"del_edge {list(edges)}", rows, expected))
        if ledger is None:
            return
        if timed:
            ledger.update(ack - t0)
        else:
            ledger.other()
        if traced_round:
            self.traced_rtt["a"][0] += ack - t0
            self.traced_rtt["a"][1] += 1
        else:
            # A notification read along with the acknowledgement
            # arrived no later than it.
            self.plain_notify_ms.append(max(0.0, arrived - ack) * 1000.0)
            if timed:
                self.plain_commit_ms.append((ack - t0) * 1000.0)

    def read_all(self, timed, traced_round):
        ledger = self.read_ledger if timed else None
        try:
            self.first_ack.wait()
            for j in range(READS_PER_ROUND):
                lo = self.acked
                t0 = perf_counter()
                if j < len(self.sources):
                    kind, source = "path", self.sources[j]
                    rows = self.b.query(f"path({source}, Y)?").values
                else:
                    kind, source = "edge", None
                    rows = self.b.rows("edge", 2).values
                elapsed = perf_counter() - t0
                self.reads.append((lo, self.sent, kind, source, rows))
                if ledger is not None:
                    ledger.read(elapsed, len(rows))
                    if traced_round:
                        self.traced_rtt["b"][0] += elapsed
                        self.traced_rtt["b"][1] += 1
        except BaseException as exc:  # re-raised on A's thread
            self._reader_error.append(exc)

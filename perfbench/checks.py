"""Answers computed apart from the program, and the checkers that compare.

Nothing here imports ``repro``: the expected answers come from plain
Python graph walks and ledgers.  Each checker returns a list of problems
(empty when the answer is right).
"""

from __future__ import annotations

from collections import defaultdict, deque


def successors(edges):
    out = defaultdict(list)
    for a, b in edges:
        out[a].append(b)
    return out


def reachable(succ, source):
    """Nodes reachable from ``source`` by one or more edges (BFS)."""
    seen = set()
    queue = deque(succ.get(source, ()))
    while queue:
        node = queue.popleft()
        if node in seen:
            continue
        seen.add(node)
        queue.extend(succ.get(node, ()))
    return seen


def closure(edges):
    """The transitive closure as a set of pairs, by BFS from every node."""
    succ = successors(edges)
    return {(a, b) for a in list(succ) for b in reachable(succ, a)}


def reach(edges, source):
    """The rows of ``path(source, Y)``: single-source reachability."""
    return {(source, b) for b in reachable(successors(edges), source)}


def compare(label, got, expected):
    """Problems when the row multiset ``got`` differs from the set
    ``expected``: missing rows, extra rows, or duplicates."""
    got = list(got)
    got_set = set(got)
    problems = []
    if len(got) != len(got_set):
        problems.append(f"{label}: {len(got) - len(got_set)} duplicate rows")
    missing = expected - got_set
    extra = got_set - expected
    if missing:
        problems.append(f"{label}: {len(missing)} rows missing, e.g. {sorted(missing)[:3]}")
    if extra:
        problems.append(f"{label}: {len(extra)} rows extra, e.g. {sorted(extra)[:3]}")
    return problems


# ------------------------------------------------------------------ #
# glue-bom


class BomModel:
    """The bill of materials walked in Python, plus a stock ledger that
    keeps one value per part, applied build by build."""

    def __init__(self, data):
        self.children = defaultdict(list)
        for parent, child, qty in data["assembly"]:
            self.children[parent].append((child, qty))
        self.unit_cost = dict(data["unit_cost"])
        self.stock = dict(data["stock"])
        self.shortage: dict = {}

    def explode(self, root):
        """Leaf demand for one unit of ``root``: quantities multiplied along
        every path, summed per leaf."""
        demand = defaultdict(int)
        stack = [(root, 1)]
        while stack:
            part, qty = stack.pop()
            kids = self.children.get(part)
            if not kids:
                demand[part] += qty
                continue
            for child, per in kids:
                stack.append((child, qty * per))
        return {(root, part, qty) for part, qty in demand.items()}

    def uses(self, root):
        succ = {p: [c for c, _ in kids] for p, kids in self.children.items()}
        return {(root, c) for c in reachable(succ, root)}

    def direct_cost(self):
        return {
            (p, sum(q * self.unit_cost[c] for c, q in kids))
            for p, kids in self.children.items()
        }

    def build(self, root):
        """Apply one build to the ledger; returns the expected shortages."""
        for _, part, qty in self.explode(root):
            if part in self.stock:
                self.stock[part] -= qty
        for part, value in self.stock.items():
            if value < 0:
                self.shortage[part] = -value
        return {(root, part, short) for part, short in self.shortage.items()}

    def stock_rows(self):
        return set(self.stock.items())


# ------------------------------------------------------------------ #
# server-durable


class EdgeHistory:
    """The committed history of ``edge``: the base set plus one change per
    commit, in commit order.  A change is ``(kind, edges)``: every edge of
    ``edges`` inserted or deleted by that commit."""

    def __init__(self, base_edges):
        self.base = frozenset(base_edges)
        self.changes: list = []  # (kind, edges)

    def append(self, kind, edges):
        self.changes.append((kind, tuple(edges)))

    def facts(self) -> int:
        """Fact changes committed so far."""
        return sum(len(edges) for _, edges in self.changes)

    def final(self):
        """The edge set after every commit."""
        state = set(self.base)
        for change in self.changes:
            apply(state, change)
        return state


def apply(state, change):
    kind, edges = change
    if kind == "insert":
        state.update(edges)
    else:
        state.difference_update(edges)


def check_prefix_reads(history, reads):
    """Every read must equal the answer on some committed prefix between
    the commits acknowledged before it was sent (``lo``) and those sent
    before it returned (``hi``).

    ``reads`` holds ``(lo, hi, kind, source, rows)``; ``kind`` is "path"
    (rows of path(source, Y)) or "edge" (all rows of edge).  Reads are
    checked in ``lo`` order so the history is replayed once.
    """
    problems = []
    ordered = sorted(range(len(reads)), key=lambda i: reads[i][0])
    state = set(history.base)
    applied = 0
    for index in ordered:
        lo, hi, kind, source, rows = reads[index]
        while applied < lo:
            apply(state, history.changes[applied])
            applied += 1
        got = set(rows)
        if len(got) != len(rows):
            problems.append(f"read {index}: duplicate rows")
            continue
        candidate = set(state)
        matched = False
        for i in range(lo, hi + 1):
            if i > lo:
                apply(candidate, history.changes[i - 1])
            expected = candidate if kind == "edge" else reach(candidate, source)
            if got == expected:
                matched = True
                break
        if not matched:
            problems.append(
                f"read {index} ({kind} {source}): matches no committed prefix in "
                f"[{lo}, {hi}]"
            )
    return problems


def check_notifications(history, notes):
    """Commit ``i`` must bring exactly one notification carrying exactly its
    delta, with ``seq`` increasing.  ``notes`` holds
    ``(seq, op, rows)`` in arrival order, one per commit."""
    problems = []
    if len(notes) != len(history.changes):
        problems.append(f"{len(notes)} notifications for {len(history.changes)} commits")
    last_seq = None
    for i, ((kind, edges), (seq, op, rows)) in enumerate(zip(history.changes, notes)):
        if last_seq is not None and seq <= last_seq:
            problems.append(f"commit {i}: seq {seq} after {last_seq}")
        last_seq = seq
        if op != kind or sorted(rows) != sorted(edges):
            problems.append(f"commit {i}: expected {kind} {list(edges)}, got {op} {rows}")
    return problems

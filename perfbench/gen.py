"""Input generators.  Every input is a pure function of the seed."""

from __future__ import annotations

import random

from checks import reachable, successors

# nail-closure: four graphs of each shape per seed.
CHAIN = dict(layers=20, width=10, out_degree=3)
SPARSE = dict(nodes=300, window=6, extra=30)
GRAPHS_PER_SHAPE = 4
MAGIC_SOURCES = 3

# glue-bom: parts per level, children per assembly.
BOM_LEVELS = (6, 16, 30, 60)
BOM_FANOUT = 4

# server-durable: a layered DAG whose closure is saturated from the start,
# so inserts and deletes repair or rebuild a closure of steady size.
SERVER_GRAPH = dict(layers=12, width=8, out_degree=3)
SERVER_SOURCES = 8
SERVER_INSERTS = 10  # per round, after one delete
SERVER_WINDOW = 24  # inserted edges the graph holds at the start of a round


def layered_chain(rng: random.Random, layers: int, width: int, out_degree: int):
    """Layered bundle: every node links to ``out_degree`` random nodes of
    the next layer.  Deltas are wide: whole layers join per round."""
    edges = []
    for layer in range(layers - 1):
        for i in range(width):
            for j in sorted(rng.sample(range(width), out_degree)):
                edges.append((layer * width + i, (layer + 1) * width + j))
    sources = [rng.randrange(width) for _ in range(MAGIC_SOURCES)]
    return edges, sources


def sparse_random(rng: random.Random, nodes: int, window: int, extra: int):
    """Sparse random DAG: a random recursive tree whose parents lie within
    ``window`` of the child in generation order, plus ``extra`` random
    forward edges, relabelled by a random permutation.  Paths are long
    (many rounds) and each round's delta is narrow."""
    label = list(range(nodes))
    rng.shuffle(label)
    edges = set()
    for k in range(1, nodes):
        parent = rng.randrange(max(0, k - window), k)
        edges.add((label[parent], label[k]))
    while len(edges) < nodes - 1 + extra:
        a = rng.randrange(nodes - 1)
        b = rng.randrange(a + 1, min(nodes, a + window + 1))
        edges.add((label[a], label[b]))
    # Demand-driven sources: the nodes that reach the most, so every
    # demand-driven query walks the graph's full depth.
    succ = successors(edges)
    sources = sorted(range(nodes), key=lambda n: (-len(reachable(succ, n)), n))
    sources = sources[:MAGIC_SOURCES]
    return sorted(edges), sources


def closure_graphs(seed: int):
    """[(shape, edges, magic sources)], alternating the two shapes.

    The graphs are drawn once, the same for every seed; the seed renumbers
    the nodes of each.  So every seed asks for the same joins and derives
    as many rows, and a seed's figures differ from another's only by what
    the host does.
    """
    shape = random.Random("nail-closure/shape")
    rng = random.Random(f"nail-closure/{seed}")
    graphs = []
    for _ in range(GRAPHS_PER_SHAPE):
        graphs.append(("chain",) + renumber(rng, *layered_chain(shape, **CHAIN)))
        graphs.append(("sparse",) + renumber(rng, *sparse_random(shape, **SPARSE)))
    return graphs


def renumber(rng: random.Random, edges, sources):
    """The same graph with its nodes renumbered by a random permutation."""
    nodes = sorted({node for edge in edges for node in edge})
    shuffled = list(nodes)
    rng.shuffle(shuffled)
    label = dict(zip(nodes, shuffled))
    return sorted((label[a], label[b]) for a, b in edges), [label[s] for s in sources]


def bom(seed: int):
    """An assembly DAG: each part of level ``l`` uses ``BOM_FANOUT`` parts of
    level ``l + 1`` in quantities 1 to 6; the last level holds the
    purchased leaves.  Returns ``dict(parts, assembly, unit_cost, stock,
    roots)``.

    The links come from one fixed draw, the same for every seed; the seed
    renames the parts of each level and draws the quantities and costs.
    So every seed asks for the same work, and a run's rates differ from
    another seed's only by what the host does.
    """
    shape = random.Random("glue-bom/shape")
    rng = random.Random(f"glue-bom/{seed}")
    levels = []
    for level, n in enumerate(BOM_LEVELS):
        labels = list(range(n))
        rng.shuffle(labels)
        levels.append([f"p{level}_{i}" for i in labels])
    assembly = []
    for level in range(len(levels) - 1):
        for parent in levels[level]:
            for child in sorted(shape.sample(range(BOM_LEVELS[level + 1]), BOM_FANOUT)):
                assembly.append((parent, levels[level + 1][child], rng.randint(1, 6)))
    parts = [p for level in levels for p in level]
    return {
        "parts": parts,
        "assembly": assembly,
        "unit_cost": [(p, rng.randint(1, 50)) for p in parts],
        # Leaves start empty, so every build records shortages.
        "stock": [(p, 0) for p in levels[-1]],
        "roots": levels[0],
    }


def server_graph(seed: int):
    """Base edges of the server workload and the sources B queries."""
    rng = random.Random(f"server-durable/{seed}")
    edges, _ = layered_chain(rng, **SERVER_GRAPH)
    width = SERVER_GRAPH["width"]
    sources = [rng.randrange(2 * width) for _ in range(SERVER_SOURCES)]
    return edges, sources


class EdgeWriter:
    """Connection A's write stream over the server graph.

    The graph holds the base edges and a window of ``SERVER_WINDOW``
    forward edges that the writer inserted, oldest first; the store starts
    with the window already filled (``start``).  Per round, ``round()``
    gives the timed single-fact commits -- one delete of a random windowed
    edge (through the Glue procedure), then ``SERVER_INSERTS`` inserts of
    new forward edges -- and ``trim()`` one untimed commit that deletes the
    oldest edges beyond the window.  So every round starts from a graph of
    the same size, however many rounds a run completes.

    Inserted edges run from one layer to a later one, so the graph stays
    acyclic and its closure stays within the saturated layered closure.
    """

    def __init__(self, seed: int, base_edges):
        self.rng = random.Random(f"server-durable/writes/{seed}")
        self.layers, self.width = SERVER_GRAPH["layers"], SERVER_GRAPH["width"]
        self.present = set(base_edges)
        self.inserted: list = []  # the window, oldest first
        for _ in range(SERVER_WINDOW):
            self._insert()
        self.start = sorted(self.present)

    def _insert(self):
        while True:
            a = self.rng.randrange(self.layers - 1)
            b = self.rng.randrange(a + 1, self.layers)
            edge = (a * self.width + self.rng.randrange(self.width),
                    b * self.width + self.rng.randrange(self.width))
            if edge not in self.present:
                self.present.add(edge)
                self.inserted.append(edge)
                return edge

    def round(self):
        """The timed commits of one round: [(kind, (edge,))]."""
        victim = self.inserted.pop(self.rng.randrange(len(self.inserted)))
        self.present.discard(victim)
        out = [("delete", (victim,))]
        for _ in range(SERVER_INSERTS):
            out.append(("insert", (self._insert(),)))
        return out

    def trim(self):
        """The untimed commit that brings the window back to its size:
        ("delete", edges)."""
        excess = len(self.inserted) - SERVER_WINDOW
        victims, self.inserted = self.inserted[:excess], self.inserted[excess:]
        self.present.difference_update(victims)
        return "delete", tuple(victims)

"""Deterministic test-instance generators.

Every generator is a pure function of its arguments; the random families
derive everything from an explicit seed so instances can be frozen by
(family, parameters, seed) alone.
"""

import random
from dataclasses import dataclass

from .errors import InputError
from .graph import Cut, VertexSet, WeightedGraph, is_connected
from .oracles import stoer_wagner

FAMILIES = ("gnp", "planted", "dumbbell", "cycle", "clique", "grid")


def gnp_graph(
    n: int,
    p: float,
    seed: int = 0,
    w_min: int = 1,
    w_max: int = 8,
    connect: bool = True,
) -> WeightedGraph:
    """Random graph with independent edges and uniform integer weights.

    With connect=True, resamples (deterministically) until connected; gives
    up after 200 attempts so hopeless parameters fail loudly.
    """
    if n < 1:
        raise InputError("need at least one vertex")
    if not 0 <= p <= 1:
        raise InputError(f"edge probability {p} outside [0, 1]")
    if not 1 <= w_min <= w_max:
        raise InputError("need 1 <= w_min <= w_max")
    rng = random.Random(seed)
    for _ in range(200):
        triples = []
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < p:
                    triples.append((u, v, rng.randint(w_min, w_max)))
        graph = WeightedGraph(n, triples)
        if not connect or is_connected(graph):
            return graph
    raise InputError(f"no connected sample in 200 tries (n={n}, p={p})")


def clique_graph(n: int, weight: int = 1) -> WeightedGraph:
    if n < 2 or weight < 1:
        raise InputError(f"clique needs n >= 2 and weight >= 1, got n={n}, weight={weight}")
    return WeightedGraph(
        n, ((u, v, weight) for u in range(n) for v in range(u + 1, n))
    )


def cycle_graph(n: int, weight: int = 1) -> WeightedGraph:
    if n < 3 or weight < 1:
        raise InputError(f"cycle needs n >= 3 and weight >= 1, got n={n}, weight={weight}")
    return WeightedGraph(n, ((v, (v + 1) % n, weight) for v in range(n)))


def dumbbell_graph(
    n: int, clique_weight: int = 1, bridge_weight: int = 1
) -> WeightedGraph:
    """Two equal cliques joined by one bridge edge; the bridge is the min cut."""
    if n < 4 or n % 2:
        raise InputError("dumbbell needs an even vertex count of at least 4")
    if min(clique_weight, bridge_weight) < 1:
        raise InputError(f"dumbbell weights must be >= 1, got {clique_weight}, {bridge_weight}")
    half = n // 2
    triples = []
    for base in (0, half):
        for u in range(base, base + half):
            for v in range(u + 1, base + half):
                triples.append((u, v, clique_weight))
    triples.append((half - 1, half, bridge_weight))
    return WeightedGraph(n, triples)


def grid_graph(rows: int, cols: int, weight: int = 1) -> WeightedGraph:
    if rows < 1 or cols < 1 or rows * cols < 2 or weight < 1:
        raise InputError("grid needs at least two cells and a weight of at least 1")
    triples = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                triples.append((v, v + 1, weight))
            if r + 1 < rows:
                triples.append((v, v + cols, weight))
    return WeightedGraph(rows * cols, triples)


def planted_cut_graph(n: int, side_size: int, seed: int = 0) -> tuple[WeightedGraph, Cut]:
    """Gnp-dense halves joined by a few light edges, verified to be minimal.

    Each half has every inner edge with probability 0.8 and weight 4 to 8;
    the planted cut is two crossing edges of weight 1. For n up to 60 the
    planted boundary is checked against the exact global minimum; seeds
    whose sample comes out wrong are redrawn deterministically.
    """
    if not 1 <= side_size <= n - 1:
        raise InputError("planted side must be a proper nonempty part")
    side = VertexSet.from_ids(n, range(side_size))
    for attempt in range(50):
        rng = random.Random(seed * 1000003 + attempt)
        triples = []
        for u in range(n):
            for v in range(u + 1, n):
                same = (u < side_size) == (v < side_size)
                if same and rng.random() < 0.8:
                    triples.append((u, v, rng.randint(4, 8)))
        pairs = [(u, v) for u in range(side_size) for v in range(side_size, n)]
        for u, v in rng.sample(pairs, min(2, len(pairs))):
            triples.append((u, v, 1))
        graph = WeightedGraph(n, triples)
        if not is_connected(graph):
            continue
        cut = Cut(side, 2)
        if not cut.verify(graph):
            continue
        if n <= 60 and stoer_wagner(graph).weight != cut.weight:
            continue
        return graph, cut
    raise InputError("no valid planted sample in 50 tries")


@dataclass(frozen=True)
class GeneratorSpec:
    family: str
    n: int
    seed: int = 0
    p: float = 0.5
    w_min: int = 1
    w_max: int = 8
    weight: int = 1
    rows: int | None = None
    side_size: int | None = None


def generate(spec: GeneratorSpec) -> WeightedGraph:
    """Build the graph a GeneratorSpec describes."""
    if spec.family == "gnp":
        return gnp_graph(spec.n, spec.p, spec.seed, spec.w_min, spec.w_max)
    if spec.family == "planted":
        side = spec.side_size if spec.side_size is not None else max(1, spec.n // 3)
        graph, _ = planted_cut_graph(spec.n, side, spec.seed)
        return graph
    if spec.family == "dumbbell":
        return dumbbell_graph(spec.n, bridge_weight=spec.weight)
    if spec.family == "cycle":
        return cycle_graph(spec.n, spec.weight)
    if spec.family == "clique":
        return clique_graph(spec.n, spec.weight)
    if spec.family == "grid":
        rows = spec.rows if spec.rows is not None else 1
        if rows < 1 or spec.n % rows:
            raise InputError(f"grid rows must be positive and divide n, got rows={rows}")
        return grid_graph(rows, spec.n // rows, spec.weight)
    raise InputError(f"unknown family {spec.family!r}; choose from {FAMILIES}")

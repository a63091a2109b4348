"""Core graph types: weighted undirected graphs, vertex sets, cuts, contractions.

Weights are nonnegative integers throughout; all comparisons are exact.
"""

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .errors import InputError

MAX_EDGE_WEIGHT = 1 << 40
MAX_TOTAL_WEIGHT = 1 << 62


@dataclass(frozen=True)
class VertexSet:
    """An immutable subset of [0, n), stored as a bit mask."""

    n: int
    mask: int

    def __post_init__(self):
        if self.n < 0:
            raise InputError(f"negative universe size {self.n}")
        if self.mask < 0 or self.mask >> self.n:
            raise InputError("mask has bits outside the universe")

    @classmethod
    def from_ids(cls, n: int, ids: Iterable[int]) -> "VertexSet":
        mask = 0
        for v in ids:
            if not 0 <= v < n:
                raise InputError(f"vertex id {v} outside [0, {n})")
            mask |= 1 << v
        return cls(n, mask)

    @classmethod
    def full(cls, n: int) -> "VertexSet":
        return cls(n, (1 << n) - 1)

    @classmethod
    def empty(cls, n: int) -> "VertexSet":
        return cls(n, 0)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __iter__(self) -> Iterator[int]:
        m = self.mask
        while m:
            low = m & -m
            yield low.bit_length() - 1
            m ^= low

    def __contains__(self, v: int) -> bool:
        return 0 <= v < self.n and (self.mask >> v) & 1 == 1

    def __bool__(self) -> bool:
        return self.mask != 0

    def _check(self, other: "VertexSet") -> None:
        if self.n != other.n:
            raise InputError("vertex sets over different universes")

    def union(self, other: "VertexSet") -> "VertexSet":
        self._check(other)
        return VertexSet(self.n, self.mask | other.mask)

    def intersection(self, other: "VertexSet") -> "VertexSet":
        self._check(other)
        return VertexSet(self.n, self.mask & other.mask)

    def difference(self, other: "VertexSet") -> "VertexSet":
        self._check(other)
        return VertexSet(self.n, self.mask & ~other.mask)

    def complement(self) -> "VertexSet":
        return VertexSet(self.n, ((1 << self.n) - 1) ^ self.mask)

    def issubset(self, other: "VertexSet") -> bool:
        self._check(other)
        return self.mask & ~other.mask == 0

    def isdisjoint(self, other: "VertexSet") -> bool:
        self._check(other)
        return self.mask & other.mask == 0

    def members(self) -> list[int]:
        return list(self)

    def smallest(self) -> int:
        if not self.mask:
            raise InputError("empty vertex set has no smallest member")
        return (self.mask & -self.mask).bit_length() - 1


class WeightedGraph:
    """Undirected graph with integer edge weights.

    Edges are stored canonically: u < v, sorted ascending, parallel edges
    merged by weight summation, self loops and zero weights dropped.
    """

    __slots__ = ("n", "edges", "_adj", "_arrays", "_total")

    def __init__(self, n: int, edges: Iterable[tuple[int, int, int]]):
        if n < 0:
            raise InputError(f"negative vertex count {n}")
        self._canonicalize(n, _checked_edges(n, edges))
        if self._total >= MAX_TOTAL_WEIGHT:
            raise InputError("total weight exceeds limit 2^62")

    @classmethod
    def _derived(cls, n: int, edges: Iterable[tuple[int, int, int]]) -> "WeightedGraph":
        """Graph on the edges of an already checked graph, without input checks.

        Merged parallel edges may pass the 2^40 edge limit; the total weight
        never passes the parent's.
        """
        graph = object.__new__(cls)
        graph._canonicalize(n, edges)
        return graph

    def _canonicalize(self, n: int, edges: Iterable[tuple[int, int, int]]) -> None:
        merged: dict[tuple[int, int], int] = {}
        for u, v, w in edges:
            if u == v or w == 0:
                continue
            key = (u, v) if u < v else (v, u)
            merged[key] = merged.get(key, 0) + w
        self.n = n
        self.edges: tuple[tuple[int, int, int], ...] = tuple(
            (u, v, w) for (u, v), w in sorted(merged.items())
        )
        self._total = sum(w for _, _, w in self.edges)
        self._adj = None
        self._arrays = None

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def total_weight(self) -> int:
        return self._total

    @property
    def adj(self) -> list[list[tuple[int, int]]]:
        """Adjacency index: adj[u] = [(v, w), ...] ascending by v."""
        if self._adj is None:
            adj: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
            for u, v, w in self.edges:
                adj[u].append((v, w))
                adj[v].append((u, w))
            self._adj = adj
        return self._adj

    @property
    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(us, vs, ws) int64 arrays for vectorized edge scans."""
        if self._arrays is None:
            if self.m:
                us = np.fromiter((e[0] for e in self.edges), dtype=np.int64, count=self.m)
                vs = np.fromiter((e[1] for e in self.edges), dtype=np.int64, count=self.m)
                ws = np.fromiter((e[2] for e in self.edges), dtype=np.int64, count=self.m)
            else:
                us = vs = ws = np.zeros(0, dtype=np.int64)
            self._arrays = (us, vs, ws)
        return self._arrays

    def degree_weight(self, v: int) -> int:
        if not 0 <= v < self.n:
            raise InputError(f"vertex id {v} outside [0, {self.n})")
        return sum(w for _, w in self.adj[v])

    @property
    def full_set(self) -> VertexSet:
        return VertexSet.full(self.n)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, WeightedGraph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"WeightedGraph(n={self.n}, m={self.m})"


def _checked_edges(
    n: int, edges: Iterable[tuple[int, int, int]]
) -> Iterator[tuple[int, int, int]]:
    """The edges of outside input, each checked against the documented limits."""
    for u, v, w in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise InputError(f"edge ({u},{v}) has vertex id outside [0, {n})")
        if w < 0:
            raise InputError(f"negative weight {w} on edge ({u},{v})")
        if w > MAX_EDGE_WEIGHT:
            raise InputError(f"weight {w} exceeds limit 2^40 on edge ({u},{v})")
        yield u, v, w


def build_graph(n: int, edge_triples: Iterable[tuple[int, int, int]]) -> WeightedGraph:
    """Build a canonical weighted graph from (u, v, w) triples."""
    return WeightedGraph(n, edge_triples)


@dataclass(frozen=True)
class Cut:
    """One side of a cut plus its boundary weight."""

    side: VertexSet
    weight: int

    def __post_init__(self):
        if not self.side or not self.side.complement():
            raise InputError("cut side must be a nonempty proper subset")
        if self.weight < 0:
            raise InputError("negative cut weight")

    def verify(self, graph: WeightedGraph) -> bool:
        return cut_weight(graph, self.side) == self.weight


def cut_weight(graph: WeightedGraph, side: VertexSet) -> int:
    """Total weight of edges with exactly one endpoint in `side`."""
    if side.n != graph.n:
        raise InputError("vertex set universe does not match graph")
    if not side or not side.complement():
        raise InputError("cut side must be a nonempty proper subset")
    if graph.m == 0:
        return 0
    us, vs, ws = graph.edge_arrays
    bits = np.zeros(graph.n, dtype=np.int64)
    for v in side:
        bits[v] = 1
    crossing = bits[us] != bits[vs]
    return int(ws[crossing].sum())


def boundary_edges(graph: WeightedGraph, side: VertexSet) -> list[tuple[int, int]]:
    """Edges (u, v) with u < v crossing the cut, in canonical order."""
    if side.n != graph.n:
        raise InputError("vertex set universe does not match graph")
    mask = side.mask
    return [
        (u, v)
        for u, v, _ in graph.edges
        if ((mask >> u) & 1) != ((mask >> v) & 1)
    ]


@dataclass(frozen=True)
class ContractionMap:
    """Result of contracting vertex classes: the quotient graph plus the lift."""

    original_n: int
    mapping: tuple[int, ...]  # original vertex -> contracted vertex id
    graph: WeightedGraph

    def lift(self, contracted_side: VertexSet) -> VertexSet:
        """Pull a vertex set of the contracted graph back to original ids."""
        if contracted_side.n != self.graph.n:
            raise InputError("vertex set universe does not match contracted graph")
        mask = 0
        cm = contracted_side.mask
        for v, c in enumerate(self.mapping):
            if (cm >> c) & 1:
                mask |= 1 << v
        return VertexSet(self.original_n, mask)


def contract(graph: WeightedGraph, classes: list[VertexSet]) -> ContractionMap:
    """Contract each class to a single vertex (ids in class-list order).

    Classes must partition the vertex set. Parallel edges merge, intra-class
    edges vanish.
    """
    mapping = [-1] * graph.n
    for idx, cls in enumerate(classes):
        if cls.n != graph.n:
            raise InputError("class universe does not match graph")
        for v in cls:
            if mapping[v] != -1:
                raise InputError(f"vertex {v} appears in two classes")
            mapping[v] = idx
    if any(c == -1 for c in mapping):
        missing = [v for v, c in enumerate(mapping) if c == -1]
        raise InputError(f"classes do not cover vertices {missing[:5]}")
    quotient = WeightedGraph._derived(
        len(classes),
        ((mapping[u], mapping[v], w) for u, v, w in graph.edges),
    )
    return ContractionMap(graph.n, tuple(mapping), quotient)


def induced_subgraph(
    graph: WeightedGraph, side: VertexSet
) -> tuple[WeightedGraph, list[int]]:
    """Subgraph on side, plus the ascending original ids of its vertices.

    Vertex i of the subgraph corresponds to ids[i] in the original graph.
    """
    if side.n != graph.n:
        raise InputError("side universe does not match graph")
    if not side:
        raise InputError("cannot induce on an empty set")
    ids = side.members()
    index = {v: i for i, v in enumerate(ids)}
    triples = (
        (index[u], index[v], w)
        for u, v, w in graph.edges
        if u in index and v in index
    )
    return WeightedGraph._derived(len(ids), triples), ids


def components(graph: WeightedGraph) -> list[VertexSet]:
    """Connected components, ordered by smallest member."""
    return components_after_removal(graph, ())


def components_after_removal(
    graph: WeightedGraph, removed: Iterable[tuple[int, int]]
) -> list[VertexSet]:
    """Connected components of the graph with the given edges deleted."""
    removed_set: set[tuple[int, int]] = set()
    edge_keys = {(u, v) for u, v, _ in graph.edges}
    for u, v in removed:
        key = (u, v) if u < v else (v, u)
        if key not in edge_keys:
            raise InputError(f"edge ({u},{v}) not in graph")
        removed_set.add(key)
    seen = [False] * graph.n
    out: list[VertexSet] = []
    for start in range(graph.n):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        mask = 0
        while stack:
            u = stack.pop()
            mask |= 1 << u
            for v, _ in graph.adj[u]:
                key = (u, v) if u < v else (v, u)
                if key in removed_set or seen[v]:
                    continue
                seen[v] = True
                stack.append(v)
        out.append(VertexSet(graph.n, mask))
    return out


def is_connected(graph: WeightedGraph) -> bool:
    return graph.n <= 1 or len(components(graph)) == 1


# ---------------------------------------------------------------------------
# Edge-list text format:  comment lines start with 'c', a single header line
# 'p <n> <m>' precedes exactly m lines 'u v w'.
# ---------------------------------------------------------------------------


def parse_edgelist(text: str) -> WeightedGraph:
    n = None
    m = None
    triples: list[tuple[int, int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if n is not None:
                raise InputError(f"line {lineno}: duplicate header")
            parts = line.split()
            if len(parts) != 3:
                raise InputError(f"line {lineno}: header must be 'p <n> <m>'")
            try:
                n, m = int(parts[1]), int(parts[2])
            except ValueError as exc:
                raise InputError(f"line {lineno}: bad header numbers") from exc
            continue
        if n is None:
            raise InputError(f"line {lineno}: edge before header")
        parts = line.split()
        if len(parts) != 3:
            raise InputError(f"line {lineno}: edge must be 'u v w'")
        try:
            u, v, w = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError as exc:
            raise InputError(f"line {lineno}: bad edge numbers") from exc
        triples.append((u, v, w))
    if n is None:
        raise InputError("missing 'p <n> <m>' header")
    if m is not None and m != len(triples):
        raise InputError(f"header declares {m} edges, found {len(triples)}")
    return build_graph(n, triples)


def write_edgelist(graph: WeightedGraph) -> str:
    lines = [f"p {graph.n} {graph.m}"]
    lines.extend(f"{u} {v} {w}" for u, v, w in graph.edges)
    return "\n".join(lines) + "\n"

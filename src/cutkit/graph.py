"""Core graph types and the graph file formats.

Weighted undirected graphs, vertex sets, cuts and contractions, plus the
two text formats a graph file comes in, edge list and DIMACS: this module
is the one place either is read or written.

Weights are nonnegative integers throughout; all comparisons are exact. A graph
stores its edges only as canonical int64 arrays, a vertex set as a bit mask;
VertexSet.bools()/from_bools() convert. A partition is one int64 label per
vertex: components_after_removal() returns one, contract() takes one.
``canonical_graphs`` is the one sort and merge of edge rows: input graphs,
contractions and isolating flow instances all take their arrays from it.
"""

import hashlib
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .errors import InputError, as_int

MAX_EDGE_WEIGHT = 1 << 40
MAX_TOTAL_WEIGHT = 1 << 62
MAX_VERTICES = 1 << 31


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
        """The set of the given ids; each is a Python or NumPy int in [0, n)."""
        n = as_int("universe size", n)
        mask = 0
        for v in ids:
            v = as_int("vertex id", v)
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

    def bools(self) -> np.ndarray:
        """Membership flags: a bool array of length n, True on members."""
        raw = np.frombuffer(self.mask.to_bytes((self.n + 7) // 8, "little"), dtype=np.uint8)
        return np.unpackbits(raw, count=self.n, bitorder="little").view(bool)

    @classmethod
    def from_bools(cls, flags: np.ndarray) -> "VertexSet":
        """The set of indices whose flag is true; inverse of bools()."""
        packed = np.packbits(np.asarray(flags, dtype=bool), bitorder="little")
        return cls(len(flags), int.from_bytes(packed.tobytes(), "little"))


class WeightedGraph:
    """Undirected graph with integer edge weights.

    The one stored form of the edges is ``edge_arrays``, a canonical
    (us, vs, ws) triple of int64 arrays: us < vs, sorted ascending by
    (u, v), parallel edges merged by weight summation, self loops and zero
    weights dropped. ``m`` is its length, set with it. ``edges`` and
    ``degrees`` are computed from it on every access, so read each once per
    function; ``digest`` is computed on first access and kept, since the
    arrays never change.
    """

    __slots__ = ("n", "m", "edge_arrays", "total_weight", "_digest")

    def __init__(self, n: int, edges: Iterable[tuple[int, int, int]]):
        n = as_int("vertex count", n)
        if not 0 <= n <= MAX_VERTICES:
            raise InputError(f"vertex count {n} outside [0, 2^31]")
        triples = []
        for edge in edges:
            try:
                u, v, w = edge
            except (TypeError, ValueError):
                raise InputError(f"edge {edge!r} is not a (u, v, weight) triple") from None
            # as_int refuses a bool, and a float numpy would truncate silently.
            u, v, w = as_int("vertex id", u), as_int("vertex id", v), as_int("edge weight", w)
            triples.append((u, v, w))
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"edge ({u},{v}) has vertex id outside [0, {n})")
            if w < 0:
                raise InputError(f"negative weight {w} on edge ({u},{v})")
            if w > MAX_EDGE_WEIGHT:
                raise InputError(f"weight {w} exceeds limit 2^40 on edge ({u},{v})")
        # Summed as Python ints, so the int64 sums below cannot overflow.
        if sum(w for u, v, w in triples if u != v) >= MAX_TOTAL_WEIGHT:
            raise InputError("total weight exceeds limit 2^62")
        us, vs, ws = np.array(triples, dtype=np.int64).reshape(-1, 3).T
        keep = (us != vs) & (ws != 0)
        (graph,) = canonical_graphs(np.array([0, n]), us[keep], vs[keep], ws[keep])
        self.n, self.m, self.edge_arrays = n, graph.m, graph.edge_arrays
        self.total_weight = graph.total_weight
        self._digest: bytes | None = None

    @classmethod
    def _canonical(
        cls, n: int, us: np.ndarray, vs: np.ndarray, ws: np.ndarray, total_weight: int
    ) -> "WeightedGraph":
        """Graph whose int64 arrays are already in ``edge_arrays`` form, kept as given.

        Nothing is checked, sorted or copied: the caller guarantees the
        canonical form and that total_weight is the sum of ws. This is the
        one unchecked constructor (``canonical_graphs``, ``induced_subgraph``).
        """
        graph = object.__new__(cls)
        graph.n = n
        graph.m = len(ws)
        graph.edge_arrays = (us, vs, ws)
        graph.total_weight = total_weight
        graph._digest = None
        return graph

    @property
    def digest(self) -> bytes:
        """16-byte BLAKE2b digest of the three ``edge_arrays``.

        With n it is the one key of a graph: every memo and ``__hash__``
        use it, 16 bytes where the arrays themselves take 24 per edge.
        ``__eq__`` still compares the arrays exactly.
        """
        if self._digest is None:
            h = hashlib.blake2b(digest_size=16)
            for a in self.edge_arrays:
                h.update(a.tobytes())
            self._digest = h.digest()
        return self._digest

    @property
    def edges(self) -> tuple[tuple[int, int, int], ...]:
        """The canonical edges as (u, v, w) tuples of Python ints."""
        return tuple(zip(*(a.tolist() for a in self.edge_arrays)))

    @property
    def degrees(self) -> np.ndarray:
        """Weighted degree of every vertex, as an int64 array."""
        us, vs, ws = self.edge_arrays
        deg = np.zeros(self.n, dtype=np.int64)
        np.add.at(deg, us, ws)
        np.add.at(deg, vs, ws)
        return deg

    @property
    def full_set(self) -> VertexSet:
        return VertexSet.full(self.n)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, WeightedGraph)
            and self.n == other.n
            and all(map(np.array_equal, self.edge_arrays, other.edge_arrays))
        )

    def __hash__(self) -> int:
        return hash((self.n, self.digest))

    def __repr__(self) -> str:
        return f"WeightedGraph(n={self.n}, m={self.m})"


def canonical_graphs(
    base: np.ndarray, near: np.ndarray, far: np.ndarray, ws: np.ndarray
) -> list[WeightedGraph]:
    """Graphs laid end to end, each built from its slice of one sort of their edge rows.

    Graph j's vertex i has id base[j] + i, so the int64 array base holds one
    entry more than there are graphs (one graph of n vertices: [0, n]). Row
    (near[x], far[x], ws[x]) is an edge of positive weight between two
    distinct ids of one graph. The rows sort on the int64 key min * total +
    max, total = base[-1], and equal keys merge by weight summation, so
    graph j's slice, moved down by base[j], is its ``edge_arrays``. Merged
    weights may pass the 2^40 edge limit; each graph's total stays below 2^62.

    Keys stay below total^2: for one graph, n <= 2^31 keeps them below
    2^62. The isolating builds each hold an int64 array of at least
    total / 2 entries, so a key could pass 2^63 only once it took 12 GB.
    """
    total = int(base[-1])
    # near and far may be int32; every key is built in int64.
    key = np.minimum(near, far, dtype=np.int64)
    key *= total
    key += np.maximum(near, far)
    # Rows with equal keys merge, so any sort gives the same arrays. Rows
    # often come in runs of ascending keys, which a stable sort exploits.
    # Each array is freed as soon as it is used.
    order = np.argsort(key, kind="stable")
    key = key[order]
    ws = ws[order]
    del order
    if ws.size:
        first = np.empty(ws.size, dtype=bool)
        first[0] = True
        np.not_equal(key[1:], key[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        del first
        ws = np.add.reduceat(ws, starts)
        key = key[starts]
        del starts
    bounds = np.searchsorted(key, base * total)
    lo, hi = np.divmod(key, max(total, 1))  # with no ids there are no rows
    del key
    at = np.repeat(base[:-1], np.diff(bounds))
    lo -= at
    hi -= at
    del at
    # The prefix sums wrap mod 2^64, but every graph's total is below
    # 2^62, so each difference is exact.
    prefix = np.zeros(ws.size + 1, dtype=np.uint64)
    np.cumsum(ws.view(np.uint64), out=prefix[1:])
    weights = np.diff(prefix[bounds]).tolist()
    sizes = np.diff(base).tolist()
    bounds = bounds.tolist()
    return [
        WeightedGraph._canonical(size, lo[a:b], hi[a:b], ws[a:b], weight)
        for size, a, b, weight in zip(sizes, bounds, bounds[1:], weights)
    ]


@dataclass(frozen=True)
class Cut:
    """One side of a cut plus its boundary weight."""

    side: VertexSet
    weight: int

    def __post_init__(self):
        if self.side.mask in (0, (1 << self.side.n) - 1):
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
    us, vs, ws = graph.edge_arrays
    inside = side.bools()
    return int(ws[inside[us] != inside[vs]].sum())


def boundary_edges(graph: WeightedGraph, side: VertexSet) -> list[tuple[int, int]]:
    """Edges (u, v) with u < v crossing the cut, in canonical order."""
    if side.n != graph.n:
        raise InputError("vertex set universe does not match graph")
    us, vs, _ = graph.edge_arrays
    inside = side.bools()
    crossing = inside[us] != inside[vs]
    return list(zip(us[crossing].tolist(), vs[crossing].tolist()))


def contract(graph: WeightedGraph, labels: "np.ndarray | list[int]") -> WeightedGraph:
    """The quotient graph: each class of equal labels becomes the vertex of that id.

    labels holds one nonnegative id per vertex; the quotient has max + 1
    vertices, and an id no vertex carries is an isolated vertex. Parallel
    edges merge, intra-class edges vanish. A quotient side lifts back as
    ``VertexSet.from_bools(side.bools()[labels])``.
    """
    labels = np.asarray(labels)
    if labels.shape != (graph.n,):
        raise InputError(f"need one label per vertex, got {labels.shape} for n={graph.n}")
    # An int64 conversion would truncate a float label silently.
    if labels.size and not np.issubdtype(labels.dtype, np.integer):
        raise InputError(f"labels must be integers, got dtype {labels.dtype}")
    labels = labels.astype(np.int64, copy=False)
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= MAX_VERTICES:
        raise InputError("labels must lie in [0, 2^31)")
    us, vs, ws = graph.edge_arrays
    lu, lv = labels[us], labels[vs]
    keep = lu != lv
    n = int(labels.max(initial=-1)) + 1
    return canonical_graphs(np.array([0, n]), lu[keep], lv[keep], ws[keep])[0]


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
    us, vs, ws = graph.edge_arrays
    inside = side.bools()
    index = np.cumsum(inside) - 1
    keep = inside[us] & inside[vs]
    # index rises with the vertex id, so the kept edges are already canonical.
    ws = ws[keep]
    sub = WeightedGraph._canonical(len(side), index[us[keep]], index[vs[keep]], ws, int(ws.sum()))
    return sub, np.flatnonzero(inside).tolist()


def components_after_removal(graph: WeightedGraph, removed: np.ndarray) -> np.ndarray:
    """Component label of every vertex once the flagged edges are deleted.

    removed holds one bool per edge of ``edge_arrays``. A vertex's label is
    the smallest member of its component, as an int64 array of length n.
    """
    removed = np.asarray(removed, dtype=bool)
    if removed.shape != (graph.m,):
        raise InputError(f"need one flag per edge, got {removed.shape} for m={graph.m}")
    us, vs, _ = graph.edge_arrays
    return _component_labels(graph.n, us[~removed], vs[~removed])


def _component_labels(n: int, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """Smallest member of each vertex's component, over [0, n) and the edges (us[i], vs[i]).

    The int64 ends need not be canonical. Hook-and-pointer-jump (Shiloach
    and Vishkin, J. Algorithms 1982) in NumPy; no SciPy is imported, so the
    Dinic path stays free of it.
    """
    # Every label[x] <= x lies in x's component; between rounds each tree is
    # a star whose root is its smallest member.
    labels = np.arange(n, dtype=np.int64)
    while True:
        lu, lv = labels[us], labels[vs]
        apart = lu != lv
        if not apart.any():
            return labels
        # An edge inside one star stays inside it; hook larger roots on smaller.
        us, vs, lu, lv = us[apart], vs[apart], lu[apart], lv[apart]
        np.minimum.at(labels, np.maximum(lu, lv), np.minimum(lu, lv))
        while True:
            jumped = labels[labels]
            if np.array_equal(jumped, labels):
                break
            labels = jumped


def is_connected(graph: WeightedGraph) -> bool:
    # Each label is the smallest member of its component, so all are 0 iff one component.
    return not components_after_removal(graph, np.zeros(graph.m, dtype=bool)).any()


# ---------------------------------------------------------------------------
# Text formats. Both skip blank lines and comment lines, which start with 'c'.
# Edge list (0-based ids): one header 'p <n> <m>', then exactly m lines 'u v w'.
# DIMACS max flow (1-based ids): one header 'p max <n> <m>' first, 'n <id> s'
# and 'n <id> t' once each, and exactly m lines 'a <u> <v> <cap>'. Each arc
# is read as an undirected edge and parallel edges merge by adding their
# weights, so arcs u->v and v->u add up: a symmetric network lists each
# edge once.
# ---------------------------------------------------------------------------


def _lines(text: str) -> Iterator[tuple[int, list[str]]]:
    """The line number and tokens of every line that is neither blank nor a comment."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if tokens and not tokens[0].startswith("c"):
            yield lineno, tokens


def _int(token: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError as exc:
        raise InputError(f"line {lineno}: {token!r} is not an integer") from exc


def parse_edgelist(text: str) -> WeightedGraph:
    n = m = None
    triples: list[tuple[int, ...]] = []
    for lineno, tokens in _lines(text):
        if tokens[0] == "p":
            if n is not None:
                raise InputError(f"line {lineno}: duplicate header")
            if len(tokens) != 3:
                raise InputError(f"line {lineno}: header must be 'p <n> <m>'")
            n, m = (_int(x, lineno) for x in tokens[1:])
        elif n is None:
            raise InputError(f"line {lineno}: edge before header")
        elif len(tokens) != 3:
            raise InputError(f"line {lineno}: edge must be 'u v w'")
        else:
            triples.append(tuple(_int(x, lineno) for x in tokens))
    if n is None:
        raise InputError("missing 'p <n> <m>' header")
    if m != len(triples):
        raise InputError(f"header declares {m} edges, found {len(triples)}")
    return WeightedGraph(n, triples)


def write_edgelist(graph: WeightedGraph) -> str:
    lines = [f"p {graph.n} {graph.m}"]
    lines.extend(f"{u} {v} {w}" for u, v, w in graph.edges)
    return "\n".join(lines) + "\n"


def parse_dimacs(text: str) -> tuple[WeightedGraph, int, int]:
    """Graph, source and sink of a DIMACS max-flow file.

    The one ``p`` line comes first, each of ``n <id> s`` and ``n <id> t``
    appears once, and the header's arc count must equal the number of
    ``a`` lines; anything else raises InputError.
    """
    n = m = None
    ends = {"s": None, "t": None}
    triples: list[tuple[int, int, int]] = []
    for lineno, tokens in _lines(text):
        tag = tokens[0]
        if tag == "p":
            if n is not None:
                raise InputError(f"line {lineno}: duplicate 'p' line")
            if len(tokens) != 4 or tokens[1] != "max":
                raise InputError(f"line {lineno}: header must be 'p max <n> <m>'")
            n, m = (_int(x, lineno) for x in tokens[2:])
        elif tag not in ("n", "a"):
            raise InputError(f"line {lineno}: unknown line tag {tag!r}")
        elif n is None:
            raise InputError(f"line {lineno}: {tag!r} line before the 'p' line")
        elif tag == "n":
            if len(tokens) != 3 or tokens[2] not in ends:
                raise InputError(f"line {lineno}: node line must be 'n <id> s|t'")
            if ends[tokens[2]] is not None:
                raise InputError(f"line {lineno}: duplicate 'n <id> {tokens[2]}' line")
            ends[tokens[2]] = _int(tokens[1], lineno) - 1
        else:
            if len(tokens) != 4:
                raise InputError(f"line {lineno}: arc line must be 'a <u> <v> <cap>'")
            u, v, c = (_int(x, lineno) for x in tokens[1:])
            triples.append((u - 1, v - 1, c))
    if n is None:
        raise InputError("missing 'p max' header")
    if m != len(triples):
        raise InputError(f"header declares {m} arcs, found {len(triples)}")
    if ends["s"] is None or ends["t"] is None:
        raise InputError("missing source or sink designation")
    return WeightedGraph(n, triples), ends["s"], ends["t"]


def write_dimacs(graph: WeightedGraph, s: int, t: int) -> str:
    """The DIMACS text of graph with source s and sink t, two distinct vertices."""
    if not (0 <= s < graph.n and 0 <= t < graph.n) or s == t:
        raise InputError(f"DIMACS needs two distinct vertices of [0, {graph.n}), got {s} and {t}")
    lines = [f"p max {graph.n} {graph.m}", f"n {s + 1} s", f"n {t + 1} t"]
    lines.extend(f"a {u + 1} {v + 1} {w}" for u, v, w in graph.edges)
    return "\n".join(lines) + "\n"

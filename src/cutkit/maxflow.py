"""Exact s-t maximum flow / minimum cut with call metering.

Both engines are deterministic and return identical results: a Cut whose
weight is the flow value and whose side is the inclusion-minimal minimum
cut side, the set of vertices reachable from s in the final residual graph.

Engine protocol: ``solve_batch`` runs, ``solve`` reads.
``solve_batch(instances)`` runs the flows of every (graph, s, t) instance
it is given and returns their Cuts, and ``glues(graph)`` says whether an
instance joins the batch's one glued flow (SciPy, within int32) or gets a
flow of its own (Dinic, and SciPy past int32).
``solve(graph, s, t, memo)`` runs no flow: it reads the answer through
``known_cut``.

One solve step, ``solve_ahead``, is the only code that calls
``solve_batch``: it sends every new nontrivial instance of a list, each
once, as one batch and stores the cuts in ``FlowMeter.memo``, under the
key (n, m, s, t, the graph's ``digest``: 16 bytes of BLAKE2b over its
``edge_arrays``). A digest keeps each entry small where the arrays
themselves would cost 24 bytes per edge. The memo lives as long as the
meter: one driver run, which empties it before returning its report.
One read step, ``known_cut``, is the only place an answer is read: an
edgeless or two-vertex instance gets its closed form (its only minimal
side is {s}, of value the total edge weight), any other its memo entry,
and a nontrivial instance not yet solved raises ContractViolation.
``max_flow`` passes its instance to ``solve_ahead`` as a batch of one,
then meters the call and reads the answer through ``engine.solve``, so
the meter counts logical calls: a call answered from the memo still
counts.

- ``DinicEngine`` (the default) is pure Python on Python-int capacities, so
  it is exact at any weight. It runs shortest augmenting paths on exact
  distance labels (ISAP; Ahuja and Orlin 1991) with gap and global
  relabelling (Cherkassky and Goldberg 1997): O(n^2 m) interpreted steps
  at worst, the bound of Dinic's blocking flows, but where Dinic runs one
  BFS over every arc per phase, it relabels only the vertices it visits.
  Edge i of ``graph.edge_arrays`` is arc 2i (u->v) and arc 2i+1 (v->u), so
  a ^ 1 is the reverse arc, and one stable argsort of the arc tails gives
  every vertex that has arcs its arc list. The side is the set of vertices
  that one final residual BFS from s reaches; every maximum flow leaves
  the same set, so the algorithm changes no cut. The engine keeps the name
  ``dinic``, which the CLI, ``get_engine`` and perfbench's ``heavy-dinic``
  workload use. Its cost is per arc, not per call, so its ``solve_batch``
  just runs one flow per instance.
- ``ScipyEngine``'s ``maximum_flow`` needs int32 capacities, so
  ``solve_batch`` sends an instance past int32 to ``DinicEngine``'s exact
  flow. Its cost is about 0.3 ms of fixed SciPy overhead per batch (one
  ``maximum_flow`` call) plus the same algorithm compiled, so
  ``solve_batch`` solves the other independent instances in one call: it
  glues every source into vertex 0 and every sink into vertex 1, gives
  each instance's other vertices that some edge touches ids of their own,
  leaves direct s-t edges out and adds their weight back. One csgraph BFS
  over the arcs with positive residual capacity then gives every instance
  its side. The glue is one vectorized pass over the batch's concatenated
  edge arrays, with no NumPy call per instance, and SciPy's COO to CSR
  conversion sorts the arcs; the BFS reach gives every side, and the flow
  out of vertex 0 every cut weight. Its arrays grow with the batch's
  edges, not its vertices, and only the CSR matrix lives through the flow:
  a batch peaks at about 80 traced bytes per glued edge, some 57 of them
  inside SciPy's ``maximum_flow``.

A caller that knows several independent flows ahead builds each
instance, solves the new ones in one ``solve_ahead`` batch, and then meters
every call in order through ``max_flow``, lifting a contracted instance's
cut back to the graph through ``lift_side``, from the bits of the
instance's side. Callers group their flows with ``batches``, the one rule
that sizes a batch. ``separation_quotient`` builds one instance by
contraction.
"""

from dataclasses import dataclass, field
from itertools import compress
from typing import Callable, Iterable, Iterator

import numpy as np

from .errors import ContractViolation, InputError
from .graph import Cut, VertexSet, WeightedGraph, contract

INT32_LIMIT = 1 << 31

# Edges that one batch of independent flows may glue together (``batches``).
# The cap trades SciPy's fixed cost per ``maximum_flow`` call against
# memory: a SciPy batch peaks at about 80 traced bytes per glued edge (57
# inside ``maximum_flow``), on top of the isolating instances that wait to
# be metered (24 bytes per edge). At 8,192 every perfbench workload peaks
# within 2% of its RSS at 4,096 before the glue and the isolating builds
# were trimmed, and global-dense runs 13% faster; 16,384 ran 22% faster
# but peaked about 3% higher there.
_BATCH_EDGES = 8192

# Maps the digits of ``bin`` to the bytes 0 and 1 (``lift_side``).
_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


@dataclass
class FlowMeter:
    """Counts max-flow calls and the size (n, m) of each call's instance.

    Equivalent calls are the paper's cost measure: one per call,
    except that the calls of one bundle (an isolating run's whole phase B,
    whose instances together are no bigger than one) count as one call.
    memo maps the key of every nontrivial instance solved for this meter to
    its Cut, and solved counts those instances. Every instance solved ahead
    is metered in the same step, so recalled, the nontrivial calls minus
    solved, counts the calls answered from an earlier call's solve.
    engine_invocations counts the flows the engine actually ran: per
    ``solve_ahead`` batch, one for the instances the engine glues
    (``glues``) and one per other instance. A recalled or batched call is
    still a call: neither count changes calls, equivalent calls or a
    report's fingerprint.
    """

    calls: list[tuple[int, int]] = field(default_factory=list)
    bundled: int = 0
    solved: int = 0
    engine_invocations: int = 0
    memo: dict = field(default_factory=dict, compare=False, repr=False)

    def record(self, n: int, m: int) -> None:
        self.calls.append((n, m))

    def bundle(self, mark: int) -> None:
        """Charge the calls made since call_count was mark as one call.

        Bundling zero or one call changes nothing; mark must lie in
        [0, call_count].
        """
        if not 0 <= mark <= len(self.calls):
            raise InputError(f"bundle mark {mark} outside [0, {len(self.calls)}]")
        self.bundled += max(len(self.calls) - mark - 1, 0)

    @property
    def recalled(self) -> int:
        return sum(1 for n, m in self.calls if not _trivial(n, m)) - self.solved

    @property
    def equivalent_calls(self) -> int:
        return len(self.calls) - self.bundled

    @property
    def call_count(self) -> int:
        return len(self.calls)

    @property
    def aggregate_vertices(self) -> int:
        return sum(n for n, _ in self.calls)

    @property
    def aggregate_edges(self) -> int:
        return sum(m for _, m in self.calls)

    def delta(self, mark: int) -> list[tuple[int, int]]:
        return self.calls[mark:]


def batches(items: Iterable, size_of: Callable[..., int]) -> Iterator[list]:
    """The items in groups of consecutive items, for one flow batch each.

    A group takes items while their sizes (edges) sum to at most
    ``_BATCH_EDGES``, and at least one, so an item over the cap is a group
    of its own. Each item's size is read once, when the item is drawn, and
    a group is yielded once the item after it is drawn, so the items may be
    built as they are drawn.
    """
    group: list = []
    total = 0
    for item in items:
        size = size_of(item)
        if group and total + size > _BATCH_EDGES:
            yield group
            group, total = [], 0
        group.append(item)
        total += size
    if group:
        yield group


def _trivial(n: int, m: int) -> bool:
    return m == 0 or n == 2


def _memo_key(graph: WeightedGraph, s: int, t: int) -> tuple:
    return (graph.n, graph.m, s, t, graph.digest)


def known_cut(graph: WeightedGraph, s: int, t: int, memo: dict) -> Cut:
    """The cut of (graph, s, t) once ``solve_ahead`` has run: its closed form, else memo's.

    This is the only place an answer is read. An edgeless or two-vertex
    instance has {s} as its only minimal s-t cut side, of value the total
    edge weight, so no flow runs on it. A nontrivial instance missing from
    memo raises ContractViolation.
    """
    if _trivial(graph.n, graph.m):
        return Cut(VertexSet(graph.n, 1 << s), graph.total_weight)
    cut = memo.get(_memo_key(graph, s, t))
    if cut is None:
        raise ContractViolation("instance was read before it was solved")
    return cut


class DinicEngine:
    """Shortest-augmenting-path max flow on flat arc lists; exact for any int weights.

    Edge i of ``graph.edge_arrays`` becomes arc 2i (u->v) and arc 2i+1
    (v->u), each with the edge weight as capacity, so a ^ 1 is the reverse
    of arc a; ``to`` and ``cap`` are Python-int lists, exact past 2^53. One
    stable argsort of the tails gives each vertex that has arcs its arcs in
    id order; every other vertex shares one empty tuple.

    The flow is ISAP (Ahuja and Orlin 1991): each vertex carries a label d,
    a lower bound on its residual distance to t, and a current-arc index.
    A reverse BFS from t sets d exactly and counts the vertices at each
    label; it does not pass through s, since an augmenting path never
    returns to s. From s the search advances along an arc to a vertex
    labelled one lower; at t it pushes the path's least capacity and cuts
    the path back to its first saturated arc. A vertex with no such arc is
    relabelled to 1 + the least label over its residual arcs, and the
    search steps back. A simple path visits only vertices that have arcs,
    so a label of that many or more means t is out of reach. The flow is
    maximum once d[s] gets there or a relabel leaves some label with no
    vertex (a gap, Cherkassky and Goldberg 1997), as no path from s can
    then reach t. Once the relabels since the last BFS have scanned more
    arcs than the instance has, the BFS runs again (a global relabel),
    which keeps long cycles and grids from being relabelled step by step.
    O(n^2 m) steps at worst, as for Dinic's blocking flows; nothing
    recurses, so a long path cannot exhaust the stack. One final residual
    BFS from s gives the returned side, and any maximum flow gives the same
    one. The class keeps the name it had as a blocking-flow (Dinic) engine,
    the name the CLI and ``get_engine`` use.

    ``solve_batch`` runs one flow per instance, so each batched instance is
    one engine invocation, and ``glues`` is always false. ``solve`` only
    reads: edgeless and two-vertex instances get the shared closed form,
    any other its cut in memo (``known_cut``).
    """

    name = "dinic"

    @staticmethod
    def glues(graph: WeightedGraph) -> bool:
        return False

    def solve(self, graph: WeightedGraph, s: int, t: int, memo: dict) -> Cut:
        return known_cut(graph, s, t, memo)

    @staticmethod
    def solve_batch(instances: list[tuple[WeightedGraph, int, int]]) -> list[Cut]:
        """The Cut of every (graph, s, t) instance, one flow each."""
        return [DinicEngine._flow(graph, s, t) for graph, s, t in instances]

    @staticmethod
    def _flow(graph: WeightedGraph, s: int, t: int) -> Cut:
        n = graph.n
        us, vs, ws = graph.edge_arrays
        ends = np.array((us, vs))
        tails = ends.T.ravel()
        to = ends[::-1].T.ravel().tolist()
        cap = np.repeat(ws, 2).tolist()
        order = np.argsort(tails, kind="stable").tolist()
        counts = np.bincount(tails, minlength=n)
        owners = np.flatnonzero(counts)
        # Only vertices that have arcs get a slice, so a near-edgeless
        # instance builds one list per arc owner, not one per vertex.
        arcs: list = [()] * n
        b = 0
        for v, e in zip(owners.tolist(), np.cumsum(counts[owners]).tolist()):
            arcs[v] = order[b:e]
            b = e
        # A simple path visits only vertices that have arcs, so a vertex
        # labelled top cannot reach t.
        top = len(owners)
        arc_count = len(to)
        total = 0
        while True:
            # Global relabel: exact residual distances to t, by a BFS from t
            # over reversed arcs that does not expand s, since an augmenting
            # path never returns to s.
            d = [top] * n
            d[t] = 0
            queue = [t]
            for v in queue:
                if v == s:
                    continue
                k = d[v] + 1
                for a in arcs[v]:
                    w = to[a]
                    if d[w] == top and cap[a ^ 1]:
                        d[w] = k
                        queue.append(w)
            if d[s] == top:
                break
            count = [0] * (top + 1)
            for v in queue:
                count[d[v]] += 1
            cur = [0] * n
            work = 0
            path: list[int] = []
            u = s
            while True:
                if u == t:
                    caps = list(map(cap.__getitem__, path))
                    pushed = min(caps)
                    total += pushed
                    for a in path:
                        cap[a] -= pushed
                        cap[a ^ 1] += pushed
                    # Back to the tail of the first saturated arc.
                    del path[caps.index(pushed) :]
                    u = to[path[-1]] if path else s
                    continue
                out = arcs[u]
                k = d[u] - 1
                for i in range(cur[u], len(out)):
                    a = out[i]
                    if cap[a] and d[to[a]] == k:
                        cur[u] = i
                        path.append(a)
                        u = to[a]
                        break
                else:
                    # Relabel u to 1 + the least label over its residual arcs.
                    low = top
                    for a in out:
                        if cap[a] and d[to[a]] < low:
                            low = d[to[a]]
                    k += 1
                    count[k] -= 1
                    if not count[k]:
                        # A gap: with no vertex left at u's old label, no
                        # label above it reaches t, and s is above it.
                        d[s] = top
                        break
                    low = low + 1 if low < top else top
                    d[u] = low
                    count[low] += 1
                    cur[u] = 0
                    if path:
                        u = to[path.pop() ^ 1]
                    elif low == top:
                        break
                    work += len(out)
                    if work > arc_count:
                        break
            if d[s] == top:
                break

        # Every maximum flow leaves the same vertices reachable from s.
        seen = bytearray(n)
        seen[s] = 1
        queue = [s]
        for u in queue:
            for a in arcs[u]:
                if cap[a]:
                    v = to[a]
                    if not seen[v]:
                        seen[v] = 1
                        queue.append(v)
        return Cut(VertexSet.from_bools(np.frombuffer(seen, dtype=bool)), total)


class ScipyEngine:
    """scipy.sparse.csgraph.maximum_flow engine, exact for any int weights.

    ``maximum_flow`` needs int32 capacities, and the limit holds per solved
    instance: contraction merges parallel edges, so a graph whose every
    edge fits int32 (a star of five 2^30 edges, for one) can still have an
    instance that does not. ``glues`` says which instances fit.

    ``solve_batch`` runs the flows: every instance that fits in one
    ``maximum_flow`` call, and each other one through ``DinicEngine``'s
    exact flow, so a batch is one engine invocation plus one per instance
    past int32. ``solve`` only reads: an edgeless or two-vertex instance
    gets the shared closed form, any other its cut in memo
    (``known_cut``).
    """

    name = "scipy"

    @staticmethod
    def glues(graph: WeightedGraph) -> bool:
        """Whether graph's capacities fit int32, so that its instance joins the glued flow."""
        # Weights are nonnegative, so a total below the limit bounds every edge.
        return graph.total_weight < INT32_LIMIT or int(graph.edge_arrays[2].max()) < INT32_LIMIT

    def solve(self, graph: WeightedGraph, s: int, t: int, memo: dict) -> Cut:
        return known_cut(graph, s, t, memo)

    @staticmethod
    def solve_batch(instances: list[tuple[WeightedGraph, int, int]]) -> list[Cut]:
        """Every instance's Cut: one flow for all that ``glues``, and one per other instance."""
        glued = [ScipyEngine.glues(graph) for graph, _, _ in instances]
        cuts = iter(ScipyEngine._glued_flow(list(compress(instances, glued))))
        return [next(cuts) if g else DinicEngine._flow(*inst) for g, inst in zip(glued, instances)]

    @staticmethod
    def _glued_flow(instances: list[tuple[WeightedGraph, int, int]]) -> list[Cut]:
        """The Cut of every (graph, s, t) instance, from one maximum_flow call.

        The instances are glued into one graph: every s becomes vertex 0,
        every t vertex 1, and each instance's other vertices that some edge
        touches get ids of their own in ascending order, so two instances
        share only 0 and 1 and no glued edge is parallel to another. No
        residual path reaches a vertex without edges, so it is never on a
        side and needs no id. A direct s-t edge is left out of the flow; it
        crosses every s-t cut, so the cut weight counts it back.
        After a maximum flow no residual path reaches vertex 1, so the BFS
        from vertex 0 passes between instances only through 0 and reaches,
        in each, the side a flow on that instance alone would give. By the
        same token the glued flow is a maximum flow of every instance, so an
        instance's cut weight is its flow out of vertex 0 plus its direct
        s-t edge.

        Every step is one pass over the whole batch (``_glue``). Vertex x
        of instance i has the key first[i] + x, each instance starting at a
        byte boundary; only the keys of edge ends, s and t take part, so
        the glue's arrays grow with the batch's edges. While the flow runs,
        only the CSR matrix, the glued vertices' keys and one weight per
        instance are alive. The BFS reach gives every side, set bit by bit
        in bytes, one instance after another.
        """
        from scipy.sparse.csgraph import breadth_first_order, maximum_flow

        if not instances:
            return []
        ns = np.array([graph.n for graph, _, _ in instances])
        width = (ns + 7) // 8
        # Instance i's vertex x has key first[i] + x: each instance starts
        # at a byte boundary.
        first = 8 * (np.cumsum(width) - width)
        glued, held, direct = _glue(instances, first)
        flow = maximum_flow(glued, 0, 1).flow
        if not all(map(np.array_equal, (flow.indptr, flow.indices), (glued.indptr, glued.indices))):
            raise ContractViolation("maximum_flow returned a different CSR layout")
        # Instance i's vertices other than s and t have the glued ids
        # bounds[i] .. bounds[i + 1] - 1, and row 0 holds the arcs out of
        # the glued source, heads ascending; its flow into instance i is
        # that instance's flow value. Summed in int64, it is exact.
        bounds = np.append(np.searchsorted(held, first), held.size) + 2
        heads = flow.indices[: flow.indptr[1]]
        out = np.concatenate([[0], np.cumsum(flow.data[: heads.size], dtype=np.int64)])
        values = np.diff(out[np.searchsorted(heads, bounds)])
        weights = (values + direct).tolist()
        # The flow matrix becomes the residual one in place. float64 is
        # csgraph's own dtype, so the BFS works on it without a copy.
        residual = flow
        residual.data = np.subtract(glued.data, flow.data, dtype=np.float64)
        del glued
        residual.eliminate_zeros()
        reached = np.zeros(held.size + 2, dtype=bool)
        reached[breadth_first_order(residual, 0, return_predecessors=False)] = True
        del residual
        # Glued id g >= 2 is vertex held[g - 2]; every s is on its side.
        keys = np.concatenate([held[reached[2:]], first + [s for _, s, _ in instances]])
        sides = np.zeros(int(width.sum()), dtype=np.uint8)
        np.bitwise_or.at(sides, keys >> 3, np.left_shift(1, keys & 7).astype(np.uint8))
        sides = memoryview(sides)  # read in place, without a copy
        byte_ends = np.cumsum(width).tolist()
        return [
            Cut(VertexSet(n, int.from_bytes(sides[b - w : b], "little")), weight)
            for n, w, b, weight in zip(ns.tolist(), width.tolist(), byte_ends, weights)
        ]


def _glue(instances: list[tuple[WeightedGraph, int, int]], first: np.ndarray) -> tuple:
    """The glued CSR of a batch, the keys of its glued vertices, and each instance's s-t weight.

    Vertex x of instance i has key first[i] + x. Every s becomes glued
    vertex 0, every t vertex 1, and every other key that some edge touches
    glued id 2 + its rank among those keys, so held, the keys in ascending
    order, maps a glued id back to its instance and vertex. The ranks come
    from one flag per key slot when the batch has no more slots than edge
    ends, else from one sort of the edge ends; either way the arrays grow
    with the batch's edges, not with its vertices. A direct s-t edge is left
    out of the CSR; direct[i] holds its weight (canonical edges are
    distinct, so an instance has at most one). The arrays built on the way
    die with this call, so none of them lives through the flow.
    """
    from scipy.sparse import coo_matrix

    graphs = [graph for graph, _, _ in instances]
    ms = [graph.m for graph in graphs]
    at = np.repeat(first, ms)
    ends = np.concatenate(
        [g.edge_arrays[0] for g in graphs] + [g.edge_arrays[1] for g in graphs]
        + [first + [s for _, s, _ in instances], first + [t for _, _, t in instances]]
    )
    e, count = at.size, len(instances)
    ends[:e] += at
    ends[e : 2 * e] += at
    del at
    slots = int(first[-1]) + 8 * ((graphs[-1].n + 7) // 8)
    if slots <= ends.size:
        # A flag per key slot costs no more than the edge ends, and takes a
        # tenth of the sort's time: with the sort on every batch, perfbench's
        # global-dense and steiner-subset passes ran 9-10% slower.
        space, spot = None, ends
        rest = np.zeros(slots, dtype=bool)
        rest[ends] = True
    else:
        space, spot = np.unique(ends, return_inverse=True)
        rest = np.ones(space.size, dtype=bool)
    del ends
    rest[spot[2 * e :]] = False
    held = np.flatnonzero(rest)
    if space is not None:
        held = space[held]
    # s -> 0, t -> 1, every other key its own id from 2 upward, as
    # csgraph's int32 indices.
    ids = np.cumsum(rest, dtype=np.int32)
    del rest
    ids += 1
    ids[spot[2 * e : 2 * e + count]] = 0
    ids[spot[2 * e + count :]] = 1
    gu, gv = ids[spot[:e]], ids[spot[e : 2 * e]]
    del ids, spot
    ws = np.concatenate([g.edge_arrays[2] for g in graphs])
    keep = (gu | gv) != 1  # of an edge's two ids, only s's and t's have 1 as bitwise or
    direct = np.zeros(count, dtype=np.int64)
    loose = np.flatnonzero(~keep)
    direct[np.searchsorted(np.cumsum(ms), loose, side="right")] = ws[loose]
    wk = ws[keep].astype(np.int32)
    del ws
    gu, gv = gu[keep], gv[keep]
    del keep
    rows, heads = np.concatenate([gu, gv]), np.concatenate([gv, gu])
    del gu, gv
    size = held.size + 2
    # Rows ascending and, within a row, heads ascending and distinct.
    glued = coo_matrix((np.concatenate([wk, wk]), (rows, heads)), shape=(size, size)).tocsr()
    return glued, held, direct


_ENGINES = {"dinic": DinicEngine, "scipy": ScipyEngine}
ENGINE_NAMES = tuple(sorted(_ENGINES))


def get_engine(name: str = "dinic"):
    try:
        return _ENGINES[name]()
    except KeyError:
        raise InputError(f"unknown engine {name!r}; choose from {sorted(_ENGINES)}")


def solve_ahead(engine, instances: list[tuple[WeightedGraph, int, int]], meter: FlowMeter) -> None:
    """Solve the new nontrivial (graph, s, t) instances as one batch and store their cuts.

    Every instance whose key is not in ``meter.memo`` goes to
    ``engine.solve_batch``, each distinct one once, and its cut into the
    memo; ``meter.solved`` grows by their number and
    ``meter.engine_invocations`` by the flows the batch ran: one for the
    instances that ``engine.glues``, if any, and one per other instance.
    This is the only place flows run; ``max_flow`` too sends its instance
    here, as a batch of one. It meters no call: the caller meters each instance
    through ``max_flow``, which finds its cut in the memo.
    """
    memo = meter.memo
    fresh = {}
    for graph, s, t in instances:
        if not _trivial(graph.n, graph.m):
            key = _memo_key(graph, s, t)
            if key not in memo:
                fresh.setdefault(key, (graph, s, t))
    if fresh:
        batch = list(fresh.values())
        memo.update(zip(fresh, engine.solve_batch(batch)))
        meter.solved += len(fresh)
        glued = sum(engine.glues(graph) for graph, _, _ in batch)
        meter.engine_invocations += len(fresh) - glued + (glued > 0)


def max_flow(engine, graph: WeightedGraph, s: int, t: int, meter: FlowMeter) -> Cut:
    """Solve one s-t max flow, recording exactly one meter entry (n, m).

    The instance goes through ``solve_ahead`` as a batch of one, which
    solves it only if it is nontrivial and new to the memo; then the call
    always reaches ``engine.solve(graph, s, t, meter.memo)`` and is always
    metered, so the meter counts logical calls.
    """
    if not (0 <= s < graph.n and 0 <= t < graph.n):
        raise InputError("source or sink id outside graph")
    if s == t:
        raise InputError("source equals sink")
    solve_ahead(engine, [(graph, s, t)], meter)
    cut = engine.solve(graph, s, t, meter.memo)
    meter.record(graph.n, graph.m)
    if t in cut.side:
        raise ContractViolation("engine returned sink inside source side")
    return cut


def separation_quotient(
    graph: WeightedGraph, side_a: VertexSet, side_b: VertexSet
) -> tuple[WeightedGraph, tuple[VertexSet, list[int]]]:
    """The flow instance separating A from B, and the lift of its cuts.

    A and B are contracted to vertices 0 and 1 and every other vertex gets
    its own id from 2 up in ascending order, so the instance has
    n - |A| - |B| + 2 vertices and at most m edges. The lift is (A, rest),
    rest the ascending graph ids of instance vertices 2, 3, ... (``lift_side``).
    """
    if not side_a or not side_b:
        raise InputError("separation sides must be nonempty")
    if not side_a.isdisjoint(side_b):
        raise InputError("separation sides overlap")
    in_a, in_b = side_a.bools(), side_b.bools()
    rest = ~(in_a | in_b)
    labels = np.cumsum(rest) + 1
    labels[in_a] = 0
    labels[in_b] = 1
    return contract(graph, labels), (side_a, np.flatnonzero(rest).tolist())


def lift_side(side: VertexSet, lift: tuple[VertexSet, list[int]]) -> VertexSet:
    """A side of a separation instance, holding vertex 0, as a side of the graph.

    lift is (A, rest) as ``separation_quotient`` gives it: vertex 0 lifts to
    A and each vertex i >= 2 of the side to rest[i - 2]. Vertex 1, the
    merged B, lifts to nothing; no cut side holds it, and the whole
    instance lifts to the complement of B. The side's bits from vertex 2 up
    select from rest in C (``itertools.compress``), so Python steps once per
    member.
    """
    source, rest = lift
    mask = source.mask
    bits = side.mask >> 2
    if bits:
        # One byte per bit, lowest first: 1 for a member, 0 otherwise.
        flags = bin(bits)[:1:-1].encode().translate(_BIT_BYTES)
        for v in compress(rest, flags):
            mask |= 1 << v
    return VertexSet(source.n, mask)


def min_cut_separating(
    engine,
    graph: WeightedGraph,
    side_a: VertexSet,
    side_b: VertexSet,
    meter: FlowMeter,
) -> Cut:
    """The minimum cut with A on the source side and B on the sink side.

    One metered call on the ``separation_quotient``; the returned side is
    the inclusion-minimal minimizer containing A.
    """
    quotient, lift = separation_quotient(graph, side_a, side_b)
    cut = max_flow(engine, quotient, 0, 1, meter)
    return Cut(lift_side(cut.side, lift), cut.weight)


"""Exact s-t maximum flow / minimum cut with call metering.

Both engines are deterministic and return identical results: a Cut whose
weight is the flow value and whose side is the inclusion-minimal minimum
cut side, the set of vertices reachable from s in the final residual graph.

Engine protocol: ``solve_batch`` runs, ``solve`` reads.
``solve_batch(instances)`` runs the flows of every (graph, s, t) instance
it is given and returns their Cuts, and ``glues_batch`` says whether a
batch is one flow (SciPy) or one flow per instance (Dinic).
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
  it is exact at any weight; a call runs O(n^2 m) interpreted steps at
  worst. Edge i of ``graph.edge_arrays`` is arc 2i (u->v) and arc 2i+1
  (v->u), so a ^ 1 is the reverse arc, and one stable argsort of the arc
  tails gives every vertex that has arcs its arc list. The side is the set
  of vertices that the final, failing BFS reaches. Its cost is per arc, not
  per call, so its ``solve_batch`` just runs one flow per instance.
- ``ScipyEngine`` needs int32 capacities. Its cost is about 0.3 ms of fixed
  SciPy overhead per batch (one ``maximum_flow`` call) plus the same
  algorithm compiled, so ``solve_batch`` solves independent instances in
  one call: it glues every source into vertex 0 and every sink into vertex
  1, gives each instance's other vertices that some edge touches ids of
  their own, leaves direct s-t edges out and adds their weight back. One
  csgraph BFS over the arcs with positive residual capacity then gives
  every instance its side. The glue is one vectorized pass over the
  batch's concatenated edge arrays, with no NumPy call per instance, and
  SciPy's COO to CSR conversion sorts the arcs; one gather of the BFS
  reach gives every side, and one prefix sum every cut weight.

A caller that knows several independent flows ahead builds each
instance, solves the new ones in one ``solve_ahead`` batch, and then meters
every call in order (``max_flow``, or ``metered_cuts``, which lifts each
cut back to the graph through ``lift_side``, from the bits of the
instance's side). Callers group their flows with ``batches``, the one rule
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
# The cap bounds memory: a batch's glued arrays take a couple of hundred
# bytes per edge while they live, and without the cap the SciPy benchmark
# workloads peaked 6-12% higher.
_BATCH_EDGES = 4096

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
    ``solve_ahead`` batch, one on the SciPy engine or one per instance on
    the Dinic engine. A recalled or batched call is still a call: neither
    count changes calls, equivalent calls or a report's fingerprint.
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


def _check_int32(graph: WeightedGraph) -> None:
    # Weights are nonnegative, so a total below the limit bounds every edge.
    if graph.total_weight >= INT32_LIMIT and int(graph.edge_arrays[2].max()) >= INT32_LIMIT:
        raise InputError("capacity exceeds int32 range; use the dinic engine")


class DinicEngine:
    """Blocking-flow max flow on flat arc lists; exact for any int weights.

    Edge i of ``graph.edge_arrays`` becomes arc 2i (u->v) and arc 2i+1
    (v->u), each with the edge weight as capacity, so a ^ 1 is the reverse
    of arc a; ``to`` and ``cap`` are Python-int lists, exact past 2^53. One
    stable argsort of the tails gives each vertex that has arcs its arcs in
    id order; every other vertex shares one empty tuple.

    A phase is a BFS from s that stops once t has a level (every vertex
    nearer s has one by then), then an iterative blocking flow: a path
    stack, a current-arc index per vertex, and a vertex with no admissible
    arc left pruned for the rest of the phase. Nothing recurses, so a long
    path cannot exhaust the stack. The BFS that fails to reach t runs to
    the end; the vertices it reaches are the returned side. ``solve_batch``
    runs one flow per instance, so each batched instance is one engine
    invocation. ``solve`` only reads: edgeless and two-vertex instances get
    the shared closed form, any other its cut in memo (``known_cut``).
    """

    name = "dinic"
    glues_batch = False

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
        tails = np.stack([us, vs], axis=1).ravel()
        to = np.stack([vs, us], axis=1).ravel().tolist()
        cap = np.repeat(ws, 2).tolist()
        order = np.argsort(tails, kind="stable").tolist()
        counts = np.bincount(tails, minlength=n)
        ends = np.cumsum(counts).tolist()
        # Only vertices that have arcs get a slice, so a near-edgeless
        # instance builds one list per arc owner, not one per vertex.
        arcs: list = [()] * n
        b = 0
        for v in np.flatnonzero(counts).tolist():
            e = ends[v]
            arcs[v] = order[b:e]
            b = e

        total = 0
        while True:
            level = [-1] * n
            level[s] = 0
            queue = [s]
            for u in queue:
                nxt = level[u] + 1
                for a in arcs[u]:
                    v = to[a]
                    if level[v] < 0 and cap[a]:
                        level[v] = nxt
                        queue.append(v)
                if level[t] >= 0:
                    break
            if level[t] < 0:
                break
            it = [0] * n
            path: list[int] = []
            u = s
            while True:
                if u == t:
                    pushed = min([cap[a] for a in path])
                    total += pushed
                    for a in path:
                        cap[a] -= pushed
                        cap[a ^ 1] += pushed
                    k = next(i for i, a in enumerate(path) if not cap[a])
                    del path[k:]
                    u = to[path[-1]] if path else s
                    continue
                out = arcs[u]
                i = it[u]
                nxt = level[u] + 1
                while i < len(out):
                    a = out[i]
                    if cap[a] and level[to[a]] == nxt:
                        break
                    i += 1
                it[u] = i
                if i < len(out):
                    path.append(a)
                    u = to[a]
                elif path:
                    level[u] = -1
                    u = to[path.pop() ^ 1]
                else:
                    break

        mask = 0
        for v in queue:
            mask |= 1 << v
        return Cut(VertexSet(n, mask), total)


class ScipyEngine:
    """scipy.sparse.csgraph.maximum_flow engine; capacities must fit int32.

    The limit holds per solved instance: contraction merges parallel edges,
    so a graph whose every edge fits int32 (a star of five 2^30 edges, for
    one) can still raise InputError here. The dinic engine has no limit.

    ``solve_batch`` runs the flows, a whole batch in one ``maximum_flow``
    call, so a batch is one engine invocation. ``solve`` only reads: once
    the instance's capacities pass the int32 check, an edgeless or
    two-vertex instance gets the shared closed form, any other its cut in
    memo (``known_cut``).
    """

    name = "scipy"
    glues_batch = True

    def solve(self, graph: WeightedGraph, s: int, t: int, memo: dict) -> Cut:
        _check_int32(graph)
        return known_cut(graph, s, t, memo)

    @staticmethod
    def solve_batch(instances: list[tuple[WeightedGraph, int, int]]) -> list[Cut]:
        """The Cut of every (graph, s, t) instance, from one maximum_flow call.

        The instances are glued into one graph: every s becomes vertex 0,
        every t vertex 1, and each instance's other vertices that some edge
        touches get ids of their own in ascending order, so two instances
        share only 0 and 1 and no glued edge is parallel to another. No
        residual path reaches a vertex without edges, so it is never on a
        side and needs no id. A direct s-t edge is left out of the flow; it
        crosses every s-t cut, so the cut weight (the weight of the
        instance's edges that leave its side) counts it back.
        After a maximum flow no residual path reaches vertex 1, so the BFS
        from vertex 0 passes between instances only through 0 and reaches,
        in each, the side a flow on that instance alone would give.

        Every step is one pass over the whole batch. The instances' vertices
        are laid end to end, each instance from a byte boundary, so vertex x
        of instance i sits at first[i] + x. One cumulative sum numbers the
        glued vertices and one gather glues every edge; SciPy's COO to CSR
        conversion sorts the arcs. One gather of the BFS reach gives every
        side, packed into bytes a side at a time, and one prefix sum over the
        crossing edges every cut weight.
        """
        from scipy.sparse import coo_matrix
        from scipy.sparse.csgraph import breadth_first_order, maximum_flow

        if not instances:
            return []
        for graph, _, _ in instances:
            _check_int32(graph)
        graphs = [graph for graph, _, _ in instances]
        ns, ms, ss, ts = np.array([(g.n, g.m, s, t) for g, s, t in instances]).T
        width = (ns + 7) // 8
        # Instance i takes n slots from first[i], then pads to a byte boundary.
        first = 8 * (np.cumsum(width) - width)
        at = np.repeat(first, ms)
        us = np.concatenate([g.edge_arrays[0] for g in graphs]) + at
        vs = np.concatenate([g.edge_arrays[1] for g in graphs]) + at
        ws = np.concatenate([g.edge_arrays[2] for g in graphs])
        kept = np.zeros(8 * int(width.sum()), dtype=bool)
        kept[us] = kept[vs] = kept[first + ss] = kept[first + ts] = True
        rest = kept.copy()
        rest[first + ss] = rest[first + ts] = False
        # s -> 0, t -> 1, every other kept vertex its own id from 2 upward,
        # as csgraph's int32 indices.
        local = np.cumsum(rest, dtype=np.int32) + 1
        local[first + ss], local[first + ts] = 0, 1
        size = np.count_nonzero(rest) + 2
        gu, gv = local[us], local[vs]
        keep = gu + gv != 1  # only the pair {0, 1} sums to 1
        gu, gv, wk = gu[keep], gv[keep], ws[keep].astype(np.int32)
        arcs = (np.concatenate([wk, wk]), (np.concatenate([gu, gv]), np.concatenate([gv, gu])))
        # Rows ascending and, within a row, heads ascending and distinct.
        glued = coo_matrix(arcs, shape=(size, size)).tocsr()
        flow = maximum_flow(glued, 0, 1).flow
        layout = (flow.indptr, flow.indices), (glued.indptr, glued.indices)
        if not all(map(np.array_equal, *layout)):
            raise ContractViolation("maximum_flow returned a different CSR layout")
        # The flow matrix becomes the residual one in place. float64 is
        # csgraph's own dtype, so the BFS works on it without a copy.
        residual = flow
        residual.data = np.subtract(glued.data, flow.data, dtype=np.float64)
        residual.eliminate_zeros()
        reached = np.zeros(size, dtype=bool)
        reached[breadth_first_order(residual, 0, return_predecessors=False)] = True
        inside = reached[local] & kept
        # Each graph's total is below 2^62, so its difference of the prefix
        # sums, which wrap mod 2^64, is exact.
        prefix = np.zeros(ws.size + 1, dtype=np.uint64)
        np.cumsum((ws * (inside[us] != inside[vs])).view(np.uint64), out=prefix[1:])
        weights = np.diff(prefix[np.concatenate([[0], np.cumsum(ms)])]).tolist()
        sides = np.packbits(inside, bitorder="little").tobytes()
        byte_ends = np.cumsum(width).tolist()
        return [
            Cut(VertexSet(n, int.from_bytes(sides[b - w : b], "little")), weight)
            for n, w, b, weight in zip(ns.tolist(), width.tolist(), byte_ends, weights)
        ]


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
    ``meter.engine_invocations`` by the flows the batch ran. This is the
    only place flows run; ``max_flow`` too sends its instance here, as a
    batch of one. It meters no call: the caller meters each instance
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
        memo.update(zip(fresh, engine.solve_batch(list(fresh.values()))))
        meter.solved += len(fresh)
        meter.engine_invocations += 1 if engine.glues_batch else len(fresh)


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


def metered_cuts(
    engine, quotients: list[tuple[WeightedGraph, tuple[VertexSet, list[int]]]], meter: FlowMeter
) -> list[Cut]:
    """One metered 0-1 call per (quotient, lift), in order, each cut lifted to the graph."""
    lifted = []
    for quotient, lift in quotients:
        cut = max_flow(engine, quotient, 0, 1, meter)
        lifted.append(Cut(lift_side(cut.side, lift), cut.weight))
    return lifted


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
    return metered_cuts(engine, [separation_quotient(graph, side_a, side_b)], meter)[0]


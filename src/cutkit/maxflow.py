"""Exact s-t maximum flow / minimum cut with call metering.

Both engines are deterministic and return identical results: a Cut whose
weight is the flow value and whose side is the inclusion-minimal minimum
cut side, the set of vertices reachable from s in the final residual graph.

Engine protocol: ``solve(graph, s, t, memo=None)`` returns that Cut, and
stores the Cut of every nontrivial instance it solves in memo, when given
one. Every call goes through ``max_flow``, which meters it, so the
meter counts logical calls: a call answered without running a flow still
counts.

- Shared base case: both answer an edgeless or two-vertex instance in
  closed form (``_closed_form``); its only minimal side is {s}, of value
  the total edge weight.
- Shared memo (``_memoized``): any other instance is looked up in the memo
  first, under the key (n, m, s, t, a 16-byte BLAKE2b digest of the three
  ``edge_arrays``), and a miss is solved and stored. ``max_flow`` passes
  ``FlowMeter.memo``, so the memo lives as long as the meter: one driver
  run, which empties it before returning its report. A digest keeps each
  entry small where the arrays themselves would cost 24 bytes per edge.
- ``DinicEngine`` (the default) is pure Python on Python-int capacities, so
  it is exact at any weight; a call runs O(n^2 m) interpreted steps at
  worst. Edge i of ``graph.edge_arrays`` is arc 2i (u->v) and arc 2i+1
  (v->u), so a ^ 1 is the reverse arc, and one stable argsort of the arc
  tails gives every vertex its arc list. The side is the set of vertices
  that the final, failing BFS reaches.
- ``ScipyEngine`` needs int32 capacities; a call costs about 0.3 ms of fixed
  SciPy overhead plus the same algorithm compiled. Its side comes from a
  csgraph BFS over the arcs with positive residual capacity.
"""

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolation, InputError
from .graph import Cut, VertexSet, WeightedGraph, contract

INT32_LIMIT = 1 << 31


@dataclass
class FlowMeter:
    """Counts max-flow calls and the size (n, m) of each call's instance.

    Equivalent calls are the paper's cost measure: one per call,
    except that the calls of one bundle (an isolating run's whole phase B,
    whose instances together are no bigger than one) count as one call.
    memo holds the result of each nontrivial instance solved for this
    meter, so the engine answers a repeat without solving it again, and
    recalled counts those answers. A recalled call is still a call: neither
    field changes calls, equivalent calls or a report's fingerprint.
    """

    calls: list[tuple[int, int]] = field(default_factory=list)
    bundled: int = 0
    recalled: int = 0
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


def _trivial(graph: WeightedGraph) -> bool:
    return graph.m == 0 or graph.n == 2


def _closed_form(graph: WeightedGraph, s: int) -> Cut | None:
    """The answer of an edgeless or two-vertex instance, else None.

    Such an instance has {s} as its only minimal s-t cut side, of value the
    total edge weight, so neither engine runs a flow on it.
    """
    if _trivial(graph):
        return Cut(VertexSet(graph.n, 1 << s), graph.total_weight)
    return None


def _memoized(memo: dict | None, graph: WeightedGraph, s: int, t: int, flow) -> Cut:
    """memo's answer for (graph, s, t), else flow(graph, s, t), stored in memo."""
    if memo is None:
        return flow(graph, s, t)
    digest = hashlib.blake2b(digest_size=16)
    for a in graph.edge_arrays:
        digest.update(a.tobytes())
    key = (graph.n, graph.m, s, t, digest.digest())
    result = memo.get(key)
    if result is None:
        result = memo[key] = flow(graph, s, t)
    return result


class DinicEngine:
    """Blocking-flow max flow on flat arc lists; exact for any int weights.

    Edge i of ``graph.edge_arrays`` becomes arc 2i (u->v) and arc 2i+1
    (v->u), each with the edge weight as capacity, so a ^ 1 is the reverse
    of arc a; ``to`` and ``cap`` are Python-int lists, exact past 2^53. One
    stable argsort of the tails gives each vertex its arcs in id order.

    A phase is a BFS from s that stops once t has a level (every vertex
    nearer s has one by then), then an iterative blocking flow: a path
    stack, a current-arc index per vertex, and a vertex with no admissible
    arc left pruned for the rest of the phase. Nothing recurses, so a long
    path cannot exhaust the stack. The BFS that fails to reach t runs to
    the end; the vertices it reaches are the returned side. Edgeless and
    two-vertex instances get the shared closed form, and a repeat of an
    instance in memo its stored answer.
    """

    name = "dinic"

    def solve(self, graph: WeightedGraph, s: int, t: int, memo: dict | None = None) -> Cut:
        trivial = _closed_form(graph, s)
        if trivial is not None:
            return trivial
        return _memoized(memo, graph, s, t, self._flow)

    @staticmethod
    def _flow(graph: WeightedGraph, s: int, t: int) -> Cut:
        n = graph.n
        us, vs, ws = graph.edge_arrays
        tails = np.stack([us, vs], axis=1).ravel()
        to = np.stack([vs, us], axis=1).ravel().tolist()
        cap = np.repeat(ws, 2).tolist()
        order = np.argsort(tails, kind="stable").tolist()
        ends = np.cumsum(np.bincount(tails, minlength=n)).tolist()
        arcs = [order[b:e] for b, e in zip([0] + ends, ends)]

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

    An edgeless or two-vertex instance costs no SciPy call: it gets the
    shared closed form, once its capacities pass the int32 check, and a
    repeat of an instance in memo gets its stored answer. Any other costs
    one argsort of its 2m arcs into a canonical CSR, one maximum_flow call,
    and one csgraph BFS over the arcs with positive residual capacity.
    """

    name = "scipy"

    def solve(self, graph: WeightedGraph, s: int, t: int, memo: dict | None = None) -> Cut:
        ws = graph.edge_arrays[2]
        if graph.m and int(ws.max()) >= INT32_LIMIT:
            raise InputError("capacity exceeds int32 range; use the dinic engine")
        trivial = _closed_form(graph, s)
        if trivial is not None:
            return trivial
        return _memoized(memo, graph, s, t, self._flow)

    @staticmethod
    def _flow(graph: WeightedGraph, s: int, t: int) -> Cut:
        n = graph.n
        us, vs, ws = graph.edge_arrays
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import breadth_first_order, maximum_flow
        # Arcs are all (v, u), then all (u, v), over the sorted edges u < v, so
        # a stable sort by tail leaves each row's heads ascending and distinct.
        rows = np.concatenate([vs, us])
        order = np.argsort(rows, kind="stable")
        indices = np.concatenate([us, vs])[order].astype(np.int32)
        cap = np.concatenate([ws, ws])[order].astype(np.int32)
        indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        res = maximum_flow(csr_matrix((cap, indices, indptr), shape=(n, n)), s, t)
        flow = res.flow
        if not (np.array_equal(flow.indptr, indptr) and np.array_equal(flow.indices, indices)):
            raise ContractViolation("maximum_flow returned a different CSR layout")
        # float64 is csgraph's own dtype, so the BFS works on it without a copy.
        residual = csr_matrix(
            (np.subtract(cap, flow.data, dtype=np.float64), indices, indptr), shape=(n, n)
        )
        residual.eliminate_zeros()
        mask = 0
        for v in breadth_first_order(residual, s, return_predecessors=False).tolist():
            mask |= 1 << v
        return Cut(VertexSet(n, mask), int(res.flow_value))


_ENGINES = {"dinic": DinicEngine, "scipy": ScipyEngine}
ENGINE_NAMES = tuple(sorted(_ENGINES))


def get_engine(name: str = "dinic"):
    try:
        return _ENGINES[name]()
    except KeyError:
        raise InputError(f"unknown engine {name!r}; choose from {sorted(_ENGINES)}")


def max_flow(engine, graph: WeightedGraph, s: int, t: int, meter: FlowMeter) -> Cut:
    """Solve one s-t max flow, recording exactly one meter entry (n, m).

    The call always reaches ``engine.solve(graph, s, t, meter.memo)`` and is
    always metered, so the meter counts logical calls. The engine answers
    an instance it solved earlier for this meter from the memo (key: n, m,
    s, t and a digest of ``edge_arrays``); such a call adds one to
    ``meter.recalled``.
    """
    if not (0 <= s < graph.n and 0 <= t < graph.n):
        raise InputError("source or sink id outside graph")
    if s == t:
        raise InputError("source equals sink")
    stored = len(meter.memo)
    cut = engine.solve(graph, s, t, meter.memo)
    meter.record(graph.n, graph.m)
    if t in cut.side:
        raise ContractViolation("engine returned sink inside source side")
    # A nontrivial instance that added no memo entry was answered from it.
    if len(meter.memo) == stored and not _trivial(graph):
        meter.recalled += 1
    return cut


def min_cut_separating(
    engine,
    graph: WeightedGraph,
    side_a: VertexSet,
    side_b: VertexSet,
    meter: FlowMeter,
) -> Cut:
    """Minimum cut with all of A on the source side, all of B on the sink side.

    A and B are contracted to single vertices, so the flow instance has
    n - |A| - |B| + 2 vertices and at most m edges; one metered call. The
    returned side is the inclusion-minimal minimizer containing A.
    """
    if not side_a or not side_b:
        raise InputError("separation sides must be nonempty")
    if not side_a.isdisjoint(side_b):
        raise InputError("separation sides overlap")
    in_a, in_b = side_a.bools(), side_b.bools()
    # A -> 0, B -> 1, every other vertex its own id from 2 in ascending order.
    labels = np.cumsum(~(in_a | in_b)) + 1
    labels[in_a] = 0
    labels[in_b] = 1
    cut = max_flow(engine, contract(graph, labels), 0, 1, meter)
    return Cut(VertexSet.from_bools(cut.side.bools()[labels]), cut.weight)


# ---------------------------------------------------------------------------
# DIMACS max-flow format (1-based ids):
#   c comment
#   p max <n> <m>
#   n <id> s / n <id> t
#   a <u> <v> <cap>
# Arcs are read as undirected edges (parallel arcs merge).
# ---------------------------------------------------------------------------


def _dimacs_int(token: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError as exc:
        raise InputError(f"line {lineno}: {token!r} is not an integer") from exc


def parse_dimacs(text: str) -> tuple[WeightedGraph, int, int]:
    """Graph, source and sink of a DIMACS max-flow file.

    The one ``p`` line comes first, each of ``n <id> s`` and ``n <id> t``
    appears once, and the header's arc count must equal the number of
    ``a`` lines; anything else raises InputError.
    """
    n = m = None
    ends = {"s": None, "t": None}
    triples: list[tuple[int, int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        tag = parts[0]
        if tag == "p":
            if n is not None:
                raise InputError(f"line {lineno}: duplicate 'p' line")
            if len(parts) != 4 or parts[1] != "max":
                raise InputError(f"line {lineno}: header must be 'p max <n> <m>'")
            n, m = (_dimacs_int(x, lineno) for x in parts[2:])
        elif tag not in ("n", "a"):
            raise InputError(f"line {lineno}: unknown line tag {tag!r}")
        elif n is None:
            raise InputError(f"line {lineno}: {tag!r} line before the 'p' line")
        elif tag == "n":
            if len(parts) != 3 or parts[2] not in ends:
                raise InputError(f"line {lineno}: node line must be 'n <id> s|t'")
            if ends[parts[2]] is not None:
                raise InputError(f"line {lineno}: duplicate 'n <id> {parts[2]}' line")
            ends[parts[2]] = _dimacs_int(parts[1], lineno) - 1
        else:
            if len(parts) != 4:
                raise InputError(f"line {lineno}: arc line must be 'a <u> <v> <cap>'")
            u, v, c = (_dimacs_int(x, lineno) for x in parts[1:])
            triples.append((u - 1, v - 1, c))
    if n is None:
        raise InputError("missing 'p max' header")
    if m != len(triples):
        raise InputError(f"header declares {m} arcs, found {len(triples)}")
    if ends["s"] is None or ends["t"] is None:
        raise InputError("missing source or sink designation")
    return WeightedGraph(n, triples), ends["s"], ends["t"]


def write_dimacs(graph: WeightedGraph, s: int, t: int) -> str:
    lines = [f"p max {graph.n} {graph.m}", f"n {s + 1} s", f"n {t + 1} t"]
    lines.extend(f"a {u + 1} {v + 1} {w}" for u, v, w in graph.edges)
    return "\n".join(lines) + "\n"

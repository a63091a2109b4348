"""Exact s-t maximum flow / minimum cut with call metering.

The default engine is a pure-Python Dinic working on arbitrary Python
integers; a call runs O(n^2 m) interpreted steps at worst. The scipy engine
needs int32 capacities; a call costs about 0.3 ms of fixed SciPy overhead
plus the same algorithm compiled. Both are deterministic and return identical
results: the flow value and the inclusion-minimal minimum cut side (the
residual-reachable set of s), which for an edgeless or two-vertex instance
is {s}; the scipy engine answers those without calling SciPy.
"""

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolation, InputError
from .graph import Cut, VertexSet, WeightedGraph, contract

INT32_LIMIT = 1 << 31


@dataclass(frozen=True)
class FlowResult:
    """Max-flow value plus the minimal min-cut side containing s."""

    value: int
    min_side: VertexSet


@dataclass
class FlowMeter:
    """Counts max-flow invocations and the size of each solved instance.

    Equivalent calls are the paper's cost measure: one per invocation,
    except that the calls of one bundle (an isolating run's whole phase B,
    whose instances together are no bigger than one) count as one call.
    """

    calls: list[tuple[int, int]] = field(default_factory=list)
    bundled: int = 0

    def record(self, n: int, m: int) -> None:
        self.calls.append((n, m))

    def bundle(self, mark: int) -> None:
        """Charge the calls made since snapshot() returned mark as one call."""
        self.bundled += len(self.calls) - mark - 1

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

    def snapshot(self) -> int:
        """Marker for later delta(); returns the current call index."""
        return len(self.calls)

    def delta(self, mark: int) -> list[tuple[int, int]]:
        return self.calls[mark:]


class DinicEngine:
    """Blocking-flow max flow on adjacency arrays; exact for any int weights.

    Undirected edges become paired arcs (u->v, v->u) each carrying the edge
    weight, so a unit-weight input graph yields a unit-capacity instance.
    """

    name = "dinic"

    def solve(self, graph: WeightedGraph, s: int, t: int) -> FlowResult:
        n = graph.n
        to: list[int] = []
        cap: list[int] = []
        first = [-1] * n
        nxt: list[int] = []

        def add_arc(u: int, v: int, c: int) -> None:
            to.append(v)
            cap.append(c)
            nxt.append(first[u])
            first[u] = len(to) - 1

        for u, v, w in graph.edges:
            add_arc(u, v, w)
            add_arc(v, u, w)

        level = [-1] * n
        it = [0] * n
        total = 0
        while True:
            for i in range(n):
                level[i] = -1
            level[s] = 0
            q = deque([s])
            while q:
                u = q.popleft()
                a = first[u]
                while a != -1:
                    v = to[a]
                    if cap[a] > 0 and level[v] < 0:
                        level[v] = level[u] + 1
                        q.append(v)
                    a = nxt[a]
            if level[t] < 0:
                break
            for i in range(n):
                it[i] = first[i]
            # blocking flow: walk the level graph with a current-arc pointer
            path: list[int] = []
            u = s
            while True:
                if u == t:
                    pushed = min(cap[a] for a in path)
                    total += pushed
                    for a in path:
                        cap[a] -= pushed
                        cap[a ^ 1] += pushed
                    k = next(i for i, a in enumerate(path) if cap[a] == 0)
                    del path[k:]
                    u = s if not path else to[path[-1]]
                    continue
                a = it[u]
                while a != -1 and not (cap[a] > 0 and level[to[a]] == level[u] + 1):
                    a = nxt[a]
                it[u] = a
                if a != -1:
                    path.append(a)
                    u = to[a]
                elif u == s:
                    break
                else:
                    last = path.pop()
                    u = to[last ^ 1]
                    it[u] = nxt[last]

        reach_mask = 1 << s
        q = deque([s])
        seen = [False] * n
        seen[s] = True
        while q:
            u = q.popleft()
            a = first[u]
            while a != -1:
                v = to[a]
                if cap[a] > 0 and not seen[v]:
                    seen[v] = True
                    reach_mask |= 1 << v
                    q.append(v)
                a = nxt[a]
        return FlowResult(total, VertexSet(n, reach_mask))


class ScipyEngine:
    """scipy.sparse.csgraph.maximum_flow engine; capacities must fit int32.

    The limit holds per solved instance: contraction merges parallel edges,
    so a graph whose every edge fits int32 (a star of five 2^30 edges, for
    one) can still raise InputError here. The dinic engine has no limit.

    An edgeless or two-vertex instance costs no SciPy call: its only s-t cut
    is {s}, of value the total edge weight. Any other costs one argsort of
    its 2m arcs into a canonical CSR, one maximum_flow call, and one csgraph
    BFS over the arcs with positive residual capacity.
    """

    name = "scipy"

    def solve(self, graph: WeightedGraph, s: int, t: int) -> FlowResult:
        n = graph.n
        us, vs, ws = graph.edge_arrays
        if graph.m and int(ws.max()) >= INT32_LIMIT:
            raise InputError("capacity exceeds int32 range; use the dinic engine")
        if graph.m == 0 or n == 2:
            return FlowResult(graph.total_weight, VertexSet(n, 1 << s))
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
        return FlowResult(int(res.flow_value), VertexSet(n, mask))


_ENGINES = {"dinic": DinicEngine, "scipy": ScipyEngine}
ENGINE_NAMES = tuple(sorted(_ENGINES))


def get_engine(name: str = "dinic"):
    try:
        return _ENGINES[name]()
    except KeyError:
        raise InputError(f"unknown engine {name!r}; choose from {sorted(_ENGINES)}")


def max_flow(engine, graph: WeightedGraph, s: int, t: int, meter: FlowMeter) -> FlowResult:
    """Solve one s-t max flow, recording exactly one meter entry (n, m)."""
    if not (0 <= s < graph.n and 0 <= t < graph.n):
        raise InputError("source or sink id outside graph")
    if s == t:
        raise InputError("source equals sink")
    result = engine.solve(graph, s, t)
    meter.record(graph.n, graph.m)
    if t in result.min_side:
        raise ContractViolation("engine returned sink inside source side")
    return result


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
    cmap = contract(graph, labels)
    result = max_flow(engine, cmap.graph, 0, 1, meter)
    side = cmap.lift(result.min_side)
    return Cut(side, result.value)


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
    n = None
    source = sink = None
    triples: list[tuple[int, int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        tag = parts[0]
        if tag == "p":
            if len(parts) != 4 or parts[1] != "max":
                raise InputError(f"line {lineno}: header must be 'p max <n> <m>'")
            n = _dimacs_int(parts[2], lineno)
        elif tag == "n":
            if len(parts) != 3 or parts[2] not in ("s", "t"):
                raise InputError(f"line {lineno}: node line must be 'n <id> s|t'")
            if parts[2] == "s":
                source = _dimacs_int(parts[1], lineno) - 1
            else:
                sink = _dimacs_int(parts[1], lineno) - 1
        elif tag == "a":
            if len(parts) != 4:
                raise InputError(f"line {lineno}: arc line must be 'a <u> <v> <cap>'")
            u, v, c = (_dimacs_int(x, lineno) for x in parts[1:])
            triples.append((u - 1, v - 1, c))
        else:
            raise InputError(f"line {lineno}: unknown line tag {tag!r}")
    if n is None:
        raise InputError("missing 'p max' header")
    if source is None or sink is None:
        raise InputError("missing source or sink designation")
    return WeightedGraph(n, triples), source, sink


def write_dimacs(graph: WeightedGraph, s: int, t: int) -> str:
    lines = [f"p max {graph.n} {graph.m}", f"n {s + 1} s", f"n {t + 1} t"]
    lines.extend(f"a {u + 1} {v + 1} {w}" for u, v, w in graph.edges)
    return "\n".join(lines) + "\n"

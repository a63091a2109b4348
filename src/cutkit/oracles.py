"""Independent reference implementations used to cross-check the fast paths.

Everything here is deliberately simple: exhaustive enumeration over vertex
subsets (vectorized, for n up to 20), the Stoer-Wagner global min cut, and
naive flow-per-terminal baselines. None of it shares cut-extraction logic
with the production algorithms.
"""

import numpy as np

from .errors import ContractViolation, InputError
from .graph import Cut, VertexSet, WeightedGraph, components_after_removal, contract
from .isolating import IsolatingCutEntry, IsolatingCutResult
from .maxflow import FlowMeter, batches, max_flow, solve_ahead

ENUM_LIMIT = 20


def _all_side_weights(graph: WeightedGraph) -> np.ndarray:
    """Cut weight of every subset mask of V, as an int64 array of size 2^n."""
    if graph.n > ENUM_LIMIT:
        raise InputError(f"enumeration supports n <= {ENUM_LIMIT}")
    masks = np.arange(1 << graph.n, dtype=np.int64)
    weights = np.zeros(1 << graph.n, dtype=np.int64)
    for u, v, w in graph.edges:
        crossing = ((masks >> u) ^ (masks >> v)) & 1
        weights += crossing * w
    return weights


def _valid_masks(
    graph: WeightedGraph,
    source: int | None,
    sink: int | None,
    side_a: VertexSet | None,
    side_b: VertexSet | None,
    isolate: tuple[int, VertexSet] | None,
    terminals: VertexSet | None,
) -> np.ndarray:
    n = graph.n
    masks = np.arange(1 << n, dtype=np.int64)
    full = (1 << n) - 1
    ok = (masks != 0) & (masks != full)
    if source is not None:
        ok &= (masks >> source) & 1 == 1
    if sink is not None:
        ok &= (masks >> sink) & 1 == 0
    if side_a is not None:
        ok &= (masks & side_a.mask) == side_a.mask
    if side_b is not None:
        ok &= (masks & side_b.mask) == 0
    if isolate is not None:
        v, rset = isolate
        if v not in rset:
            raise InputError("isolate vertex must belong to its terminal set")
        ok &= (masks & rset.mask) == (1 << v)
    if terminals is not None:
        ok &= (masks & terminals.mask) != 0
        ok &= (masks & terminals.mask) != terminals.mask
    return ok


def _minimal_sides(cands: list[int]) -> list[int]:
    """Masks in cands with no strict subset also in cands."""
    cands = sorted(cands, key=lambda m: (m.bit_count(), m))
    kept: list[int] = []
    for m in cands:
        if not any(km & m == km for km in kept):
            kept.append(m)
    return kept


def enumerate_min_cut_sides(
    graph: WeightedGraph,
    *,
    source: int | None = None,
    sink: int | None = None,
    side_a: VertexSet | None = None,
    side_b: VertexSet | None = None,
    isolate: tuple[int, VertexSet] | None = None,
    terminals: VertexSet | None = None,
) -> tuple[int, list[VertexSet]]:
    """Optimal weight and every optimal side, in ascending mask order."""
    weights = _all_side_weights(graph)
    ok = _valid_masks(graph, source, sink, side_a, side_b, isolate, terminals)
    if not ok.any():
        raise InputError("constraints admit no cut")
    best = int(weights[ok].min())
    cands = np.nonzero(ok & (weights == best))[0]
    return best, [VertexSet(graph.n, int(m)) for m in cands]


def enumerate_cuts(graph: WeightedGraph, **constraints) -> Cut:
    """Exhaustive minimum cut under the constraints of ``enumerate_min_cut_sides``.

    Ties are broken toward inclusion-minimal sides, then by ascending
    member tuple, so the result is deterministic. For plain source/sink
    constraints the inclusion-minimal optimal side is unique and this
    matches the side a max-flow engine reports.
    """
    best, sides = enumerate_min_cut_sides(graph, **constraints)
    minimal = _minimal_sides([side.mask for side in sides])
    side_mask = min(minimal, key=lambda m: VertexSet(graph.n, m).members())
    return Cut(VertexSet(graph.n, side_mask), best)


def stoer_wagner(graph: WeightedGraph) -> Cut:
    """Exact global minimum cut by repeated maximum-adjacency contraction.

    Deterministic: the maximum-adjacency scan starts at the lowest active
    vertex and breaks score ties toward lower ids. Disconnected graphs
    short-circuit to a weight-zero component side.
    """
    n = graph.n
    if n < 2:
        raise InputError("global cut needs at least two vertices")
    labels = components_after_removal(graph, np.zeros(graph.m, dtype=bool))
    if labels.any():
        return Cut(VertexSet.from_bools(labels == 0), 0)

    us, vs, ws = graph.edge_arrays
    w = np.zeros((n, n), dtype=np.int64)
    w[us, vs] = ws
    w[vs, us] = ws
    group = [1 << v for v in range(n)]
    active = list(range(n))
    best_mask = 0
    best_weight: int | None = None
    while len(active) > 1:
        wsum = np.zeros(n, dtype=np.int64)
        cand = np.zeros(n, dtype=bool)
        cand[active] = True
        order: list[int] = []
        last_score = 0
        for _ in range(len(active)):
            scores = np.where(cand, wsum, -1)
            u = int(np.argmax(scores))
            last_score = int(wsum[u])
            order.append(u)
            cand[u] = False
            wsum += w[u]
        s2, t2 = order[-2], order[-1]
        if best_weight is None or last_score < best_weight:
            best_weight = last_score
            best_mask = group[t2]
        w[s2] += w[t2]
        w[:, s2] += w[:, t2]
        w[s2, s2] = 0
        w[t2, :] = 0
        w[:, t2] = 0
        group[s2] |= group[t2]
        active.remove(t2)
    assert best_weight is not None
    return Cut(VertexSet(n, best_mask), best_weight)


def naive_steiner(engine, inst, meter: FlowMeter | None = None) -> Cut:
    """Minimum terminal-separating cut via |T| - 1 full-size flow calls.

    Fixes the lowest terminal as the source and runs one max flow to every
    other terminal, keeping the strictly best cut seen. The flows are
    independent, so each group of consecutive sinks (``batches``, m edges a
    flow) is solved ahead as one ``solve_ahead`` batch (one engine
    invocation on SciPy, one per flow on Dinic), and then each of its calls
    is metered through ``max_flow``.
    """
    if meter is None:
        meter = FlowMeter()
    graph = inst.graph
    members = inst.terminals.members()
    if len(members) < 2:
        raise InputError("need at least two terminals")
    s = members[0]
    flows = [(graph, s, t) for t in members[1:]]
    best: Cut | None = None
    for group in batches(flows, lambda _: max(graph.m, 1)):
        solve_ahead(engine, group, meter)
        for _, _, t in group:
            cut = max_flow(engine, graph, s, t, meter)
            if best is None or cut.weight < best.weight:
                best = cut
    assert best is not None
    return best


def naive_isolating(
    engine,
    graph: WeightedGraph,
    terminals: VertexSet,
    meter: FlowMeter | None = None,
) -> IsolatingCutResult:
    """Isolating cuts the expensive way: one near-full-size flow per terminal.

    For each v, contracts R minus v to a single sink and takes the minimal
    min cut side. Used as the correctness oracle for the two-phase routine;
    each entry's component is recorded as the side itself. Each group of
    consecutive terminals' flows (``batches``, m edges a flow) is solved as
    one ``solve_ahead`` batch, then each call is metered through ``max_flow``.
    """
    if meter is None:
        meter = FlowMeter()
    if terminals.n != graph.n:
        raise InputError("terminal universe does not match graph")
    members = terminals.members()
    if len(members) < 2:
        raise InputError("need at least two terminals")
    mark = meter.call_count
    entries: dict[int, IsolatingCutEntry] = {}
    sink = graph.n - len(members) + 1  # the kept vertices take ids 0 .. sink - 1
    for batch in batches(members, lambda _: max(graph.m, 1)):
        group = []
        for v in batch:
            rest = terminals.bools()
            rest[v] = False
            labels = np.cumsum(~rest) - 1
            labels[rest] = sink
            group.append((v, labels, (contract(graph, labels), int(labels[v]), sink)))
        solve_ahead(engine, [flow for _, _, flow in group], meter)
        for v, labels, flow in group:
            cut = max_flow(engine, *flow, meter)
            side = VertexSet.from_bools(cut.side.bools()[labels])
            if side.intersection(terminals).mask != 1 << v:
                raise ContractViolation(f"isolating side must meet R in exactly {v}")
            entries[v] = IsolatingCutEntry(v, Cut(side, cut.weight), side)
    calls = meter.delta(mark)
    if len(calls) != len(members):
        raise ContractViolation("naive isolating must meter exactly |R| calls")
    return IsolatingCutResult(terminals, entries, [], list(calls))

"""Minimum isolating cuts for a terminal set R in ~lg|R| + |R| flow calls.

Phase A solves one min cut per label bipartition of R (lg|R| full-size
instances). The union F of those cut boundaries is one bool mask over the
graph's edge arrays; deleting F chops the graph into components containing
at most one terminal each, returned as one label per vertex (the smallest
member of its component). Phase B then makes one metered call per terminal
v, separating v from everything outside its component; with that outside
merged into one sink each instance is small, and together they have at
most n+|R| vertices and 2m+|R| edges, which is what makes the whole thing
cheap.

``minimum_isolating_cuts_family`` runs many terminal sets on one graph,
such as a round's isolator family, in one loop. It checks every set before
any flow runs. The runs are independent, so it takes them in order in
groups and chunks of consecutive runs, by ``maxflow.batches``'s cap on the
edges of one batch: a group's phase-A instances are built together, sized
by its runs' raw rows (bipartitions times m), and a chunk takes built runs
by their phase-A edges. It solves the first chunk's new phase-A
instances in one ``solve_ahead`` batch. Then, for each chunk, it reads the
phase-A cuts from the memo to label every run's components and build its
phase-B instances, solves those in one batch with the next chunk's new
phase-A instances, and only then meters the chunk's calls in run order
(A1 B1 A2 B2 ...), where each call finds its cut in the memo. So the calls,
fingerprints and bundled and recalled counts are those of the runs made
one by one, and on the SciPy engine a family of C chunks whose capacities
fit int32 costs at most C + 1 ``maximum_flow`` invocations; the Dinic
engine's batch runs one flow per new instance. A batch of one chunk's
phase B (at most 2m + |R| edges per run) and the next chunk's phase A may
pass the cap. Runs leave the queue as they are drawn, so only the chunk
being metered and the next one are held at a time.

Every instance of either phase comes from one sort
(``graph.canonical_graphs``): the instances of a build are laid end to
end, every edge becomes a row of each instance it touches, the rows sort
and merge once, and each instance is a graph whose edge arrays are its
slice of the sorted arrays, byte for byte what ``separation_quotient``
would build (so digests and memo keys match). A phase-A cut lifts back
through its instance's row of contraction labels; a phase-B cut through
terminal v and the ascending ids of the instance's other vertices, a lift
that is also the only record of v's component. All of a chunk's
components come from one labelling of the disjoint union of its runs'
copies of the graph, each copy without its run's phase-A cut edges.
Label rows and copies cover only the vertices that some edge touches (and
the terminals), so the arrays of a group or chunk grow with runs times
min(n, 2m), not with runs times n. Ids that fit int32 are kept in int32,
and each build frees its arrays once it has used them, so a build's peak
memory stays small next to the glued flow it feeds.

``minimum_isolating_cuts`` is the family of one set.
"""

from collections import deque
from dataclasses import dataclass, field
from itertools import chain, islice

import numpy as np

from .errors import ContractViolation, InputError
from .graph import Cut, VertexSet, WeightedGraph, _component_labels, canonical_graphs
from .maxflow import INT32_LIMIT, FlowMeter, batches, known_cut, lift_side, max_flow, solve_ahead


@dataclass(frozen=True)
class IsolatingCutEntry:
    """Minimal minimum isolating cut for one terminal, plus its component."""

    vertex: int
    cut: Cut
    component: VertexSet


@dataclass
class IsolatingCutResult:
    terminals: VertexSet
    entries: dict[int, IsolatingCutEntry]
    phase_a_calls: list[tuple[int, int]]
    phase_b_calls: list[tuple[int, int]]

    def best(self) -> IsolatingCutEntry:
        """Entry with the smallest cut weight (lowest vertex id on ties)."""
        return min(self.entries.values(), key=lambda e: (e.cut.weight, e.vertex))


def bipartition_schedule(terminals: VertexSet) -> list[tuple[VertexSet, VertexSet]]:
    """ceil(lg|R|) bipartitions of R, one per bit of the ascending-id labels.

    Terminal with rank j (ascending vertex id) gets label j; bipartition i
    splits on bit i of the label. Every pair of terminals is separated by at
    least one bipartition, and both sides are always nonempty because the
    labels are exactly 0..|R|-1.
    """
    members = terminals.members()
    if len(members) < 2:
        raise InputError("need at least two terminals")
    bits = [1 << v for v in members]
    schedule = []
    for i in range((len(members) - 1).bit_length()):
        # The bits are disjoint, so their sum is their union.
        mask_b = sum(bit for j, bit in enumerate(bits) if j >> i & 1)
        side_a = VertexSet(terminals.n, terminals.mask ^ mask_b)
        side_b = VertexSet(terminals.n, mask_b)
        if not side_a or not side_b:
            raise ContractViolation("bipartition side empty despite dense labels")
        schedule.append((side_a, side_b))
    return schedule


# A phase-B instance and the lift of its cuts (``maxflow.lift_side``).
_Instance = tuple[WeightedGraph, tuple[VertexSet, list[int]]]


@dataclass
class _Run:
    """One isolating run, from its checked terminal set to its metering."""

    terminals: VertexSet
    members: list[int]
    bits: int  # ceil(lg|R|), the number of bipartitions (``bipartition_schedule``)
    phase_a: list[WeightedGraph] = field(default_factory=list)  # in schedule order
    # Row i: bipartition i's contraction labels of the touched vertices.
    phase_a_labels: np.ndarray | None = None
    phase_b: list[_Instance] = field(default_factory=list)


def _start_run(graph: WeightedGraph, terminals: VertexSet) -> _Run:
    if terminals.n != graph.n:
        raise InputError("terminal universe does not match graph")
    members = terminals.members()
    if len(members) < 2:
        raise InputError("need at least two terminals")
    return _Run(terminals, members, (len(members) - 1).bit_length())


def _touched(graph: WeightedGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Which vertices some edge touches: a flag per vertex, the touched ids, and an index.

    A vertex's index is the number of touched vertices up to it, less one:
    a touched vertex's position among them, and for any vertex one less
    than the position of the first touched vertex above it.
    """
    us, vs, _ = graph.edge_arrays
    touched = np.zeros(graph.n, dtype=bool)
    touched[us] = touched[vs] = True
    return touched, np.flatnonzero(touched), np.cumsum(touched) - 1


def _build_phase_a(graph: WeightedGraph, runs: list[_Run]) -> list[_Run]:
    """Every phase-A instance of a group of runs, from one sort (``canonical_graphs``).

    Instance j is bipartition bit[j] of run of[j]. It numbers its vertices
    as ``separation_quotient`` does: side A is 0, side B 1, and each
    non-terminal 2 plus its rank among the non-terminals, so it has
    n - |R| + 2 vertices. Only the touched vertices (``_touched``) are
    labelled, so the arrays grow with instances times min(n, 2m): row i of
    a run's ``phase_a_labels`` holds bipartition i's labels of the touched
    vertices, and a side of that instance lifts to them as
    ``side.bools()[row]``. Every edge becomes a row of every instance,
    dropped where both its ends get one label.
    """
    n = graph.n
    us, vs, ws = graph.edge_arrays
    touched, ends, index = _touched(graph)
    counts = np.array([len(run.members) for run in runs])
    ks = [run.bits for run in runs]
    members = np.fromiter(chain.from_iterable(run.members for run in runs), np.int64, counts.sum())
    owner = np.repeat(np.arange(len(runs)), counts)
    rank = np.arange(members.size) - np.repeat(np.cumsum(counts) - counts, counts)
    # below[r, i]: how many of run r's terminals lie below ends[i].
    below = np.zeros((len(runs), ends.size + 1), dtype=np.int32)
    np.add.at(below, (owner, index[members] + 1), 1)
    below = np.cumsum(below[:, :-1], axis=1, dtype=np.int32)
    # Per run, each non-terminal's label, and ~rank < 0 for each terminal.
    # Labels stay below n + 2.
    code = (ends + 2).astype(_id_dtype(n + 2)) - below
    del below
    hit = touched[members]
    code[owner[hit], index[members[hit]]] = ~rank[hit]
    of = np.repeat(np.arange(len(runs)), ks)
    firsts = np.cumsum(ks) - ks
    bit = (np.arange(of.size) - np.repeat(firsts, ks)).astype(np.int32)
    labels = code[of]
    del code
    labels = np.where(labels >= 0, labels, ~labels >> bit[:, None] & 1)
    base = np.zeros(of.size + 1, dtype=np.int64)
    base[1:] = np.cumsum(n - counts[of] + 2)
    ids = labels + base[:-1, None].astype(_id_dtype(base[-1]))
    # One row per edge and instance; each array is freed once it is used.
    near = np.take(ids, index[us], axis=1)
    far = np.take(ids, index[vs], axis=1)
    del ids
    keep = near != far
    near = near[keep]
    far = far[keep]
    quotients = canonical_graphs(base, near, far, np.broadcast_to(ws, keep.shape)[keep])
    for run, first in zip(runs, firsts.tolist()):
        run.phase_a_labels = labels[first : first + run.bits]
        run.phase_a = quotients[first : first + run.bits]
    return runs


def _id_dtype(bound: int) -> type:
    """int32 for ids below bound when they fit it, else int64."""
    return np.int32 if bound <= INT32_LIMIT else np.int64


def _cut_edges(graph: WeightedGraph, runs: list[_Run], memo: dict, index: np.ndarray) -> np.ndarray:
    """Row r flags the edges that some phase-A cut of run r (read from memo) crosses.

    index is ``_touched``'s, whose vertices the runs' label rows cover.
    Each phase-A side is read bit by bit from its packed mask, only at
    those vertices.
    """
    us, vs, _ = graph.edge_arrays
    width = (graph.n + 7) // 8  # an instance has at most n vertices
    packed = b"".join(
        known_cut(quotient, 0, 1, memo).side.mask.to_bytes(width, "little")
        for run in runs
        for quotient in run.phase_a
    )
    sides = np.frombuffer(packed, dtype=np.uint8).reshape(-1, width)
    labels = np.concatenate([run.phase_a_labels for run in runs])
    for run in runs:
        run.phase_a_labels = None  # a run waiting to be metered keeps no label rows
    row = np.arange(len(sides))[:, None]
    inside = sides[row, labels >> 3] >> (labels & 7) & 1
    crossing = np.take(inside, index[us], axis=1) != np.take(inside, index[vs], axis=1)
    ks = [len(run.phase_a) for run in runs]
    return np.logical_or.reduceat(crossing, np.cumsum(ks) - ks, axis=0)


def _build_phase_b(graph: WeightedGraph, runs: list[_Run], memo: dict) -> None:
    """Every run's phase-B instances and their lifts, from one sort of the chunk's edges.

    Each run gets a copy of the touched vertices (``_touched``): run r's
    copy of ends[i] is r * len(ends) + i, and a terminal that no edge
    touches gets an id of its own after all the copies. So the arrays grow
    with runs times min(n, 2m) and with terminals, not with runs times n.
    Each copy keeps the edges that none of its run's phase-A cuts cross
    (``_cut_edges``), and one ``_component_labels`` call labels the
    disjoint union of the copies.

    Instance j (terminal v's) is numbered as ``separation_quotient``
    numbers it: v is 0, the merged outside of its component 1, the rest of
    the component from 2 up in ascending id. Its lift, (v, the rest's
    ids), is the only record of v's component. The chunk lays the instances
    end to end, so instance j's vertex i has chunk id base[j] + i. Every
    copy of an edge becomes a row of the instance of each end whose
    component it touches, keyed by its two chunk ids (``canonical_graphs``).
    """
    n = graph.n
    us, vs, ws = graph.edge_arrays
    touched, ends, index = _touched(graph)
    removed = _cut_edges(graph, runs, memo, index)
    e = ends.size
    members = np.fromiter(chain.from_iterable(run.members for run in runs), np.int64)
    run_of = np.repeat(np.arange(len(runs)), [len(run.members) for run in runs])
    hit = touched[members]
    terminals = np.empty(members.size, dtype=np.int64)
    terminals[hit] = run_of[hit] * e + index[members[hit]]
    lone = np.flatnonzero(~hit)
    terminals[lone] = len(runs) * e + np.arange(lone.size)
    copies = _id_dtype(len(runs) * e + lone.size)
    shift = np.arange(len(runs), dtype=copies)[:, None] * e
    eu = (shift + index[us].astype(copies)).ravel()
    ev = (shift + index[vs].astype(copies)).ravel()
    kept = ~removed.ravel()
    del removed
    labels = _component_labels(len(runs) * e + lone.size, eu[kept], ev[kept])
    del kept

    held = labels[terminals]
    owner = np.full(labels.size, -1, dtype=_id_dtype(terminals.size))
    owner[held] = np.arange(terminals.size)
    shared = np.flatnonzero(owner[held] != np.arange(terminals.size))
    if shared.size:
        shared = members[held == held[shared[0]]].tolist()
        raise ContractViolation(f"component holds terminals {shared}; phase A cuts must separate R")
    inst = owner[labels]  # -1 off every terminal's component
    del labels, owner
    is_rest = inst >= 0
    is_rest[terminals] = False
    # Within a copy, ids ascend with graph ids, and only terminals lie past
    # the copies, so each instance's rest comes in ascending id.
    rest = np.flatnonzero(is_rest)
    rest = rest[np.argsort(inst[rest], kind="stable")]
    sizes = np.cumsum(np.bincount(inst[rest], minlength=terminals.size))
    # Instance j takes chunk ids base[j] .. base[j+1] - 1: its rest's
    # positions in rest, moved up past two ids per instance up to j.
    base = np.zeros(terminals.size + 1, dtype=np.int64)
    base[1:] = sizes + 2 * np.arange(1, terminals.size + 1)
    chunk_id = np.empty(inst.size, dtype=_id_dtype(base[-1]))
    chunk_id[terminals] = base[:-1]
    chunk_id[rest] = np.arange(rest.size) + 2 * inst[rest] + 2
    rest_ids = ends[rest % max(e, 1)]  # with no edges there is no rest

    # Every copy of an edge is a row of u's instance, and of v's when that
    # differs; an end outside the row's component is its merged outside,
    # vertex 1. Where iu is -1 the row is dropped, so outside[-1] is never
    # kept. Each array is freed once it is used.
    iu, iv = inst[eu], inst[ev]
    cu, cv = chunk_id[eu], chunk_id[ev]
    del inst, chunk_id, eu, ev
    outside = (base[:-1] + 1).astype(cu.dtype)
    at_u, at_v = iu >= 0, (iv >= 0) & (iv != iu)
    near = np.concatenate([cu[at_u], cv[at_v]])
    far = np.concatenate([np.where(iv == iu, cv, outside[iu])[at_u], outside[iv[at_v]]])
    del iu, iv, cu, cv
    ew = np.tile(ws, len(runs))
    ew = np.concatenate([ew[at_u], ew[at_v]])
    del at_u, at_v
    instances = canonical_graphs(base, near, far, ew)

    rest_ids = rest_ids.tolist()
    sizes = [0] + sizes.tolist()
    pieces = zip(sizes, sizes[1:], instances)
    for run in runs:
        for v, (a, b, quotient) in zip(run.members, islice(pieces, len(run.members))):
            run.phase_b.append((quotient, (VertexSet(n, 1 << v), rest_ids[a:b])))


def _meter_run(engine, graph: WeightedGraph, run: _Run, meter: FlowMeter) -> IsolatingCutResult:
    """Meter the run's calls, phase A then phase B, lifting and checking each phase-B cut."""
    mark_a = meter.call_count
    for quotient in run.phase_a:
        max_flow(engine, quotient, 0, 1, meter)
    phase_a = meter.delta(mark_a)
    if len(phase_a) != len(run.phase_a):
        raise ContractViolation("phase A must meter exactly ceil(lg|R|) calls")

    mark_b = meter.call_count
    terminals = run.terminals.mask
    entries: dict[int, IsolatingCutEntry] = {}
    for v, (quotient, lift) in zip(run.members, run.phase_b):
        cut = max_flow(engine, quotient, 0, 1, meter)
        side = lift_side(cut.side, lift)
        if side.mask & terminals != 1 << v:
            raise ContractViolation(f"isolating side must meet R in exactly {v}")
        # The whole piece but its merged outside, vertex 1, lifts to v's component.
        component = lift_side(VertexSet(quotient.n, (1 << quotient.n) - 3), lift)
        entries[v] = IsolatingCutEntry(v, Cut(side, cut.weight), component)
    phase_b = meter.delta(mark_b)

    n, m = graph.n, graph.m
    r = len(run.members)
    if sum(ni for ni, _ in phase_b) > n + r:
        raise ContractViolation("phase B vertex sizes exceed n + |R|")
    if sum(mi for _, mi in phase_b) > 2 * m + r:
        raise ContractViolation("phase B edge sizes exceed 2m + |R|")
    # Together the phase-B instances are about one instance in size (the
    # bounds just checked), so the whole phase costs one equivalent call.
    meter.bundle(mark_b)

    return IsolatingCutResult(run.terminals, entries, list(phase_a), list(phase_b))


def minimum_isolating_cuts_family(
    engine,
    graph: WeightedGraph,
    terminal_sets: list[VertexSet],
    meter: FlowMeter,
) -> list[IsolatingCutResult]:
    """``minimum_isolating_cuts`` for each terminal set, in order, batched by chunk.

    The results, calls and bundled and recalled counts equal those of one
    ``minimum_isolating_cuts`` call per set on the same meter; only
    ``meter.engine_invocations`` differs (on the SciPy engine, it falls).
    """
    # Every set is checked here, before any flow runs.
    pending = deque(_start_run(graph, terminals) for terminals in terminal_sets)
    # A run leaves the queue as it is drawn, so once metered it is freed.
    drawn = (pending.popleft() for _ in range(len(pending)))
    groups = batches(drawn, lambda run: run.bits * graph.m)
    built = chain.from_iterable(_build_phase_a(graph, group) for group in groups)
    chunks = batches(built, lambda run: sum(quotient.m for quotient in run.phase_a))
    chunk = next(chunks, [])
    solve_ahead(engine, [(quotient, 0, 1) for run in chunk for quotient in run.phase_a], meter)
    results: list[IsolatingCutResult] = []
    while chunk:
        following = next(chunks, [])
        _build_phase_b(graph, chunk, meter.memo)
        ahead = [quotient for run in chunk for quotient, _ in run.phase_b]
        ahead += [quotient for run in following for quotient in run.phase_a]
        solve_ahead(engine, [(quotient, 0, 1) for quotient in ahead], meter)
        results += [_meter_run(engine, graph, run, meter) for run in chunk]
        chunk = following
    return results


def minimum_isolating_cuts(
    engine,
    graph: WeightedGraph,
    terminals: VertexSet,
    meter: FlowMeter,
) -> IsolatingCutResult:
    """For each v in R, the inclusion-minimal minimum cut with S cap R = {v}."""
    return minimum_isolating_cuts_family(engine, graph, [terminals], meter)[0]

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
such as a round's isolator family. The runs are independent, so it solves
them phase by phase: it splits the family, in order, into chunks of
consecutive runs, and per chunk solves every new phase-A instance in one
``solve_ahead`` batch, reads the phase-A cuts from the memo to build every
run's phase-B instances, solves those in a second batch, and only then
meters each run's calls in run order (A1 B1 A2 B2 ...), where each call
finds its cut in the memo. A chunk's phase-B instances come from one sort:
every edge of every run becomes a row of each instance it touches, the
rows sort and merge once, and each instance is a graph whose edge arrays
are its slice of the sorted arrays, byte for byte what
``separation_quotient`` would build (so digests and memo keys match). A
cut lifts back through its component's ascending vertex ids. So the calls,
fingerprints and bundled and recalled counts are those of the runs made
one by one, and on the SciPy engine a chunk costs two ``maximum_flow``
invocations; the Dinic engine's batch runs one flow per new instance. A
chunk closes before the run whose phase-A instances would take its phase-A
edge total past ``_BATCH_EDGES``. The cap bounds memory: a batch's glued
arrays take a couple of hundred bytes per edge while they live, and
without the cap the SciPy benchmark workloads peaked 6-12% higher.
``minimum_isolating_cuts`` is the family of one set.
"""

from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .errors import ContractViolation, InputError
from .graph import Cut, VertexSet, WeightedGraph, components_after_removal
from .maxflow import FlowMeter, known_cut, max_flow, metered_cuts, separation_quotient, solve_ahead

# Phase-A edges one chunk of isolating runs may glue into a batch.
_BATCH_EDGES = 4096


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
    schedule = []
    for i in range((len(members) - 1).bit_length()):
        side_b = VertexSet.from_ids(terminals.n, (v for j, v in enumerate(members) if j >> i & 1))
        side_a = terminals.difference(side_b)
        if not side_a or not side_b:
            raise ContractViolation("bipartition side empty despite dense labels")
        schedule.append((side_a, side_b))
    return schedule


# A separation instance and the lift of its cuts (``maxflow.lift_side``).
_Instance = tuple[WeightedGraph, tuple[VertexSet, np.ndarray]]


@dataclass
class _Run:
    """One isolating run of a chunk, from its phase-A build to its metering."""

    terminals: VertexSet
    members: list[int]
    phase_a: list[_Instance]
    comps: list[VertexSet] = field(default_factory=list)
    phase_b: list[_Instance] = field(default_factory=list)


def _start_run(graph: WeightedGraph, terminals: VertexSet) -> _Run:
    if terminals.n != graph.n:
        raise InputError("terminal universe does not match graph")
    schedule = bipartition_schedule(terminals)  # raises on fewer than two terminals
    phase_a = [separation_quotient(graph, side_a, side_b) for side_a, side_b in schedule]
    return _Run(terminals, terminals.members(), phase_a)


def _components(graph: WeightedGraph, run: _Run, memo: dict) -> np.ndarray:
    """Component labels once the run's phase-A cut edges (cuts read from memo) are deleted."""
    us, vs, _ = graph.edge_arrays
    removed = np.zeros(graph.m, dtype=bool)
    for quotient, (side_a, rest) in run.phase_a:
        # The cut side's lift (``lift_side``) as flags: A, and rest where the side holds it.
        inside = side_a.bools()
        inside[rest] = known_cut(quotient, 0, 1, memo).side.bools()[2:]
        removed |= inside[us] != inside[vs]
    labels = components_after_removal(graph, removed)
    held = labels[run.members].tolist()
    if len(set(held)) < len(held):
        first = min(label for label in held if held.count(label) > 1)
        shared = [v for v, label in zip(run.members, held) if label == first]
        raise ContractViolation(
            f"component holds terminals {shared}; phase A cuts must separate R"
        )
    return labels


def _build_phase_b(graph: WeightedGraph, runs: list[_Run], memo: dict) -> None:
    """Every run's components and phase-B instances, from one sort of the chunk's edges.

    Run r's copy of vertex u is u + r * n, so the runs' components are
    disjoint and the whole chunk is numbered at once. Instance j (terminal
    v's) is numbered as ``separation_quotient`` numbers it: v is 0, the
    merged outside of its component 1, the rest of the component from 2 up
    in ascending id. The chunk lays the instances end to end, so instance
    j's vertex i has chunk id base[j] + i. Every edge becomes a row of the
    instance of each end whose component it touches, keyed by its two chunk
    ids; the rows sort by key and equal keys merge, so instance j's slice
    of the sorted arrays is exactly the ``edge_arrays`` that ``contract``
    builds.
    """
    n = graph.n
    us, vs, ws = graph.edge_arrays
    shift = np.arange(len(runs), dtype=np.int64) * n
    labels = np.concatenate([_components(graph, run, memo) + s for run, s in zip(runs, shift)])
    terminals = np.concatenate(
        [np.array(run.members, dtype=np.int64) + s for run, s in zip(runs, shift)]
    )
    owner = np.full(labels.size, -1, dtype=np.int64)
    owner[labels[terminals]] = np.arange(terminals.size)
    inst = owner[labels]  # -1 off every terminal's component
    is_rest = inst >= 0
    is_rest[terminals] = False
    rest = np.flatnonzero(is_rest)
    rest = rest[np.argsort(inst[rest], kind="stable")]
    ends = np.cumsum(np.bincount(inst[rest], minlength=terminals.size))
    # Instance j takes chunk ids base[j] .. base[j+1] - 1: its rest's
    # positions in rest, moved up past two ids per instance up to j.
    base = np.zeros(terminals.size + 1, dtype=np.int64)
    base[1:] = ends + 2 * np.arange(1, terminals.size + 1)
    chunk_id = np.empty(labels.size, dtype=np.int64)
    chunk_id[terminals] = base[:-1]
    chunk_id[rest] = np.arange(rest.size) + 2 * inst[rest] + 2
    # Row j flags instance j's component, packed as VertexSet masks are.
    covered = np.flatnonzero(inst >= 0)
    flags = np.zeros((terminals.size, n), dtype=bool)
    flags[inst[covered], covered % n] = True
    comps = np.packbits(flags, axis=1, bitorder="little")

    # Every copy of an edge is a row of u's instance, and of v's when that
    # differs; an end outside the row's component is its merged outside,
    # vertex 1. Where iu is -1 the row is dropped, so base[-1] is never kept.
    eu, ev = (shift[:, None] + us).ravel(), (shift[:, None] + vs).ravel()
    iu, iv, cu, cv = inst[eu], inst[ev], chunk_id[eu], chunk_id[ev]
    at_u, at_v = iu >= 0, (iv >= 0) & (iv != iu)
    near = np.concatenate([cu[at_u], cv[at_v]])
    far = np.concatenate([np.where(iv == iu, cv, base[iu] + 1)[at_u], base[iv[at_v]] + 1])
    ew = np.tile(ws, len(runs))
    ew = np.concatenate([ew[at_u], ew[at_v]])
    # Keys stay below total^2, and total <= 2 * labels.size: a key could
    # pass 2^63 only once the int64 labels alone took 12 GB.
    total = int(base[-1])
    key = np.minimum(near, far) * total + np.maximum(near, far)
    # Rows with equal keys merge, so an unstable sort gives the same arrays.
    order = np.argsort(key)
    key, ew = key[order], ew[order]
    if ew.size:
        first = np.ones(ew.size, dtype=bool)
        first[1:] = key[1:] != key[:-1]
        starts = np.flatnonzero(first)
        key, ew = key[starts], np.add.reduceat(ew, starts)
    bounds = np.searchsorted(key, base * total)
    lo, hi = np.divmod(key, total)
    at = np.repeat(base[:-1], np.diff(bounds))
    lo -= at
    hi -= at
    # The prefix sums wrap mod 2^64, but every instance's total is below
    # 2^62, so each difference is exact.
    prefix = np.zeros(ew.size + 1, dtype=np.uint64)
    np.cumsum(ew.view(np.uint64), out=prefix[1:])
    weights = np.diff(prefix[bounds]).tolist()
    bounds = bounds.tolist()

    pieces = zip(np.split(rest % n, ends[:-1]), comps, bounds, bounds[1:], weights)
    for run in runs:
        for v, piece in zip(run.members, islice(pieces, len(run.members))):
            comp_rest, comp, a, b, weight = piece
            quotient = WeightedGraph._canonical(
                2 + comp_rest.size, lo[a:b], hi[a:b], ew[a:b], weight
            )
            run.phase_b.append((quotient, (VertexSet(n, 1 << v), comp_rest)))
            run.comps.append(VertexSet(n, int.from_bytes(comp.tobytes(), "little")))


def _meter_run(engine, graph: WeightedGraph, run: _Run, meter: FlowMeter) -> IsolatingCutResult:
    """Meter the run's calls, phase A then phase B, and check its cuts."""
    mark_a = meter.call_count
    for quotient, _ in run.phase_a:
        max_flow(engine, quotient, 0, 1, meter)
    phase_a = meter.delta(mark_a)
    if len(phase_a) != len(run.phase_a):
        raise ContractViolation("phase A must meter exactly ceil(lg|R|) calls")

    mark_b = meter.call_count
    cuts = metered_cuts(engine, run.phase_b, meter)
    entries: dict[int, IsolatingCutEntry] = {}
    for v, comp, cut in zip(run.members, run.comps, cuts):
        if not cut.side.issubset(comp):
            raise ContractViolation("isolating side escaped its component")
        if cut.side.intersection(run.terminals).mask != 1 << v:
            raise ContractViolation(f"isolating side must meet R in exactly {v}")
        entries[v] = IsolatingCutEntry(v, cut, comp)
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


def _run_chunk(
    engine, graph: WeightedGraph, runs: list[_Run], meter: FlowMeter
) -> list[IsolatingCutResult]:
    """Two batches solved ahead (all phase A, then all phase B), then every run metered in order."""
    solve_ahead(engine, [(quotient, 0, 1) for run in runs for quotient, _ in run.phase_a], meter)
    _build_phase_b(graph, runs, meter.memo)
    solve_ahead(engine, [(quotient, 0, 1) for run in runs for quotient, _ in run.phase_b], meter)
    return [_meter_run(engine, graph, run, meter) for run in runs]


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
    results: list[IsolatingCutResult] = []
    chunk: list[_Run] = []
    edges = 0
    for terminals in terminal_sets:
        run = _start_run(graph, terminals)
        run_edges = sum(quotient.m for quotient, _ in run.phase_a)
        if chunk and edges + run_edges > _BATCH_EDGES:
            results += _run_chunk(engine, graph, chunk, meter)
            chunk, edges = [], 0
        chunk.append(run)
        edges += run_edges
    if chunk:
        results += _run_chunk(engine, graph, chunk, meter)
    return results


def minimum_isolating_cuts(
    engine,
    graph: WeightedGraph,
    terminals: VertexSet,
    meter: FlowMeter,
) -> IsolatingCutResult:
    """For each v in R, the inclusion-minimal minimum cut with S cap R = {v}."""
    return minimum_isolating_cuts_family(engine, graph, [terminals], meter)[0]

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

Each phase hands its independent pairs to ``min_cuts_separating`` at once,
so on the SciPy engine each phase is one engine invocation (one batch);
the Dinic engine still runs one flow per new instance.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, InputError
from .graph import Cut, VertexSet, WeightedGraph, components_after_removal
from .maxflow import FlowMeter, min_cuts_separating


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

    def cut_for(self, v: int) -> Cut:
        return self.entries[v].cut

    @property
    def total_calls(self) -> int:
        return len(self.phase_a_calls) + len(self.phase_b_calls)

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


def minimum_isolating_cuts(
    engine,
    graph: WeightedGraph,
    terminals: VertexSet,
    meter: FlowMeter,
) -> IsolatingCutResult:
    """For each v in R, the inclusion-minimal minimum cut with S cap R = {v}."""
    if terminals.n != graph.n:
        raise InputError("terminal universe does not match graph")
    members = terminals.members()

    mark_a = meter.call_count
    schedule = bipartition_schedule(terminals)  # raises on fewer than two terminals
    us, vs, _ = graph.edge_arrays
    removed = np.zeros(graph.m, dtype=bool)
    for cut in min_cuts_separating(engine, graph, schedule, meter):
        inside = cut.side.bools()
        removed |= inside[us] != inside[vs]
    phase_a = meter.delta(mark_a)
    if len(phase_a) != len(schedule):
        raise ContractViolation("phase A must meter exactly ceil(lg|R|) calls")

    labels = components_after_removal(graph, removed)
    held = labels[members].tolist()
    if len(set(held)) < len(held):
        first = min(label for label in held if held.count(label) > 1)
        shared = [v for v, label in zip(members, held) if label == first]
        raise ContractViolation(
            f"component holds terminals {shared}; phase A cuts must separate R"
        )

    mark_b = meter.call_count
    comps = [VertexSet.from_bools(labels == label) for label in held]
    pairs = [(VertexSet(graph.n, 1 << v), comp.complement()) for v, comp in zip(members, comps)]
    cuts = min_cuts_separating(engine, graph, pairs, meter)
    entries: dict[int, IsolatingCutEntry] = {}
    for v, comp, cut in zip(members, comps, cuts):
        if not cut.side.issubset(comp):
            raise ContractViolation("isolating side escaped its component")
        if cut.side.intersection(terminals).mask != 1 << v:
            raise ContractViolation(f"isolating side must meet R in exactly {v}")
        entries[v] = IsolatingCutEntry(v, cut, comp)
    phase_b = meter.delta(mark_b)

    n, m = graph.n, graph.m
    r = len(members)
    if sum(ni for ni, _ in phase_b) > n + r:
        raise ContractViolation("phase B vertex sizes exceed n + |R|")
    if sum(mi for _, mi in phase_b) > 2 * m + r:
        raise ContractViolation("phase B edge sizes exceed 2m + |R|")
    # Together the phase-B instances are about one instance in size (the
    # bounds just checked), so the whole phase costs one equivalent call.
    meter.bundle(mark_b)

    return IsolatingCutResult(terminals, entries, list(phase_a), list(phase_b))

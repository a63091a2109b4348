"""Minimum isolating cuts for a terminal set R in ~lg|R| + |R| flow calls.

Phase A solves one min cut per label bipartition of R (lg|R| full-size
instances). The union F of those cut boundaries chops the graph into
components containing at most one terminal each. Phase B then makes one
min_cut_separating call per terminal v, separating v from everything outside
its component; with that outside merged into one sink each instance is small,
and together they have at most n+|R| vertices and 2m+|R| edges, which is what
makes the whole thing cheap.
"""

from dataclasses import dataclass

from .errors import ContractViolation, InputError
from .graph import Cut, VertexSet, WeightedGraph, boundary_edges, components_after_removal
from .maxflow import FlowMeter, min_cut_separating


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
    r = len(members)
    if r < 2:
        raise InputError("need at least two terminals")
    bits = (r - 1).bit_length()
    schedule = []
    for i in range(bits):
        a_mask = 0
        b_mask = 0
        for label, v in enumerate(members):
            if (label >> i) & 1:
                b_mask |= 1 << v
            else:
                a_mask |= 1 << v
        if a_mask == 0 or b_mask == 0:
            raise ContractViolation("bipartition side empty despite dense labels")
        schedule.append(
            (VertexSet(terminals.n, a_mask), VertexSet(terminals.n, b_mask))
        )
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
    if len(members) < 2:
        raise InputError("need at least two terminals")

    mark_a = meter.snapshot()
    schedule = bipartition_schedule(terminals)
    cut_edges: set[tuple[int, int]] = set()
    for side_a, side_b in schedule:
        cut = min_cut_separating(engine, graph, side_a, side_b, meter)
        cut_edges.update(boundary_edges(graph, cut.side))
    phase_a = meter.delta(mark_a)
    if len(phase_a) != len(schedule):
        raise ContractViolation("phase A must meter exactly ceil(lg|R|) calls")

    comps = components_after_removal(graph, cut_edges)
    comp_of: dict[int, VertexSet] = {}
    for comp in comps:
        inside = [v for v in members if v in comp]
        if len(inside) > 1:
            raise ContractViolation(
                f"component holds terminals {inside}; phase A cuts must separate R"
            )
        if inside:
            comp_of[inside[0]] = comp

    mark_b = meter.snapshot()
    entries: dict[int, IsolatingCutEntry] = {}
    for v in members:
        comp = comp_of[v]
        cut = min_cut_separating(
            engine, graph, VertexSet(graph.n, 1 << v), comp.complement(), meter
        )
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

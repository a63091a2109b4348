import random
import tracemalloc

import numpy as np
import pytest

from cutkit import (
    ContractViolation,
    Cut,
    FlowMeter,
    InputError,
    VertexSet,
    WeightedGraph,
    bipartition_schedule,
    enumerate_cuts,
    gnp_graph,
    minimum_isolating_cuts,
    minimum_isolating_cuts_family,
    naive_isolating,
)

from cutkit import isolating, maxflow
from cutkit.graph import components_after_removal
from cutkit.maxflow import (
    ScipyEngine,
    _memo_key,
    batches,
    known_cut,
    lift_side,
    separation_quotient,
    solve_ahead,
)

from helpers import rand_graph, rand_terminals


def star_graph(leaves, weight=1):
    n = leaves + 1
    return WeightedGraph(n, [(0, v, weight) for v in range(1, n)])


def test_schedule_sizes():
    assert len(bipartition_schedule(VertexSet.from_ids(8, [2, 5]))) == 1
    assert len(bipartition_schedule(VertexSet.from_ids(8, [0, 2, 5, 7]))) == 2
    assert len(bipartition_schedule(VertexSet.from_ids(8, [0, 2, 4, 5, 7]))) == 3


def test_schedule_separates_every_pair():
    terminals = VertexSet.from_ids(12, [1, 3, 4, 8, 9, 11])
    schedule = bipartition_schedule(terminals)
    members = terminals.members()
    for i, u in enumerate(members):
        for v in members[i + 1 :]:
            assert any(
                (u in a and v in b) or (u in b and v in a) for a, b in schedule
            ), (u, v)
    for a, b in schedule:
        assert a.union(b) == terminals
        assert a.isdisjoint(b)


def test_schedule_needs_two_terminals():
    with pytest.raises(InputError):
        bipartition_schedule(VertexSet.from_ids(5, [2]))


def test_star_leaves(any_engine):
    g = star_graph(4)
    terminals = VertexSet.from_ids(5, [1, 2, 3, 4])
    res = minimum_isolating_cuts(any_engine, g, terminals, FlowMeter())
    for v in (1, 2, 3, 4):
        entry = res.entries[v]
        assert entry.cut.side.members() == [v]
        assert entry.cut.weight == 1
        assert v in entry.component
    assert len(res.phase_a_calls) == 2
    assert len(res.phase_b_calls) == 4
    assert res.best().vertex == 1


def test_two_triangles_bridge(any_engine):
    g = WeightedGraph(
        6,
        [(0, 1, 2), (1, 2, 2), (0, 2, 2), (3, 4, 2), (4, 5, 2), (3, 5, 2), (2, 3, 1)],
    )
    terminals = VertexSet.from_ids(6, [0, 4])
    res = minimum_isolating_cuts(any_engine, g, terminals, FlowMeter())
    assert res.entries[0].cut.weight == 1
    assert res.entries[0].cut.side.members() == [0, 1, 2]
    assert res.entries[4].cut.weight == 1
    assert res.entries[4].cut.side.members() == [3, 4, 5]


def test_matches_naive_oracle(any_engine):
    for seed in range(15):
        g = rand_graph(10, seed, p=0.45)
        terminals = rand_terminals(10, 4, seed)
        fast = minimum_isolating_cuts(any_engine, g, terminals, FlowMeter())
        slow = naive_isolating(any_engine, g, terminals)
        for v in terminals:
            assert fast.entries[v].cut.weight == slow.entries[v].cut.weight, (seed, v)
            assert fast.entries[v].cut.side == slow.entries[v].cut.side, (seed, v)


def test_matches_enumeration_minimal_side(any_engine):
    for seed in range(8):
        g = rand_graph(9, seed + 50, p=0.4)
        terminals = rand_terminals(9, 3, seed + 50)
        res = minimum_isolating_cuts(any_engine, g, terminals, FlowMeter())
        for v in terminals:
            best = enumerate_cuts(g, isolate=(v, terminals))
            assert res.entries[v].cut.weight == best.weight
            assert res.entries[v].cut.side == best.side


def test_each_side_inside_own_component(any_engine):
    g = rand_graph(11, 7, p=0.35)
    terminals = rand_terminals(11, 5, 7)
    res = minimum_isolating_cuts(any_engine, g, terminals, FlowMeter())
    for v in terminals:
        entry = res.entries[v]
        assert entry.cut.side.issubset(entry.component)
        assert v in entry.cut.side
        assert entry.cut.side.intersection(terminals).members() == [v]


def test_flow_call_size_bounds(any_engine):
    g = rand_graph(12, 3, p=0.5)
    terminals = rand_terminals(12, 6, 3)
    meter = FlowMeter()
    res = minimum_isolating_cuts(any_engine, g, terminals, meter)
    n, m, r = g.n, g.m, len(terminals)
    assert sum(c[0] for c in res.phase_b_calls) <= n + r
    assert sum(c[1] for c in res.phase_b_calls) <= 2 * m + r
    assert len(res.phase_a_calls) == (r - 1).bit_length()
    assert len(res.phase_b_calls) == r
    # The whole of phase B is charged as one equivalent call.
    assert meter.call_count == len(res.phase_a_calls) + len(res.phase_b_calls)
    assert meter.equivalent_calls == len(res.phase_a_calls) + 1


def test_isolated_terminal_gets_zero_cut(any_engine):
    g = WeightedGraph(5, [(0, 1, 3), (1, 2, 3)])
    terminals = VertexSet.from_ids(5, [0, 4])
    res = minimum_isolating_cuts(any_engine, g, terminals, FlowMeter())
    assert res.entries[4].cut.weight == 0
    assert res.entries[4].cut.side.members() == [4]
    assert res.entries[0].cut.weight == 0
    assert res.entries[0].cut.side.members() == [0, 1, 2]


def test_deterministic_across_runs(dinic):
    g = rand_graph(10, 9, p=0.4)
    terminals = rand_terminals(10, 4, 9)
    first = minimum_isolating_cuts(dinic, g, terminals, FlowMeter())
    second = minimum_isolating_cuts(dinic, g, terminals, FlowMeter())
    assert first.entries == second.entries
    assert first.phase_a_calls == second.phase_a_calls


_BUILD_PHASE_B = isolating._build_phase_b


def _family_against_loop(engine, graph, sets, monkeypatch) -> tuple[list, FlowMeter, FlowMeter]:
    """Run sets as one family and one by one on a second meter.

    Returns the chunks, each the list of its runs' phase-A edge counts, and
    the family's and the loop's meters.
    """
    looped = FlowMeter()
    alone = [minimum_isolating_cuts(engine, graph, terminals, looped) for terminals in sets]
    chunks = []

    def recording(graph, runs, memo):
        # Phase B is built once per chunk.
        chunks.append([sum(quotient.m for quotient in run.phase_a) for run in runs])
        return _BUILD_PHASE_B(graph, runs, memo)

    monkeypatch.setattr(isolating, "_build_phase_b", recording)
    meter = FlowMeter()
    assert minimum_isolating_cuts_family(engine, graph, sets, meter) == alone
    assert (meter.calls, meter.bundled, meter.recalled) == (
        looped.calls, looped.bundled, looped.recalled
    )
    # A chunk stays within the cap unless it is one run, and closes only
    # when the next run would take it past the cap.
    cap = maxflow._BATCH_EDGES
    assert sum(map(len, chunks)) == len(sets)
    assert all(len(chunk) == 1 or sum(chunk) <= cap for chunk in chunks)
    assert all(sum(chunk) + after[0] > cap for chunk, after in zip(chunks, chunks[1:]))
    if engine.name == "dinic":
        assert meter.engine_invocations == looped.engine_invocations
    else:
        assert meter.engine_invocations <= min(2 * len(chunks), looped.engine_invocations)
    return chunks, meter, looped


def test_family_equals_one_run_per_set(any_engine, monkeypatch):
    monkeypatch.setattr(maxflow, "_BATCH_EDGES", 4096)  # the cap this family is sized for
    g = rand_graph(40, 7, p=0.5)
    rng = random.Random(7)
    sets = [rand_terminals(40, rng.randint(2, 6), seed) for seed in range(24)]
    sets.insert(9, sets[2])  # a repeated run is answered from the memo
    chunks, meter, looped = _family_against_loop(any_engine, g, sets, monkeypatch)
    assert len(chunks) >= 3
    assert meter.recalled > 0
    if any_engine.name == "scipy":
        assert 2 * len(chunks) < looped.engine_invocations


def test_family_gives_an_oversized_run_its_own_chunk(any_engine, monkeypatch):
    monkeypatch.setattr(maxflow, "_BATCH_EDGES", 4096)  # the cap this family is sized for
    g = rand_graph(80, 11, p=0.6)
    big = rand_terminals(80, 8, 11)
    small = rand_terminals(80, 2, 12)
    chunks, _, _ = _family_against_loop(any_engine, g, [big, small, small, big], monkeypatch)
    assert chunks[0][0] > maxflow._BATCH_EDGES
    assert [len(chunk) for chunk in chunks] == [1, 2, 1]


def test_family_solves_each_phase_b_with_the_next_chunks_phase_a(scipy_eng, monkeypatch):
    # The family of test_family_equals_one_run_per_set, which checks it
    # against the one-run-per-set loop.
    import scipy.sparse.csgraph as csgraph

    monkeypatch.setattr(maxflow, "_BATCH_EDGES", 4096)  # the cap this family is sized for
    g = rand_graph(40, 7, p=0.5)
    rng = random.Random(7)
    sets = [rand_terminals(40, rng.randint(2, 6), seed) for seed in range(24)]
    sets.insert(9, sets[2])
    chunks, glued, flows = [], [], [0]
    solve_batch = ScipyEngine.solve_batch
    maximum_flow = csgraph.maximum_flow

    def recording(graph, runs, memo):
        chunks.append(runs)
        return _BUILD_PHASE_B(graph, runs, memo)

    def keyed(instances):
        glued.append([_memo_key(*instance) for instance in instances])
        return solve_batch(instances)

    def counted(*args, **kwargs):
        flows[0] += 1
        return maximum_flow(*args, **kwargs)

    monkeypatch.setattr(isolating, "_build_phase_b", recording)
    monkeypatch.setattr(ScipyEngine, "solve_batch", staticmethod(keyed))
    monkeypatch.setattr(csgraph, "maximum_flow", counted)
    meter = FlowMeter()
    minimum_isolating_cuts_family(scipy_eng, g, sets, meter)
    assert len(chunks) >= 3
    assert [run.terminals for chunk in chunks for run in chunk] == sets
    # Batch 0 holds chunk 1's phase A, batch c chunk c's phase B and chunk
    # c + 1's phase A, and the last batch the last chunk's phase B, each
    # without the trivial instances and those already solved. So each
    # phase B shares its batch with the phase A of the chunk after it.
    stages = [[q for run in chunks[0] for q in run.phase_a]]
    stages += [
        [q for run in runs for q, _ in run.phase_b] + [q for run in after for q in run.phase_a]
        for runs, after in zip(chunks, chunks[1:] + [[]])
    ]
    solved, want = set(), []
    for stage in stages:
        fresh = [_memo_key(q, 0, 1) for q in stage if q.m and q.n > 2]
        fresh = [key for key in dict.fromkeys(fresh) if key not in solved]
        solved.update(fresh)
        want += [fresh] if fresh else []
    assert glued == want
    assert flows[0] == meter.engine_invocations == len(chunks) + 1


def _same_instance(memo, got, want) -> VertexSet:
    """got equals want byte for byte; returns got's solved side."""
    assert (got.n, got.total_weight) == (want.n, want.total_weight)
    assert got.digest == want.digest
    for a, b in zip(got.edge_arrays, want.edge_arrays):
        assert a.dtype == b.dtype == np.int64
        assert a.tobytes() == b.tobytes()
    return known_cut(got, 0, 1, memo).side


def _chunk_against_separation_quotient(engine, graph, sets) -> tuple[list, list]:
    """Build one chunk of runs over sets and check every instance of both phases.

    Phase A is built group by group by the family's rule (``batches`` over
    bipartitions times m, one ``_build_phase_a`` per group), and the one
    chunk holds every run, so it may span several groups. Each phase-A
    instance must equal ``separation_quotient(graph, A, B)`` of its
    bipartition and each phase-B instance ``separation_quotient(graph, {v},
    outside)``, byte for byte; each component must be v's component once
    phase A's cut edges are deleted; and a solved cut must lift to the same
    side through the run's lift (a phase-A label row of the vertices that
    edges touch, or a phase-B lift) as through ``separation_quotient``'s.
    Returns the phase-B instances and the run count of each phase-A group.
    """
    groups = []
    meter = FlowMeter()
    pending = [isolating._start_run(graph, terminals) for terminals in sets]
    runs = []
    for group in batches(pending, lambda run: run.bits * graph.m):
        groups.append(len(group))
        runs += isolating._build_phase_a(graph, group)
    solve_ahead(engine, [(q, 0, 1) for run in runs for q in run.phase_a], meter)
    label_rows = [run.phase_a_labels for run in runs]  # _build_phase_b clears them
    isolating._build_phase_b(graph, runs, meter.memo)
    solve_ahead(engine, [(q, 0, 1) for run in runs for q, _ in run.phase_b], meter)
    us, vs, _ = graph.edge_arrays
    touched = np.zeros(graph.n, dtype=bool)
    touched[us] = touched[vs] = True
    built = []
    for run, rows, terminals in zip(runs, label_rows, sets):
        schedule = bipartition_schedule(terminals)
        assert len(run.phase_a) == len(rows) == len(schedule)
        removed = np.zeros(graph.m, dtype=bool)
        for quotient, row, (side_a, side_b) in zip(run.phase_a, rows, schedule):
            want, want_lift = separation_quotient(graph, side_a, side_b)
            side = _same_instance(meter.memo, quotient, want)
            inside = lift_side(side, want_lift).bools()
            assert np.array_equal(side.bools()[row], inside[touched])
            removed |= inside[us] != inside[vs]
        labels = components_after_removal(graph, removed)
        assert len(run.phase_b) == len(run.members)
        for v, (quotient, lift) in zip(run.members, run.phase_b):
            # The piece but its merged outside, vertex 1, lifts to v's component.
            comp = lift_side(VertexSet(quotient.n, (1 << quotient.n) - 3), lift)
            assert comp == VertexSet.from_bools(labels == labels[v])
            source = VertexSet(graph.n, 1 << v)
            want, want_lift = separation_quotient(graph, source, comp.complement())
            side = _same_instance(meter.memo, quotient, want)
            assert lift_side(side, lift) == lift_side(side, want_lift)
            built.append(quotient)
    assert sum(groups) == len(sets)
    return built, groups


def test_chunk_build_equals_separation_quotient_on_random_multigraphs(dinic):
    for seed in range(12):
        rng = random.Random(seed)
        n = rng.randint(6, 28)
        edges = [
            (rng.randrange(n), rng.randrange(n), rng.randint(1, 1 << 40))
            for _ in range(rng.randint(n, 4 * n))
        ]
        edges += edges[: len(edges) // 4]  # parallel edges merge
        g = WeightedGraph(n, edges)
        sets = [rand_terminals(n, rng.randint(2, min(n, 7)), 100 * seed + i) for i in range(5)]
        _chunk_against_separation_quotient(dinic, g, sets)


def test_chunk_build_equals_separation_quotient_on_disconnected_graphs(any_engine):
    for seed in range(6):
        g = gnp_graph(24, 0.08, seed=seed, connect=False)
        sets = [rand_terminals(24, k, seed + k) for k in (2, 5, 9, 24)]
        _chunk_against_separation_quotient(any_engine, g, sets)


def test_chunk_build_closed_forms_and_empty_slices(any_engine):
    # In the star every leaf terminal is alone in its component: a
    # two-vertex instance whose one edge carries the leaf's degree. Vertices
    # 5 and 6 have no edge; 6, the last terminal of the chunk, gets an empty
    # slice at the end of the sorted arrays.
    g = WeightedGraph(7, [(0, 1, 3), (0, 2, 5), (0, 3, 7), (1, 2, 1), (0, 4, 2), (0, 4, 2)])
    sets = [VertexSet.from_ids(7, ids) for ids in ([1, 3], [3, 4, 5], [0, 3, 6], [1, 2, 3, 4, 6])]
    built, groups = _chunk_against_separation_quotient(any_engine, g, sets)
    assert groups == [4]
    assert (built[0].n, built[0].edges) == (2, ((0, 1, 4),))  # leaf 1 of run one
    assert (built[3].n, built[3].edges) == (2, ((0, 1, 4),))  # leaf 4: a merged pair
    assert (built[-1].n, built[-1].m, built[-1].total_weight) == (2, 0, 0)
    assert len(set(map(id, [q.edge_arrays[2].base for q in built]))) == 1
    # An edgeless graph: every instance of either phase is an empty slice of
    # empty arrays, and every run shares one phase-A group.
    _chunk_against_separation_quotient(
        any_engine, WeightedGraph(3, []), [VertexSet.full(3)] * 2
    )
    full = VertexSet.full(5)
    _, groups = _chunk_against_separation_quotient(
        any_engine, WeightedGraph(5, []), [full, VertexSet.from_ids(5, [1, 4]), full]
    )
    assert groups == [3]


def test_chunk_build_with_an_oversized_run_and_a_chunk_over_several_groups(any_engine, monkeypatch):
    # Phase A groups runs while bipartitions * m stays within the cap: the
    # 8-terminal run takes 3 * m > cap rows and forms its own group, and two
    # 2-terminal runs (m rows each) share one. The one chunk spans them all.
    monkeypatch.setattr(maxflow, "_BATCH_EDGES", 4096)  # the cap this graph is sized for
    g = rand_graph(80, 11, p=0.6)
    cap = maxflow._BATCH_EDGES
    assert 3 * g.m > cap >= 2 * g.m
    big = rand_terminals(80, 8, 11)
    small = rand_terminals(80, 2, 12)
    _, groups = _chunk_against_separation_quotient(
        any_engine, g, [small, big, small, rand_terminals(80, 2, 13)]
    )
    assert groups == [1, 1, 2]


def test_family_checks_every_set_before_any_flow(any_engine):
    # Each 8-terminal run is a chunk of its own, so one by one the first
    # three would run their flows before the fourth set is read.
    g = rand_graph(80, 11, p=0.6)
    runs = [rand_terminals(80, 8, seed) for seed in range(3)]
    for bad in (VertexSet.from_ids(80, [5]), VertexSet.from_ids(81, [0, 5])):
        meter = FlowMeter()
        with pytest.raises(InputError):
            minimum_isolating_cuts_family(any_engine, g, runs + [bad, runs[0]], meter)
        assert meter.calls == []
        assert meter.engine_invocations == 0


def test_terminal_universe_must_match(dinic):
    g = WeightedGraph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
    with pytest.raises(InputError):
        minimum_isolating_cuts(dinic, g, VertexSet.from_ids(5, [0, 3]), FlowMeter())
    with pytest.raises(InputError):
        minimum_isolating_cuts(dinic, g, VertexSet.from_ids(4, [2]), FlowMeter())


def test_side_check_names_the_vertex(dinic, monkeypatch):
    g = WeightedGraph(5, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1)])
    terminals = VertexSet.from_ids(5, [2, 4])

    # Phase A runs for real: its cuts are read from the memo, and only phase B
    # is lifted through lift_side. A phase-B side lifts into its one-terminal
    # component, so the side that reaches the terminal check is one that
    # misses its own terminal: terminal 2's {0, 1, 2} loses 2.
    def drop_terminals(side, lift):
        return lift_side(side, lift).difference(terminals)

    monkeypatch.setattr("cutkit.isolating.lift_side", drop_terminals)
    with pytest.raises(ContractViolation, match=r"exactly 2$"):
        minimum_isolating_cuts(dinic, g, terminals, FlowMeter())

    # The naive oracle's sink is the contracted rest of R: a second terminal.
    def with_sink(engine, graph, s, t, meter):
        return Cut(VertexSet.from_ids(graph.n, [s, t]), 0)

    monkeypatch.setattr("cutkit.oracles.max_flow", with_sink)
    with pytest.raises(ContractViolation, match=r"exactly 2$"):
        naive_isolating(dinic, g, terminals)


def _traced_peak(run, *args) -> tuple:
    """run(*args)'s result and the peak of the memory traced while it ran, in bytes."""
    tracemalloc.start()
    try:
        result = run(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_chunk_arrays_follow_edges_not_vertices(dinic):
    """128 two-terminal runs on a 40,000-vertex graph with 30 edges.

    Arrays of runs times n take about 180 MB traced here; over the vertices
    that edges touch they take a few MB. Every edge joins two of the first
    100 vertices and every terminal lies above them, so each run's phase-A
    instance is the same one and only one flow runs.
    """
    n = 40_000
    rng = random.Random(11)
    edges = [(*rng.sample(range(100), 2), rng.randint(1, 9)) for _ in range(30)]
    g = WeightedGraph(n, edges)
    sets = [VertexSet.from_ids(n, rng.sample(range(100, n), 2)) for _ in range(128)]
    meter = FlowMeter()
    results, peak = _traced_peak(minimum_isolating_cuts_family, dinic, g, sets, meter)
    assert meter.solved == 1
    assert [len(result.entries) for result in results] == [2] * 128
    assert peak < 16 << 20


def test_scipy_batch_ids_follow_edges_not_vertices(dinic, scipy_eng):
    """64 three-terminal runs on the graph above, on the SciPy engine.

    Two terminals of each run lie among the first 100 vertices, so the
    runs' phase-A instances differ and one batch glues about 120 of them,
    each of 40,000 vertices. Glued ids for every vertex of every instance
    took about 125 MB traced here; with ids for each instance's s, t and
    touched vertices but a flag and an id slot for every vertex, about
    37 MB; with every array over the edge ends, about 2 MB, as on Dinic.
    """
    n = 40_000
    rng = random.Random(11)
    edges = [(*rng.sample(range(100), 2), rng.randint(1, 9)) for _ in range(30)]
    g = WeightedGraph(n, edges)
    ids = [rng.sample(range(100), 2) + [rng.randrange(100, n)] for _ in range(64)]
    sets = [VertexSet.from_ids(n, terminals) for terminals in ids]
    # SciPy's imports and first-call allocations stay out of the measured
    # run: the phase-A instance of {1, 2} on a star is one nontrivial flow.
    minimum_isolating_cuts(scipy_eng, star_graph(3), VertexSet.from_ids(4, [1, 2]), FlowMeter())
    meter = FlowMeter()
    results, peak = _traced_peak(minimum_isolating_cuts_family, scipy_eng, g, sets, meter)
    looped = FlowMeter()
    assert results == minimum_isolating_cuts_family(dinic, g, sets, looped)
    assert meter.calls == looped.calls
    assert meter.solved > 100 and meter.engine_invocations <= 2
    assert peak < 6 << 20


def test_family_releases_each_run_once_metered(scipy_eng):
    """A run's instances are freed once it is metered, so the peak does not follow the run count.

    400 three-terminal sets peak at about twice the traced memory of 50.
    A family that kept every run until it returned held all their
    instances: about 7 times.
    """
    g = gnp_graph(120, 0.1, seed=5)

    def peak(count):
        sets = [rand_terminals(120, 3, seed) for seed in range(count)]
        return _traced_peak(minimum_isolating_cuts_family, scipy_eng, g, sets, FlowMeter())[1]

    peak(5)  # SciPy's imports and first-call allocations stay out of the measured runs
    assert peak(400) < 3 * peak(50)

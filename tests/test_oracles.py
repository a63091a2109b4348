import pytest

from cutkit import (
    FlowMeter,
    InputError,
    SteinerInstance,
    VertexSet,
    WeightedGraph,
    enumerate_cuts,
    enumerate_min_cut_sides,
    maxflow,
    minimum_isolating_cuts,
    naive_isolating,
    naive_steiner,
    stoer_wagner,
)
from cutkit.generators import cycle_graph, dumbbell_graph
from cutkit.maxflow import max_flow

from helpers import rand_graph, rand_terminals


def test_enumerate_source_sink_minimal_side():
    g = cycle_graph(4)
    cut = enumerate_cuts(g, source=0, sink=2)
    assert cut.weight == 2
    assert cut.side.members() == [0]


def test_enumerate_global_min_cut_sides():
    weight, sides = enumerate_min_cut_sides(cycle_graph(4))
    assert weight == 2
    assert len(sides) == 12
    masks = [s.mask for s in sides]
    assert masks == sorted(masks)
    assert VertexSet.from_ids(4, [0, 2]) not in sides


def test_enumerate_side_constraints():
    g = WeightedGraph(5, [(0, 1, 3), (1, 2, 1), (2, 3, 3), (3, 4, 1), (4, 0, 1)])
    cut = enumerate_cuts(
        g, side_a=VertexSet.from_ids(5, [0, 1]), side_b=VertexSet.from_ids(5, [3])
    )
    assert cut.weight == 2
    assert cut.side.members() == [0, 1]
    wider = enumerate_cuts(g, side_a=VertexSet.from_ids(5, [0, 1]))
    assert wider.weight <= cut.weight


def test_enumerate_isolate_constraint():
    g = dumbbell_graph(8)
    r = VertexSet.from_ids(8, [0, 1, 4])
    cut = enumerate_cuts(g, isolate=(4, r))
    assert cut.weight == 1
    assert cut.side.members() == [4, 5, 6, 7]
    with pytest.raises(InputError):
        enumerate_cuts(g, isolate=(2, r))


def test_enumerate_terminal_constraint():
    g = dumbbell_graph(6)
    t = VertexSet.from_ids(6, [0, 3])
    cut = enumerate_cuts(g, terminals=t)
    assert cut.weight == 1
    assert cut.side.members() == [0, 1, 2]


def test_enumerate_rejects_impossible_constraints():
    g = cycle_graph(4)
    with pytest.raises(InputError):
        enumerate_cuts(g, source=1, sink=1)
    with pytest.raises(InputError):
        enumerate_cuts(g, side_a=VertexSet.full(4))
    with pytest.raises(InputError):
        enumerate_cuts(g, terminals=VertexSet.from_ids(4, [2]))


def test_enumerate_size_guard():
    g = rand_graph(21, 0, p=0.2)
    with pytest.raises(InputError):
        enumerate_cuts(g, source=0, sink=1)


def test_stoer_wagner_on_known_graphs():
    cut = stoer_wagner(dumbbell_graph(10))
    assert cut.weight == 1
    assert cut.side.members() in ([0, 1, 2, 3, 4], [5, 6, 7, 8, 9])
    cut = stoer_wagner(cycle_graph(7, weight=3))
    assert cut.weight == 6


def test_stoer_wagner_matches_enumeration():
    for seed in range(60):
        g = rand_graph(8, seed, p=0.45)
        cut = stoer_wagner(g)
        weight, sides = enumerate_min_cut_sides(g)
        assert cut.weight == weight, seed
        assert cut.side in sides or cut.side.complement() in sides, seed
        assert cut.verify(g)


def test_stoer_wagner_disconnected_and_tiny():
    g = WeightedGraph(5, [(0, 3, 2), (1, 2, 1)])
    cut = stoer_wagner(g)
    assert cut.weight == 0
    assert cut.side.members() == [0, 3]
    with pytest.raises(InputError):
        stoer_wagner(WeightedGraph(1, []))


def test_naive_steiner_meters_and_agrees(any_engine):
    for seed in range(10):
        g = rand_graph(9, seed, p=0.4)
        t = rand_terminals(9, 4, seed)
        meter = FlowMeter()
        cut = naive_steiner(any_engine, SteinerInstance(g, t), meter)
        assert meter.call_count == 3
        best = enumerate_cuts(g, terminals=t)
        assert cut.weight == best.weight, seed
        assert cut.verify(g)
        assert cut.side.intersection(t)
        assert cut.side.complement().intersection(t)


def test_naive_steiner_batches_its_flows_without_moving_the_calls(any_engine, monkeypatch):
    # 29 sinks in groups of _BATCH_EDGES // m, the last group short; an
    # edgeless graph runs no flow at all.
    monkeypatch.setattr(maxflow, "_BATCH_EDGES", 4096)  # the cap this graph is sized for
    g = rand_graph(30, 3, p=0.5)
    step = maxflow._BATCH_EDGES // g.m
    assert 1 < step < 29 and 29 % step
    for graph in (g, WeightedGraph(5, [])):
        terminals = graph.full_set
        meter = FlowMeter()
        cut = naive_steiner(any_engine, SteinerInstance(graph, terminals), meter)
        alone, best = FlowMeter(), None
        for t in terminals.members()[1:]:
            flow = max_flow(any_engine, graph, 0, t, alone)
            if best is None or flow.weight < best.weight:
                best = flow
        assert cut == best
        assert (meter.calls, meter.solved, meter.recalled) == (
            alone.calls, alone.solved, alone.recalled
        )
        if not graph.m:
            assert meter.engine_invocations == 0
        elif any_engine.name == "dinic":
            assert meter.engine_invocations == alone.engine_invocations == 29
        else:
            assert meter.engine_invocations == -(-29 // step) < alone.engine_invocations


def test_naive_steiner_needs_two_terminals(dinic):
    g = cycle_graph(4)
    with pytest.raises(InputError):
        SteinerInstance(g, VertexSet.from_ids(4, [1]))


def test_naive_isolating_meters_and_matches(any_engine, monkeypatch):
    monkeypatch.setattr(maxflow, "_BATCH_EDGES", 4096)  # the cap the second graph is sized for
    g = rand_graph(9, 5, p=0.4)
    t = rand_terminals(9, 4, 5)
    meter = FlowMeter()
    res = naive_isolating(any_engine, g, t, meter)
    assert meter.call_count == len(t)
    for v in t:
        best = enumerate_cuts(g, isolate=(v, t))
        assert res.entries[v].cut.weight == best.weight
        assert res.entries[v].cut.side == best.side
        assert res.entries[v].component == res.entries[v].cut.side
    # |R| flows in groups of _BATCH_EDGES // m terminals: one engine
    # invocation per group on SciPy, one per flow on Dinic. On the second
    # graph there are three groups, the last one short.
    big = rand_graph(40, 3, p=0.6)
    big_t = VertexSet.from_ids(40, range(0, 40, 2))
    step = maxflow._BATCH_EDGES // big.m
    assert 1 < step < 20 and 20 % step
    for g, t in ((g, t), (big, big_t)):
        meter = FlowMeter()
        res = naive_isolating(any_engine, g, t, meter)
        assert meter.call_count == meter.solved == len(t)
        fast = minimum_isolating_cuts(any_engine, g, t, FlowMeter())
        assert {v: e.cut for v, e in res.entries.items()} == {
            v: e.cut for v, e in fast.entries.items()
        }
        if any_engine.name == "dinic":
            assert meter.engine_invocations == len(t)
        else:
            assert meter.engine_invocations == -(-len(t) // (maxflow._BATCH_EDGES // g.m))

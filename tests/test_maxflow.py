import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from cutkit import (
    AlgoConfig,
    ContractViolation,
    DinicEngine,
    FlowMeter,
    InputError,
    ScipyEngine,
    SteinerInstance,
    VertexSet,
    build_graph,
    enumerate_cuts,
    get_engine,
    gnp_graph,
    max_flow,
    min_cut_separating,
    parse_dimacs,
    steiner_mincut_det,
    write_dimacs,
)

from helpers import rand_graph, st_pair


def test_path_graph_flow(any_engine):
    g = build_graph(4, [(0, 1, 5), (1, 2, 3), (2, 3, 7)])
    meter = FlowMeter()
    res = max_flow(any_engine, g, 0, 3, meter)
    assert res.value == 3
    assert res.min_side.members() == [0, 1]
    assert meter.call_count == 1
    assert meter.calls == [(4, 3)]


def test_disconnected_pair_flow_zero(any_engine):
    g = build_graph(4, [(0, 1, 2), (2, 3, 2)])
    res = max_flow(any_engine, g, 0, 2, FlowMeter())
    assert res.value == 0
    assert res.min_side.members() == [0, 1]


def test_source_sink_validation(dinic):
    g = build_graph(3, [(0, 1, 1), (1, 2, 1)])
    with pytest.raises(InputError):
        max_flow(dinic, g, 0, 3, FlowMeter())
    with pytest.raises(InputError):
        max_flow(dinic, g, 1, 1, FlowMeter())


def test_unknown_engine_rejected():
    with pytest.raises(InputError):
        get_engine("edmonds-karp")


def test_engines_agree_on_random_graphs(dinic, scipy_eng):
    cases = [(rand_graph(9, seed), *st_pair(9, seed)) for seed in range(30)]
    # Two-vertex and edgeless instances, which the scipy engine answers itself.
    for g in (build_graph(2, [(0, 1, 7)]), build_graph(2, [])):
        cases += [(g, 0, 1), (g, 1, 0)]
    cases.append((build_graph(5, []), 3, 1))
    for g, s, t in cases:
        a = max_flow(dinic, g, s, t, FlowMeter())
        b = max_flow(scipy_eng, g, s, t, FlowMeter())
        assert a == b
        if g.n == 2 or g.m == 0:
            assert a.value == g.total_weight
            assert a.min_side.members() == [s]


def test_min_side_matches_enumeration(any_engine):
    for seed in range(12):
        g = rand_graph(8, seed, p=0.4)
        s, t = st_pair(8, seed)
        res = max_flow(any_engine, g, s, t, FlowMeter())
        best = enumerate_cuts(g, source=s, sink=t)
        assert res.value == best.weight
        assert res.min_side == best.side


def test_dinic_handles_huge_weights(dinic):
    w = 1 << 40
    g = build_graph(3, [(0, 1, w), (1, 2, w)])
    res = max_flow(dinic, g, 0, 2, FlowMeter())
    assert res.value == w


def test_dinic_long_weighted_path_is_exact(dinic):
    # 5,000 vertices in a row: a recursive search would pass Python's depth limit.
    n, k = 5000, 3217
    rng = random.Random(5000)
    weights = [rng.randint((1 << 39) + 1, 1 << 40) for _ in range(n - 1)]
    weights[k] = 1 << 39
    g = build_graph(n, [(i, i + 1, w) for i, w in enumerate(weights)])
    res = max_flow(dinic, g, 0, n - 1, FlowMeter())
    assert res.value == 1 << 39
    assert res.min_side.members() == list(range(k + 1))


def test_dinic_matches_enumeration_past_2_to_53(dinic):
    big = 0
    for seed in range(40):
        rng = random.Random(seed)
        n = rng.randint(2, 12)
        triples = [
            (u, v, rng.randint(1, 1 << 40))
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.4
        ]
        # 2^13 + 1 parallel copies of 2^40 merge to more than 2^53.
        u, v = rng.sample(range(n), 2)
        triples += [(u, v, 1 << 40)] * ((1 << 13) + rng.randint(1, 4))
        g = build_graph(n, triples)
        big += int(g.edge_arrays[2].max()) > 1 << 53
        s, t = st_pair(n, seed)
        res = max_flow(dinic, g, s, t, FlowMeter())
        best = enumerate_cuts(g, source=s, sink=t)
        assert res.value == best.weight
        assert res.min_side == best.side
    assert big == 40


def test_engines_agree_on_every_flow_of_a_driver_run():
    class Recording(ScipyEngine):
        def __init__(self):
            self.seen = []

        def solve(self, graph, s, t):
            self.seen.append((graph, s, t))
            return super().solve(graph, s, t)

    g = gnp_graph(48, 0.15, seed=3, w_min=1 << 20, w_max=1 << 21)
    recorder = Recording()
    steiner_mincut_det(recorder, SteinerInstance(g, g.full_set), AlgoConfig(phi=Fraction(1, 4), k=2))
    flows = [(h, s, t) for h, s, t in recorder.seen if h.m and h.n > 2]
    assert len(flows) > 100
    for h, s, t in recorder.seen:
        assert DinicEngine().solve(h, s, t) == ScipyEngine().solve(h, s, t)


def test_scipy_rejects_weights_beyond_int32(scipy_eng):
    w = 1 << 40
    g = build_graph(3, [(0, 1, w), (1, 2, w)])
    with pytest.raises(InputError):
        max_flow(scipy_eng, g, 0, 2, FlowMeter())
    with pytest.raises(InputError):
        max_flow(scipy_eng, build_graph(2, [(0, 1, w)]), 0, 1, FlowMeter())


def test_scipy_layout_mismatch_is_contract_violation(scipy_eng, monkeypatch):
    import scipy.sparse.csgraph as csgraph
    from scipy.sparse import csr_matrix

    def empty_flow(mat, s, t):
        return SimpleNamespace(flow=csr_matrix(mat.shape, dtype=mat.dtype), flow_value=0)

    monkeypatch.setattr(csgraph, "maximum_flow", empty_flow)
    g = build_graph(3, [(0, 1, 1), (1, 2, 1)])
    with pytest.raises(ContractViolation):
        max_flow(scipy_eng, g, 0, 2, FlowMeter())


def test_meter_snapshot_delta_merge(dinic):
    g = build_graph(3, [(0, 1, 2), (1, 2, 3)])
    meter = FlowMeter()
    max_flow(dinic, g, 0, 2, meter)
    mark = meter.snapshot()
    max_flow(dinic, g, 0, 1, meter)
    assert meter.delta(mark) == [(3, 2)]
    assert meter.call_count == 2
    assert meter.aggregate_vertices == 6
    assert meter.aggregate_edges == 4
    assert meter.equivalent_calls == 2
    mark = meter.snapshot()
    for _ in range(3):
        meter.record(10, 20)
    meter.bundle(mark)
    assert meter.call_count == 5
    assert meter.equivalent_calls == 3


def test_min_cut_separating_contracts_sides(any_engine):
    g = build_graph(6, [(0, 1, 4), (1, 2, 1), (2, 3, 4), (3, 4, 4), (4, 5, 1), (5, 0, 4)])
    meter = FlowMeter()
    cut = min_cut_separating(
        any_engine, g, VertexSet.from_ids(6, [0, 1]), VertexSet.from_ids(6, [3]), meter
    )
    assert cut.weight == 2
    assert cut.side.members() == [0, 1, 5]
    assert cut.verify(g)
    assert meter.calls == [(5, 5)]


def test_min_cut_separating_matches_enumeration(any_engine):
    for seed in range(10):
        g = rand_graph(8, seed + 100, p=0.5)
        side_a = VertexSet.from_ids(8, [0, 3])
        side_b = VertexSet.from_ids(8, [5])
        cut = min_cut_separating(any_engine, g, side_a, side_b, FlowMeter())
        best = enumerate_cuts(g, side_a=side_a, side_b=side_b)
        assert cut.weight == best.weight
        assert cut.side == best.side


def test_min_cut_separating_validation(dinic):
    g = build_graph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
    with pytest.raises(InputError):
        min_cut_separating(dinic, g, VertexSet.empty(4), VertexSet.from_ids(4, [1]), FlowMeter())
    with pytest.raises(InputError):
        min_cut_separating(
            dinic, g, VertexSet.from_ids(4, [0, 1]), VertexSet.from_ids(4, [1]), FlowMeter()
        )


def test_dimacs_round_trip():
    g = build_graph(4, [(0, 1, 5), (1, 3, 2)])
    text = write_dimacs(g, 0, 3)
    g2, s, t = parse_dimacs(text)
    assert g2 == g
    assert (s, t) == (0, 3)


def test_dimacs_parse_errors():
    with pytest.raises(InputError):
        parse_dimacs("a 1 2 3\n")
    with pytest.raises(InputError):
        parse_dimacs("p max 3 1\na 1 2 3\n")
    with pytest.raises(InputError):
        parse_dimacs("p max 3 1\nn 1 s\nn 3 t\nx 0\n")
    with pytest.raises(InputError):
        parse_dimacs("p flow 3 1\n")
    for bad in ("p max x 1\n", "p max 3 1\nn y s\n", "p max 3 1\na 1 2 x\n"):
        with pytest.raises(InputError, match="not an integer"):
            parse_dimacs(bad)

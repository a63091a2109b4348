import json
import random
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import pytest

from cutkit import (
    AlgoConfig,
    ContractViolation,
    Cut,
    DinicEngine,
    FlowMeter,
    GeneratorSpec,
    InputError,
    ScipyEngine,
    SteinerInstance,
    VertexSet,
    WeightedGraph,
    enumerate_cuts,
    get_engine,
    generate,
    gnp_graph,
    max_flow,
    maxflow,
    min_cut_separating,
    minimum_isolating_cuts,
    parse_dimacs,
    steiner_mincut_det,
    steiner_mincut_rand,
    stoer_wagner,
    write_dimacs,
)
from cutkit.bench import bench_graph
from cutkit.cli import main

from helpers import rand_graph, st_pair


def test_path_graph_flow(any_engine):
    g = WeightedGraph(4, [(0, 1, 5), (1, 2, 3), (2, 3, 7)])
    meter = FlowMeter()
    res = max_flow(any_engine, g, 0, 3, meter)
    assert res.weight == 3
    assert res.side.members() == [0, 1]
    assert meter.call_count == 1
    assert meter.calls == [(4, 3)]


def test_disconnected_pair_flow_zero(any_engine):
    g = WeightedGraph(4, [(0, 1, 2), (2, 3, 2)])
    res = max_flow(any_engine, g, 0, 2, FlowMeter())
    assert res.weight == 0
    assert res.side.members() == [0, 1]


def test_source_sink_validation(dinic):
    g = WeightedGraph(3, [(0, 1, 1), (1, 2, 1)])
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
    for g in (WeightedGraph(2, [(0, 1, 7)]), WeightedGraph(2, [])):
        cases += [(g, 0, 1), (g, 1, 0)]
    cases.append((WeightedGraph(5, []), 3, 1))
    for g, s, t in cases:
        a = max_flow(dinic, g, s, t, FlowMeter())
        b = max_flow(scipy_eng, g, s, t, FlowMeter())
        assert a == b
        if g.n == 2 or g.m == 0:
            assert a.weight == g.total_weight
            assert a.side.members() == [s]


def test_min_side_matches_enumeration(any_engine):
    for seed in range(12):
        g = rand_graph(8, seed, p=0.4)
        s, t = st_pair(8, seed)
        res = max_flow(any_engine, g, s, t, FlowMeter())
        best = enumerate_cuts(g, source=s, sink=t)
        assert res.weight == best.weight
        assert res.side == best.side


def test_dinic_handles_huge_weights(dinic):
    w = 1 << 40
    g = WeightedGraph(3, [(0, 1, w), (1, 2, w)])
    res = max_flow(dinic, g, 0, 2, FlowMeter())
    assert res.weight == w


def test_dinic_long_weighted_path_is_exact(dinic):
    # 5,000 vertices in a row: a recursive search would pass Python's depth limit.
    n, k = 5000, 3217
    rng = random.Random(5000)
    weights = [rng.randint((1 << 39) + 1, 1 << 40) for _ in range(n - 1)]
    weights[k] = 1 << 39
    g = WeightedGraph(n, [(i, i + 1, w) for i, w in enumerate(weights)])
    res = max_flow(dinic, g, 0, n - 1, FlowMeter())
    assert res.weight == 1 << 39
    assert res.side.members() == list(range(k + 1))


def test_dinic_matches_enumeration_past_2_to_53(dinic):
    cases = []
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
        cases.append((WeightedGraph(n, triples), *st_pair(n, seed)))
    assert all(int(g.edge_arrays[2].max()) > 1 << 53 for g, _, _ in cases)

    rng = random.Random(40)

    def heavy(n, pairs):
        weights = [rng.randint((1 << 40) - (1 << 20), 1 << 40) for _ in pairs]
        return WeightedGraph(n, [(u, v, w) for (u, v), w in zip(pairs, weights)])

    cycle = [(i, (i + 1) % 12) for i in range(12)]
    grid = [(i, i + 1) for i in range(12) if i % 4 < 3] + [(i, i + 4) for i in range(8)]
    cases += [
        (heavy(6, [(0, 1), (1, 2), (3, 4), (4, 5)]), 0, 5),  # t out of reach of s
        (heavy(5, [(1, 2), (2, 3), (3, 4)]), 0, 4),  # s without arcs
        (heavy(4, [(0, 3)]), 0, 3),  # a lone s-t edge
        (heavy(12, cycle), 0, 6),
        (heavy(12, cycle), 2, 3),
        (heavy(12, grid), 0, 11),  # a 3x4 grid, corner to corner
        (heavy(12, grid), 5, 6),
    ]
    for g, s, t in cases:
        res = max_flow(dinic, g, s, t, FlowMeter())
        best = enumerate_cuts(g, source=s, sink=t)
        assert res.weight == best.weight
        assert res.side == best.side


# Driver runs whose every flow both engines must agree on. The bench cycle
# and grid have long residual paths, where the Dinic engine's relabels pass
# its arc count and it redoes its distance labels (a global relabel).
_DRIVER_RUN_GRAPHS = {
    "gnp-48": lambda: gnp_graph(48, 0.15, seed=3, w_min=1 << 20, w_max=1 << 21),
    "cycle-128": lambda: bench_graph("cycle", 128),
    "grid-144": lambda: bench_graph("grid", 144),
}


@pytest.mark.parametrize("name", list(_DRIVER_RUN_GRAPHS))
def test_engines_agree_on_every_flow_of_a_driver_run(name):
    class Recording(ScipyEngine):
        def __init__(self):
            self.seen = []

        def solve_batch(self, instances):
            # Every solved instance arrives here with its edge arrays; a
            # metered call may read only an instance's record.
            self.seen += instances
            return super().solve_batch(instances)

    g = _DRIVER_RUN_GRAPHS[name]()
    recorder = Recording()
    steiner_mincut_det(recorder, SteinerInstance(g, g.full_set), AlgoConfig(phi=Fraction(1, 4), k=2))
    flows = [(h, s, t) for h, s, t in recorder.seen if h.m and h.n > 2]
    assert len(flows) > 100
    for h, s, t in recorder.seen:
        assert max_flow(DinicEngine(), h, s, t, FlowMeter()) == max_flow(
            ScipyEngine(), h, s, t, FlowMeter()
        )


def test_memo_recalls_repeats_without_moving_the_fingerprint(dinic, monkeypatch):
    spec = GeneratorSpec("gnp", 48, seed=0, p=0.15, w_min=1 << 39, w_max=1 << 40)
    g = generate(spec)
    inst = SteinerInstance(g, g.full_set)
    cfg = AlgoConfig(phi=Fraction(1, 4), k=2)
    report = steiner_mincut_det(dinic, inst, cfg)
    assert report.meter.recalled > 0
    assert report.weight == stoer_wagner(g).weight

    flows = []
    solve, solve_batch = DinicEngine.solve, DinicEngine.solve_batch
    built = {}

    def remembered(instances):
        # Each solved instance with its edge arrays, by memo key: a metered
        # call may hold only the instance's record.
        built.update((maxflow._memo_key(*instance), instance) for instance in instances)
        return solve_batch(instances)

    def never_stored(self, graph, s, t, memo):
        # Every metered call runs its own flow; the memo's cut goes unread.
        if graph.m and graph.n > 2:
            flows.append((graph.n, graph.m))
            return self.solve_batch([built[maxflow._memo_key(graph, s, t)]])[0]
        return solve(self, graph, s, t, memo)

    monkeypatch.setattr(DinicEngine, "solve_batch", staticmethod(remembered))
    monkeypatch.setattr(DinicEngine, "solve", never_stored)
    unstored = steiner_mincut_det(dinic, inst, cfg)
    assert unstored.fingerprint() == report.fingerprint()
    assert flows == [(n, m) for n, m in report.meter.calls if m and n > 2]


def test_every_metered_call_reaches_engine_solve_once(any_engine, monkeypatch):
    # perfbench's tracer counts one maxflow.solve span per metered call, so
    # a call answered any other way would leave its trace short.
    cfg = AlgoConfig(phi=Fraction(1, 4), k=2)
    solves = []
    cls = type(any_engine)
    solve = cls.solve

    def counted(self, graph, s, t, memo):
        solves.append((graph.n, graph.m))
        return solve(self, graph, s, t, memo)

    monkeypatch.setattr(cls, "solve", counted)
    grid = generate(GeneratorSpec("grid", 64, rows=8))
    for g in (grid, gnp_graph(24, 0.3, seed=0)):
        solves.clear()
        report = steiner_mincut_det(any_engine, SteinerInstance(g, g.full_set), cfg)
        assert report.meter.call_count > 0
        assert len(solves) == report.meter.call_count
        assert solves == report.meter.calls


def test_memo_keys_on_source_sink_and_every_weight(any_engine):
    edges = [(0, 1, 3), (1, 2, 2), (2, 3, 4), (3, 0, 1), (0, 2, 5)]
    g = WeightedGraph(4, edges)
    heavier = WeightedGraph(4, edges[:-1] + [(0, 2, 6)])
    meter = FlowMeter()
    variants = [(g, 0, 3), (g, 1, 3), (g, 0, 1), (heavier, 0, 3)]
    for h, s, t in variants:
        assert max_flow(any_engine, h, s, t, meter) == max_flow(any_engine, h, s, t, FlowMeter())
    assert (len(meter.memo), meter.recalled) == (4, 0)
    for h, s, t in variants:
        max_flow(any_engine, h, s, t, meter)
    assert (len(meter.memo), meter.recalled, meter.call_count) == (4, 4, 8)


def test_solve_reads_only_what_was_solved(any_engine):
    g = WeightedGraph(4, [(0, 1, 3), (1, 2, 2), (2, 3, 4)])
    with pytest.raises(ContractViolation, match="read before it was solved"):
        any_engine.solve(g, 0, 3, {})
    # A trivial instance needs no memo entry: it is read in closed form.
    pair = WeightedGraph(2, [(0, 1, 5)])
    assert any_engine.solve(pair, 1, 0, {}).side.members() == [1]
    assert any_engine.solve_batch([]) == []


def test_dinic_arc_lists_follow_edges_not_vertices(dinic, scipy_eng):
    """One flow on 400,000 vertices and 4 edges.

    An arc list for every vertex took about 38 MB traced here; arc lists
    for the vertices that have arcs, with the per-vertex lists of arc ends
    and BFS levels, about 19 MB; with per-vertex distance labels and
    current arcs instead, and a bytearray of seen flags for the side, about
    13 MB.
    """
    n = 400_000
    g = WeightedGraph(n, [(0, 1, 2), (1, 2, 3), (2, n - 1, 4), (0, n - 1, 1)])
    tracemalloc.start()
    try:
        (cut,) = dinic.solve_batch([(g, 0, n - 1)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 << 20
    assert cut == scipy_eng.solve_batch([(g, 0, n - 1)])[0]
    assert (cut.weight, cut.side.members()) == (3, [0])


def test_driver_reports_hold_no_memo_entries(dinic):
    g = gnp_graph(24, 0.3, seed=1)
    cfg = AlgoConfig(phi=Fraction(1, 4), k=2)
    split = WeightedGraph(4, [(0, 1, 1), (2, 3, 1)])
    for driver in (steiner_mincut_det, steiner_mincut_rand):
        for h in (g, split):
            report = driver(dinic, SteinerInstance(h, h.full_set), cfg)
            assert report.meter.memo == {}
    assert report.meter.call_count == 0


def test_scipy_layout_mismatch_is_contract_violation(scipy_eng, monkeypatch):
    import scipy.sparse.csgraph as csgraph
    from scipy.sparse import csr_matrix

    def empty_flow(mat, s, t):
        return SimpleNamespace(flow=csr_matrix(mat.shape, dtype=mat.dtype), flow_value=0)

    monkeypatch.setattr(csgraph, "maximum_flow", empty_flow)
    g = WeightedGraph(3, [(0, 1, 1), (1, 2, 1)])
    with pytest.raises(ContractViolation):
        max_flow(scipy_eng, g, 0, 2, FlowMeter())


def _batch_case(rng: random.Random) -> tuple:
    """A random (graph, s, t): two vertices a third of the time, often with an s-t edge."""
    n = rng.choice([2, 2, 3, 5, 8, 12])
    triples = [
        (u, v, rng.randint(1, 50))
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < rng.choice([0.0, 0.3, 0.6])
    ]
    s, t = rng.sample(range(n), 2)
    if rng.random() < 0.5:
        triples.append((s, t, rng.randint(1, 50)))
    return WeightedGraph(n, triples), s, t


def test_scipy_batches_equal_single_solves(scipy_eng, monkeypatch):
    rng = random.Random(16)
    direct = trivial = 0
    for _ in range(300):
        batch = [_batch_case(rng) for _ in range(rng.randint(1, 6))]
        # One instance twice: as the same object or as an equal copy.
        g, s, t = rng.choice(batch)
        repeat = (g if rng.random() < 0.5 else WeightedGraph(g.n, g.edges), s, t)
        batch.insert(rng.randrange(len(batch) + 1), repeat)
        got = ScipyEngine.solve_batch(batch)
        assert got == [max_flow(scipy_eng, g, s, t, FlowMeter()) for g, s, t in batch]
        for g, s, t in batch:
            direct += any({u, v} == {s, t} for u, v, _ in g.edges)
            trivial += g.m == 0 or g.n == 2
    assert min(direct, trivial) > 100

    # One real isolating chunk in steiner-subset's shape, both phases as one
    # batch: 20 of 320 sparse-gnp vertices as terminals.
    solve_batch, batches = ScipyEngine.solve_batch, []

    def recording(instances):
        batches.append(instances)
        return solve_batch(instances)

    g = generate(GeneratorSpec("gnp", 320, seed=1, p=6 / 320))
    terminals = VertexSet.from_ids(320, random.Random(1).sample(range(320), 20))
    monkeypatch.setattr(ScipyEngine, "solve_batch", staticmethod(recording))
    minimum_isolating_cuts(scipy_eng, g, terminals, FlowMeter())
    monkeypatch.undo()
    phase_a, phase_b = batches
    chunk = phase_a + phase_b
    keys = {maxflow._memo_key(*instance) for instance in chunk}
    assert (len(phase_a), len(chunk)) == (5, len(keys))
    got = ScipyEngine.solve_batch(chunk)
    assert got == [max_flow(scipy_eng, g, s, t, FlowMeter()) for g, s, t in chunk]
    assert got == DinicEngine.solve_batch(chunk)


def test_scipy_batch_sums_flows_past_int32(dinic):
    # Each piece carries 2^31 - 1 on each of two paths plus a direct s-t edge
    # of 2^31 - 1, so every piece's flow, and the glued flow, passes 2^31.
    w = (1 << 31) - 1
    piece = WeightedGraph(4, [(0, 2, w), (2, 1, w), (0, 3, w), (3, 1, w), (0, 1, w)])
    flipped = WeightedGraph(4, [(3, 2, w), (2, 0, w), (3, 1, w), (1, 0, w), (3, 0, w)])
    batch = [(piece, 0, 1), (flipped, 3, 0), (piece, 0, 1)]
    cuts = ScipyEngine.solve_batch(batch)
    assert [c.weight for c in cuts] == [3 * w] * 3
    assert cuts == [max_flow(dinic, g, s, t, FlowMeter()) for g, s, t in batch]


def _past_int32_max_flow(engine, tmp_path):
    w = 1 << 40
    meter = FlowMeter()
    cuts = [max_flow(engine, WeightedGraph(3, [(0, 1, w), (1, 2, w)]), 0, 2, meter)]
    cuts.append(max_flow(engine, WeightedGraph(2, [(0, 1, w)]), 0, 1, meter))
    assert [cut.weight for cut in cuts] == [w, w]
    assert meter.engine_invocations == 1  # the two-vertex instance runs no flow
    return cuts


def _past_int32_batch(engine, tmp_path):
    # Every edge fits int32, but contraction merges two into 2^31; only the
    # quotient passes int32, so SciPy glues the small instance alone.
    g = WeightedGraph(4, [(0, 2, 1 << 30), (1, 2, 1 << 30), (2, 3, 5)])
    small = WeightedGraph(3, [(0, 2, 1), (2, 1, 1)])
    quotient = WeightedGraph(3, [(0, 2, 1 << 31), (2, 1, 5)])
    batch = [(small, 0, 1), (quotient, 0, 1)]
    meter = FlowMeter()
    maxflow.solve_ahead(engine, batch, meter)
    assert meter.engine_invocations == 2
    cut = min_cut_separating(
        engine, g, VertexSet.from_ids(4, [0, 1]), VertexSet.from_ids(4, [3]), FlowMeter()
    )
    assert cut.weight == 5
    return type(engine).solve_batch(batch), cut


def _sink_merge_past_int32():
    # Every phase-A instance fits int32; only terminal 0's phase-B instance,
    # whose merged outside {1, 2} meets vertex 3 twice, passes 2^31.
    big = (1 << 30) + 1
    return WeightedGraph(4, [(0, 3, 1), (1, 3, big), (2, 3, big)]), VertexSet.from_ids(4, [0, 1, 2])


def _past_int32_isolating(engine, tmp_path):
    g, terminals = _sink_merge_past_int32()
    res = minimum_isolating_cuts(engine, g, terminals, FlowMeter())
    big = (1 << 30) + 1
    assert {v: e.cut.weight for v, e in res.entries.items()} == {0: 1, 1: big, 2: big}
    return res


def _cli_doc(argv, engine, tmp_path):
    out = tmp_path / f"{engine.name}.json"
    assert main(argv + ["--engine", engine.name, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    del doc["engine_invocations"]
    return doc


def _past_int32_cli_mincut(engine, tmp_path):
    # Each edge fits int32, but contracting the star merges them past it.
    path = tmp_path / "star.graph"
    lines = ["p 6 6"] + [f"0 {v} {1 << 30}" for v in range(1, 6)] + ["1 2 1"]
    path.write_text("\n".join(lines) + "\n")
    doc = _cli_doc(["mincut", "--graph", str(path), "--phi", "1/4", "--k", "2"], engine, tmp_path)
    assert doc["weight"] == 1 << 30
    return doc


def _past_int32_cli_isolating(engine, tmp_path):
    g, _ = _sink_merge_past_int32()
    path = tmp_path / "sink.graph"
    path.write_text("p 4 3\n" + "".join(f"{u} {v} {w}\n" for u, v, w in g.edges))
    doc = _cli_doc(["isolating", "--graph", str(path), "--terminals", "0,1,2"], engine, tmp_path)
    assert [c["weight"] for c in doc["cuts"]] == [1, (1 << 30) + 1, (1 << 30) + 1]
    return doc


@pytest.mark.parametrize(
    "run",
    [
        _past_int32_max_flow,
        _past_int32_batch,
        _past_int32_isolating,
        _past_int32_cli_mincut,
        _past_int32_cli_isolating,
    ],
    ids=["max-flow", "batch", "isolating", "cli-mincut", "cli-isolating"],
)
def test_scipy_agrees_with_dinic_past_int32(run, dinic, scipy_eng, tmp_path):
    # Capacities past int32, given or merged by contraction: SciPy runs those
    # instances through Dinic's flow and gives Dinic's answers.
    assert run(scipy_eng, tmp_path) == run(dinic, tmp_path)


def test_batches_group_consecutive_items_within_the_cap():
    cap = maxflow._BATCH_EDGES
    sizes = [cap // 2, cap // 4, cap // 4, 1, cap, 3, cap + 5, 0, 7]
    groups = list(maxflow.batches(sizes, lambda size: size))
    # An item over the cap is a group of its own, and a group closes only
    # when the next item would take it past the cap.
    assert groups == [[cap // 2, cap // 4, cap // 4], [1], [cap], [3], [cap + 5], [0, 7]]
    assert list(maxflow.batches([], len)) == []


def test_batches_read_each_size_once_the_item_is_drawn(monkeypatch):
    monkeypatch.setattr(maxflow, "_BATCH_EDGES", 4096)  # two items of 2000 edges a group
    drawn, read = [], []

    def built():
        for i in range(5):
            drawn.append(i)
            yield i

    def size_of(i):
        assert drawn[-1] == i  # drawn, and the next item not yet
        read.append(i)
        return 2000

    groups = maxflow.batches(built(), size_of)
    assert drawn == []
    assert next(groups) == [0, 1]
    assert drawn == read == [0, 1, 2]  # the group closed once item 2 was drawn
    assert list(groups) == [[2, 3], [4]]
    assert drawn == read == [0, 1, 2, 3, 4]


_CAP = maxflow._BATCH_EDGES


@pytest.mark.parametrize(
    "m", [0, 1, 7, _CAP, _CAP + 1, 5000], ids=["0", "1", "7", "cap", "cap+1", "5000"]
)
def test_batches_of_equal_flows_take_the_naive_steps(m):
    # The naive oracles' flows are all of the graph's m edges (at least 1):
    # they group in steps of max(1, cap // max(m, 1)) flows.
    items = list(range(2 * maxflow._BATCH_EDGES + 5))
    step = max(1, maxflow._BATCH_EDGES // max(m, 1))
    want = [items[i : i + step] for i in range(0, len(items), step)]
    assert list(maxflow.batches(items, lambda _: max(m, 1))) == want


def test_grid_anchor_batches_without_moving_the_run(scipy_eng, monkeypatch):
    """The benchmark's grid-8x8 anchor: batching changes engine calls, nothing else."""
    import scipy.sparse.csgraph as csgraph

    from cutkit import isolating, steiner

    g = generate(GeneratorSpec("grid", 64, rows=8))
    inst = SteinerInstance(g, g.full_set)
    cfg = AlgoConfig(phi=Fraction(1, 4), k=2)
    flows, chunks, per_round = [0], [0], []
    maximum_flow = csgraph.maximum_flow
    build_phase_b = isolating._build_phase_b
    unbalanced_case = steiner.unbalanced_case

    def counted(*args, **kwargs):
        flows[0] += 1
        return maximum_flow(*args, **kwargs)

    def chunk_counted(*args, **kwargs):
        # Phase B is built once per chunk.
        chunks[0] += 1
        return build_phase_b(*args, **kwargs)

    def round_run(*args, **kwargs):
        before = flows[0], chunks[0]
        cut, runs = unbalanced_case(*args, **kwargs)
        per_round.append((flows[0] - before[0], chunks[0] - before[1], runs))
        return cut, runs

    monkeypatch.setattr(csgraph, "maximum_flow", counted)
    monkeypatch.setattr(isolating, "_build_phase_b", chunk_counted)
    monkeypatch.setattr(steiner, "unbalanced_case", round_run)
    batched = steiner_mincut_det(scipy_eng, inst, cfg)
    assert flows[0] == batched.meter.engine_invocations
    # A round of C chunks takes at most C + 1 batches: each chunk's phase B
    # shares one with the next chunk's phase A.
    assert per_round and all(f <= 2 * c for f, c, _ in per_round)
    assert sum(c for _, c, _ in per_round) < sum(runs for _, _, runs in per_round)
    solved = sum(1 for n, m in batched.meter.calls if m and n > 2) - batched.meter.recalled
    assert flows[0] < solved

    solve_batch = ScipyEngine.solve_batch

    def one_by_one(instances):
        return [cut for inst in instances for cut in solve_batch([inst])]

    monkeypatch.setattr(ScipyEngine, "solve_batch", staticmethod(one_by_one))
    alone = steiner_mincut_det(scipy_eng, inst, cfg)
    assert alone.fingerprint() == batched.fingerprint()
    assert alone.meter.recalled == batched.meter.recalled
    assert alone.cut == batched.cut


def test_engine_invocations_count_flows_run(any_engine):
    g = gnp_graph(24, 0.3, seed=1)
    report = steiner_mincut_det(
        any_engine, SteinerInstance(g, g.full_set), AlgoConfig(phi=Fraction(1, 4), k=2)
    )
    meter = report.meter
    solved = sum(1 for n, m in meter.calls if m and n > 2) - meter.recalled
    if any_engine.name == "dinic":
        assert meter.engine_invocations == solved
    else:
        assert 0 < meter.engine_invocations < solved


def test_meter_snapshot_delta_merge(dinic):
    g = WeightedGraph(3, [(0, 1, 2), (1, 2, 3)])
    meter = FlowMeter()
    max_flow(dinic, g, 0, 2, meter)
    mark = meter.call_count
    max_flow(dinic, g, 0, 1, meter)
    assert meter.delta(mark) == [(3, 2)]
    assert meter.call_count == 2
    assert meter.aggregate_vertices == 6
    assert meter.aggregate_edges == 4
    assert meter.equivalent_calls == 2
    mark = meter.call_count
    for _ in range(3):
        meter.record(10, 20)
    meter.bundle(mark)
    assert meter.call_count == 5
    assert meter.equivalent_calls == 3
    # Bundling zero or one call changes nothing.
    empty = FlowMeter()
    empty.bundle(empty.call_count)
    assert (empty.call_count, empty.equivalent_calls) == (0, 0)
    mark = meter.call_count
    meter.bundle(mark)
    meter.record(10, 20)
    meter.bundle(mark)
    assert (meter.call_count, meter.equivalent_calls) == (6, 4)
    # A mark outside [0, call_count] is refused and changes nothing.
    one = FlowMeter()
    one.record(1, 0)
    for bad in (-1, 2, 5):
        with pytest.raises(InputError):
            one.bundle(bad)
    assert (one.call_count, one.equivalent_calls) == (1, 1)


def test_min_cut_separating_contracts_sides(any_engine):
    g = WeightedGraph(6, [(0, 1, 4), (1, 2, 1), (2, 3, 4), (3, 4, 4), (4, 5, 1), (5, 0, 4)])
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


def test_batched_instances_count_as_solved_and_repeats_as_recalled(any_engine):
    g = WeightedGraph(5, [(0, 1, 3), (1, 2, 1), (2, 3, 2), (3, 4, 3), (0, 2, 1)])
    a, b, bc = (VertexSet.from_ids(5, ids) for ids in ([0], [4], [3, 4]))
    pairs = [(a, b), (a, b), (a, bc)]
    meter = FlowMeter()

    def batched(pairs):
        quotients = [maxflow.separation_quotient(g, x, y) for x, y in pairs]
        maxflow.solve_ahead(any_engine, [(q, 0, 1) for q, _ in quotients], meter)
        cuts = [(max_flow(any_engine, q, 0, 1, meter), lift) for q, lift in quotients]
        return [Cut(maxflow.lift_side(cut.side, lift), cut.weight) for cut, lift in cuts]

    first = batched(pairs)
    again = batched(pairs[2:])
    alone = [min_cut_separating(any_engine, g, x, y, FlowMeter()) for x, y in pairs + pairs[2:]]
    assert first + again == alone
    # One repeat inside the batch, one across batches.
    assert (meter.call_count, meter.recalled, meter.solved) == (4, 2, 2)
    assert meter.engine_invocations == (2 if any_engine.name == "dinic" else 1)


def test_min_cut_separating_validation(dinic):
    g = WeightedGraph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
    with pytest.raises(InputError):
        min_cut_separating(dinic, g, VertexSet.empty(4), VertexSet.from_ids(4, [1]), FlowMeter())
    with pytest.raises(InputError):
        min_cut_separating(
            dinic, g, VertexSet.from_ids(4, [0, 1]), VertexSet.from_ids(4, [1]), FlowMeter()
        )


def test_dimacs_round_trip():
    g = WeightedGraph(4, [(0, 1, 5), (1, 3, 2)])
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
    faults = {
        "duplicate 'p' line": "p max 3 1\np max 5 1\nn 1 s\nn 3 t\na 1 2 3\n",
        "not an integer": "p max 3 foo\nn 1 s\nn 3 t\na 1 2 3\n",
        "declares 7 arcs, found 1": "p max 3 7\nn 1 s\nn 3 t\na 1 2 3\n",
        "'n' line before": "n 1 s\np max 3 1\nn 3 t\na 1 2 3\n",
        "'a' line before": "a 1 2 3\np max 3 1\nn 1 s\nn 3 t\n",
        "duplicate 'n <id> s'": "p max 3 1\nn 1 s\nn 2 s\nn 3 t\na 1 2 3\n",
        "duplicate 'n <id> t'": "p max 3 1\nn 1 s\nn 3 t\nn 2 t\na 1 2 3\n",
        "node line must be": "p max 3 1\nn 2\nn 1 s\nn 3 t\na 1 2 3\n",
        "arc line must be": "p max 3 1\nn 1 s\nn 3 t\na 1 2\n",
        "missing 'p max' header": "c only a comment\n",
    }
    for message, bad in faults.items():
        with pytest.raises(InputError, match=message):
            parse_dimacs(bad)
    for bad in ("p max x 1\n", "p max 3 1\nn y s\n", "p max 3 1\na 1 2 x\n"):
        with pytest.raises(InputError, match="not an integer"):
            parse_dimacs(bad)


def test_dimacs_antiparallel_arcs_add_up():
    # Both directions of an arc are one undirected edge of their summed
    # weight, so this flow is 10 where the directed network's is 5.
    text = "p max 3 4\nn 1 s\nn 3 t\na 1 2 5\na 2 1 5\na 2 3 7\na 3 2 7\n"
    g, s, t = parse_dimacs(text)
    assert g.edges == ((0, 1, 10), (1, 2, 14))
    assert max_flow(get_engine("dinic"), g, s, t, FlowMeter()).weight == 10


def test_write_dimacs_needs_two_distinct_vertices():
    g = WeightedGraph(2, [(0, 1, 3)])
    for s, t in ((0, 0), (0, 2), (-1, 1)):
        with pytest.raises(InputError, match="two distinct vertices"):
            write_dimacs(g, s, t)


_PINNED_COUNTERS = {
    # (graph, engine, driver): (fingerprint, recalled, engine_invocations, bundled)
    ("gnp24-all", "dinic", "det"): ("d16d94c309d21154", 34, 128, 143),
    ("gnp24-all", "dinic", "rand"): ("1b645df864a26009", 11, 261, 377),
    ("gnp24-all", "scipy", "det"): ("d16d94c309d21154", 34, 5, 143),
    ("gnp24-all", "scipy", "rand"): ("1b645df864a26009", 11, 3, 377),
    ("gnp30-third", "dinic", "det"): ("bbfd111afc5eb3a4", 54, 66, 45),
    ("gnp30-third", "dinic", "rand"): ("00b5de011acdae31", 5, 133, 129),
    ("gnp30-third", "scipy", "det"): ("bbfd111afc5eb3a4", 54, 3, 45),
    ("gnp30-third", "scipy", "rand"): ("00b5de011acdae31", 5, 3, 129),
    ("dumbbell32", "dinic", "det"): ("7f09ae172a3d6404", 101, 67, 183),
    ("dumbbell32", "dinic", "rand"): ("c87718c42b988e11", 167, 190, 560),
    ("dumbbell32", "scipy", "det"): ("7f09ae172a3d6404", 101, 5, 183),
    ("dumbbell32", "scipy", "rand"): ("c87718c42b988e11", 167, 4, 560),
}


def _pinned_instance(name: str) -> SteinerInstance:
    if name == "gnp24-all":
        g = gnp_graph(24, 0.3, seed=1)
        return SteinerInstance(g, g.full_set)
    if name == "gnp30-third":
        g = gnp_graph(30, 0.25, seed=4)
        return SteinerInstance(g, VertexSet.from_ids(30, range(0, 30, 3)))
    g = generate(GeneratorSpec("dumbbell", 32))
    return SteinerInstance(g, g.full_set)


@pytest.mark.parametrize("key", sorted(_PINNED_COUNTERS), ids="-".join)
def test_counters_outside_the_fingerprint_are_pinned(key):
    """recalled, engine_invocations and bundled, which the ledger does not cover."""
    name, engine, method = key
    driver = steiner_mincut_det if method == "det" else steiner_mincut_rand
    cfg = AlgoConfig(phi=Fraction(1, 4), k=2)
    report = driver(get_engine(engine), _pinned_instance(name), cfg)
    meter = report.meter
    got = (report.fingerprint(), meter.recalled, meter.engine_invocations, meter.bundled)
    assert got == _PINNED_COUNTERS[key]


@pytest.mark.parametrize("engine", ["dinic", "scipy"])
@pytest.mark.parametrize("method", ["det", "rand"])
@pytest.mark.parametrize("name", ["gnp24-all", "gnp30-third", "dumbbell32", "grid-8x8"])
def test_batch_cap_moves_only_scipy_engine_invocations(name, method, engine, monkeypatch):
    """The cap groups flows into batches; it changes no call, count or answer.

    grid-8x8 is perfbench's global-sparse anchor. On SciPy a larger cap
    glues more flows per ``maximum_flow`` call, so the invocations never
    rise with it; on Dinic each instance is one invocation at any cap.
    """
    if name == "grid-8x8":
        g = generate(GeneratorSpec("grid", 64, rows=8))
        inst = SteinerInstance(g, g.full_set)
    else:
        inst = _pinned_instance(name)
    driver = steiner_mincut_det if method == "det" else steiner_mincut_rand
    cfg = AlgoConfig(phi=Fraction(1, 4), k=2)
    counts, invocations = [], []
    for cap in sorted({1024, 4096, _CAP}):
        monkeypatch.setattr(maxflow, "_BATCH_EDGES", cap)
        report = driver(get_engine(engine), inst, cfg)
        meter = report.meter
        counts.append((report.fingerprint(), meter.calls, meter.recalled, meter.solved, meter.bundled))
        invocations.append(meter.engine_invocations)
    assert all(count == counts[0] for count in counts)
    if engine == "dinic":
        assert invocations == [counts[0][3]] * len(invocations)
    else:
        assert invocations == sorted(invocations, reverse=True)


def test_scipy_batch_memory_follows_its_glued_edges():
    """One batch at the production cap peaks under 100 traced bytes per glued edge.

    Measured about 76-82 bytes per edge on batches of gnp instances,
    about 57 of them inside SciPy's ``maximum_flow``; the glue arrays
    built before the flow die before it runs. With them alive through the
    flow, the same batches took 153-158 bytes per edge.
    """
    graphs, edges, seed = [], 0, 0
    while edges + 340 <= _CAP:
        graphs.append(gnp_graph(48, 0.3, seed=seed))
        edges += graphs[-1].m
        seed += 1
    batch = [(g, 0, 47) for g in graphs]
    ScipyEngine.solve_batch(batch[:1])  # SciPy's imports stay out of the measured run
    tracemalloc.start()
    try:
        cuts = ScipyEngine.solve_batch(batch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cuts == DinicEngine.solve_batch(batch)
    assert edges > _CAP // 2
    assert peak < 100 * edges

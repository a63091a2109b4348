import dataclasses
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import cutkit

from cutkit import (
    AlgoConfig,
    DecompositionError,
    FlowMeter,
    InputError,
    SteinerInstance,
    VertexSet,
    WeightedGraph,
    enumerate_cuts,
    global_mincut_det,
    minimum_isolating_cuts,
    naive_steiner,
    sparsify_terminals,
    steiner_mincut_det,
    steiner_mincut_rand,
    stoer_wagner,
    unbalanced_case,
)
from cutkit.generators import cycle_graph, dumbbell_graph, gnp_graph
from cutkit.steiner import _guess_ladder

from helpers import rand_graph, rand_terminals

BENCH_CFG = dict(phi=Fraction(1, 4), k=2)


def small_cfg(**kw):
    return AlgoConfig(**{**BENCH_CFG, **kw})


def test_config_defaults_and_thresholds():
    cfg = AlgoConfig()
    assert cfg.phi == Fraction(1, 16)
    assert cfg.k_effective() == 17**3
    assert AlgoConfig(phi=Fraction(1, 4)).k_effective() == 125
    assert AlgoConfig(phi=Fraction(1, 1)).k_effective() == 8
    assert AlgoConfig(k=7).k_effective() == 7
    assert cfg.reps_for(2) == 4
    assert cfg.reps_for(256) == 32
    assert AlgoConfig(rand_reps=3).reps_for(1000) == 3


def test_config_validation():
    with pytest.raises(InputError):
        AlgoConfig(phi=0.5)
    with pytest.raises(InputError):
        AlgoConfig(phi=Fraction(0))
    with pytest.raises(InputError):
        AlgoConfig(phi=Fraction(5, 4))
    with pytest.raises(InputError):
        AlgoConfig(k=1)
    with pytest.raises(InputError):
        AlgoConfig(rand_reps=0)
    bad_seeds = ({"seed": 1.5}, {"seed": True}, {"seed": "3"})
    for bad in ({"k": 3.0}, {"k": True}, {"rand_reps": 1.5}, {"rand_reps": True}, *bad_seeds):
        with pytest.raises(InputError):
            AlgoConfig(phi=Fraction(1, 4), **bad)


def test_config_stores_numpy_ints_as_python_ints():
    cfg = AlgoConfig(k=np.int64(3), rand_reps=np.int64(2), seed=np.int64(1))
    assert (cfg.k, cfg.rand_reps, cfg.seed) == (3, 2, 1)
    assert all(type(x) is int for x in (cfg.k, cfg.rand_reps, cfg.seed))


def test_readme_config_table_lists_every_field():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    lines = readme.read_text(encoding="utf-8").splitlines()
    start = lines.index("| field | default | meaning |") + 2
    names = []
    for line in lines[start:]:
        if not line.startswith("| `"):
            break
        names.append(line.split("`")[1])
    assert names == [f.name for f in dataclasses.fields(AlgoConfig)]


def test_guess_ladder_reaches_least_terminal_degree(dinic):
    # Powers of two from 1 to the first at or above the least terminal degree.
    g = dumbbell_graph(6)
    report = steiner_mincut_det(dinic, SteinerInstance(g, g.full_set), small_cfg())
    assert report.trace.lambda_guesses == (1, 2)
    heavy = dumbbell_graph(8, clique_weight=5, bridge_weight=2)
    least = min(int(heavy.degrees[v]) for v in range(8))
    report = steiner_mincut_det(dinic, SteinerInstance(heavy, heavy.full_set), small_cfg())
    ladder = report.trace.lambda_guesses
    assert ladder == tuple(1 << i for i in range(len(ladder)))
    assert ladder[-2] < least <= ladder[-1]
    assert _guess_ladder(WeightedGraph(2, [(0, 1, 1)]), VertexSet.full(2)) == (1,)


def test_unbalanced_case_star(dinic):
    g = WeightedGraph(5, [(0, v, 1) for v in range(1, 5)])
    terminals = VertexSet.from_ids(5, [1, 2, 3, 4])
    meter = FlowMeter()
    cut, family_sets = unbalanced_case(dinic, SteinerInstance(g, terminals), terminals, 2, meter)
    assert cut.weight == 1
    assert family_sets == 6
    assert meter.equivalent_calls == 13
    assert meter.equivalent_calls <= meter.call_count


def test_unbalanced_case_validation(dinic):
    g = cycle_graph(5)
    inst = SteinerInstance(g, g.full_set)
    with pytest.raises(InputError):
        unbalanced_case(dinic, inst, VertexSet.from_ids(5, [1]), 2, FlowMeter())
    with pytest.raises(InputError):
        unbalanced_case(dinic, inst, g.full_set, 0, FlowMeter())
    small = SteinerInstance(g, VertexSet.from_ids(5, [0, 1]))
    with pytest.raises(InputError):
        unbalanced_case(dinic, small, g.full_set, 2, FlowMeter())


def test_sparsify_dumbbell_picks_lowest_ids():
    g = dumbbell_graph(10)
    kept, dec = sparsify_terminals(g, g.full_set, Fraction(1, 4), 1)
    assert kept.members() == [0, 5]
    assert len(dec.clusters) == 2
    kept2, _ = sparsify_terminals(g, g.full_set, Fraction(1, 2), 1)
    assert kept2.members() == [0, 1, 2, 5, 6, 7]


def test_sparsify_respects_pool_support():
    g = dumbbell_graph(10)
    pool = VertexSet.from_ids(10, [3, 4, 8, 9])
    kept, dec = sparsify_terminals(g, pool, Fraction(1, 2), 2)
    assert kept.issubset(pool)
    assert kept.members() == [3, 8]
    with pytest.raises(InputError):
        sparsify_terminals(g, pool, Fraction(1, 4), 0)
    with pytest.raises(InputError):
        sparsify_terminals(g, VertexSet.from_ids(10, [2]), Fraction(1, 4), 1)


def test_det_pairwise_path_under_threshold(dinic):
    g = rand_graph(10, 3, p=0.5)
    t = rand_terminals(10, 4, 3)
    report = steiner_mincut_det(dinic, SteinerInstance(g, t))
    assert report.trace.pairwise_sizes == [4]
    assert report.meter.call_count == 3
    assert report.equivalent_calls == 3
    assert report.trace.lambda_guesses == ()


def test_det_matches_naive_default_cfg(dinic):
    for seed in range(25):
        g = rand_graph(9, seed, p=0.45)
        t = rand_terminals(9, 3 + seed % 4, seed)
        det = steiner_mincut_det(dinic, SteinerInstance(g, t))
        ref = naive_steiner(dinic, SteinerInstance(g, t))
        assert det.weight == ref.weight, seed
        assert det.cut.verify(g)


def test_det_matches_naive_small_k_cfg(dinic):
    for seed in range(25):
        g = rand_graph(9, seed + 200, p=0.5)
        t = rand_terminals(9, 4 + seed % 5, seed + 200)
        det = steiner_mincut_det(dinic, SteinerInstance(g, t), small_cfg())
        ref = naive_steiner(dinic, SteinerInstance(g, t))
        assert det.weight == ref.weight, seed
        assert det.equivalent_calls <= det.meter.call_count


def test_det_small_k_engines_agree(dinic, scipy_eng):
    g = gnp_graph(10, 0.5, seed=77)
    t = g.full_set
    a = steiner_mincut_det(dinic, SteinerInstance(g, t), small_cfg())
    b = steiner_mincut_det(scipy_eng, SteinerInstance(g, t), small_cfg())
    assert a.fingerprint() == b.fingerprint()


def test_det_trace_structure_small_k(dinic):
    g = dumbbell_graph(8)
    report = steiner_mincut_det(dinic, SteinerInstance(g, g.full_set), small_cfg())
    assert report.weight == 1
    trace = report.trace
    assert trace.lambda_guesses == (1, 2, 4)
    assert len(trace.guess_traces) == 3
    for gtrace in trace.guess_traces:
        assert gtrace.outcome in (
            "completed",
            "decomposition-failed",
            "collapsed",
            "not-halved",
        )
        assert gtrace.rounds
        assert gtrace.rounds[0].u_size == 8
    assert report.equivalent_calls <= report.meter.call_count


def test_det_fallback_repairs_dead_guess(dinic):
    g = dumbbell_graph(8)
    report = steiner_mincut_det(dinic, SteinerInstance(g, g.full_set), small_cfg())
    assert report.weight == 1
    assert report.trace.fallback_runs == [(1, 8)]


def test_det_memoizes_repeated_pools(dinic):
    g = cycle_graph(8)
    inst = SteinerInstance(g, g.full_set)
    report = steiner_mincut_det(dinic, inst, small_cfg())
    round0 = [t.rounds[0] for t in report.trace.guess_traces]
    assert len(round0) >= 2
    total_round0_eq = sum(r.family_sets for r in round0)
    assert report.meter.call_count < 2 * total_round0_eq + 60


def test_det_zero_cut_disconnected(dinic):
    g = WeightedGraph(6, [(0, 1, 2), (1, 2, 1), (3, 4, 2), (4, 5, 1)])
    t = VertexSet.from_ids(6, [0, 4])
    report = steiner_mincut_det(dinic, SteinerInstance(g, t))
    assert report.weight == 0
    assert report.trace.zero_cut
    assert report.meter.call_count == 0
    assert report.cut.side.members() == [0, 1, 2]
    assert report.trace.lambda_guesses == ()


def test_terminals_in_one_component_of_disconnected_graph(dinic, scipy_eng):
    # The zero-cut check must not fire when the other component holds no terminal.
    left = gnp_graph(10, 0.5, seed=3)
    edges = [*left.edges, *((u + 10, v + 10, w) for u, v, w in dumbbell_graph(8).edges)]
    g = WeightedGraph(18, edges)
    t = VertexSet.from_ids(18, [10, 12, 15, 17])
    inst = SteinerInstance(g, t)
    ref = enumerate_cuts(g, terminals=t).weight
    assert ref == 1
    for engine in (dinic, scipy_eng):
        assert naive_steiner(engine, inst).weight == ref
        for report in (
            steiner_mincut_det(engine, inst),
            steiner_mincut_det(engine, inst, small_cfg()),
            steiner_mincut_rand(engine, inst),
        ):
            assert not report.trace.zero_cut
            assert report.weight == ref


def test_det_fingerprint_stable(dinic):
    g = rand_graph(9, 12, p=0.5)
    t = rand_terminals(9, 5, 12)
    a = steiner_mincut_det(dinic, SteinerInstance(g, t))
    b = steiner_mincut_det(dinic, SteinerInstance(g, t))
    assert a.fingerprint() == b.fingerprint()
    assert len(a.fingerprint()) == 16


def test_rand_matches_naive(dinic):
    for seed in range(15):
        g = rand_graph(9, seed + 400, p=0.5)
        t = rand_terminals(9, 4 + seed % 4, seed + 400)
        rnd = steiner_mincut_rand(dinic, SteinerInstance(g, t))
        ref = naive_steiner(dinic, SteinerInstance(g, t))
        assert rnd.weight == ref.weight, seed
        assert rnd.equivalent_calls <= rnd.meter.call_count + 1


def test_rand_trace_and_reproducibility(dinic):
    g = gnp_graph(10, 0.5, seed=31)
    t = VertexSet.from_ids(10, [0, 2, 4, 6, 8])
    inst = SteinerInstance(g, t)
    a = steiner_mincut_rand(dinic, inst)
    b = steiner_mincut_rand(dinic, inst)
    assert a.fingerprint() == b.fingerprint()
    assert a.trace.samples[0] == (0, 0, 5, True)
    repeats = [s for s in a.trace.samples if s[0] == 0][1:]
    assert all(not fresh for _, _, _, fresh in repeats)
    other = steiner_mincut_rand(dinic, inst, AlgoConfig(seed=9))
    assert other.weight == a.weight


def test_rand_zero_cut(dinic):
    g = WeightedGraph(4, [(0, 1, 1), (2, 3, 1)])
    report = steiner_mincut_rand(dinic, SteinerInstance(g, VertexSet.from_ids(4, [1, 3])))
    assert report.weight == 0
    assert report.trace.zero_cut


def test_global_matches_stoer_wagner(dinic):
    for seed in range(20):
        g = rand_graph(8, seed + 300, p=0.4)
        report = global_mincut_det(dinic, g)
        assert report.weight == stoer_wagner(g).weight, seed
    with pytest.raises(InputError):
        global_mincut_det(dinic, WeightedGraph(1, []))


def test_dumbbell_40_with_20_cliques_matches_stoer_wagner(scipy_eng):
    # Each half is K20, right at the exhaustive limit, so every decomposition
    # certifies both 20-cliques by exhaustive search.
    g = dumbbell_graph(40)
    report = global_mincut_det(scipy_eng, g, small_cfg())
    assert report.weight == stoer_wagner(g).weight
    assert report.cut.verify(g)


def test_global_small_k_on_structured(dinic):
    for g in (dumbbell_graph(12), cycle_graph(9), dumbbell_graph(8, bridge_weight=2)):
        report = global_mincut_det(dinic, g, small_cfg())
        assert report.weight == stoer_wagner(g).weight
        assert report.cut.verify(g)


def test_weighted_instances_exact(dinic):
    for seed in range(10):
        g = gnp_graph(9, 0.55, seed=seed, w_min=2, w_max=9)
        t = rand_terminals(9, 4, seed)
        inst = SteinerInstance(g, t)
        det = steiner_mincut_det(dinic, inst, small_cfg())
        rnd = steiner_mincut_rand(dinic, inst)
        ref = naive_steiner(dinic, inst)
        assert det.weight == ref.weight == rnd.weight, seed


def test_drivers_on_merged_weights_beyond_edge_limit(dinic):
    # Two parallel 2^40 edges merge into one edge above the per-edge limit;
    # every graph derived from it must still build.
    w = 1 << 40
    g = WeightedGraph(3, [(0, 1, w), (0, 1, w), (1, 2, 5)])
    assert stoer_wagner(g).weight == 5
    inst = SteinerInstance(g, g.full_set)
    assert steiner_mincut_det(dinic, inst, small_cfg()).weight == 5
    assert steiner_mincut_rand(dinic, inst, small_cfg()).weight == 5
    terminals = VertexSet.from_ids(3, [0, 2])
    iso = minimum_isolating_cuts(dinic, g, terminals, FlowMeter())
    assert iso.best().cut.weight == 5


def test_det_heavy_triangle_abandons_guess_past_demand_limit(dinic):
    # 2^19 + 1 parallel 2^40 edges per pair: each triangle edge weighs
    # 2^59 + 2^40 and the total stays below 2^62. The ladder's top guess,
    # 2^61, on a pool of 3 asks for demand 3 * 2^61 > 2^62, so that guess
    # fails its decomposition instead of the driver raising.
    w = 1 << 40
    copies = (1 << 19) + 1
    g = WeightedGraph(3, [(0, 1, w), (1, 2, w), (0, 2, w)] * copies)
    assert g.total_weight == 3 * ((1 << 59) + w) < 1 << 62
    report = steiner_mincut_det(dinic, SteinerInstance(g, g.full_set), small_cfg())
    assert report.weight == stoer_wagner(g).weight == 2 * ((1 << 59) + w)
    outcomes = [t.outcome for t in report.trace.guess_traces]
    assert outcomes == ["collapsed"] * 61 + ["decomposition-failed"]
    with pytest.raises(DecompositionError):
        sparsify_terminals(g, g.full_set, Fraction(1, 4), 1 << 61)


def test_dinic_solve_imports_no_scipy():
    # SciPy costs the Dinic path memory and start-up time it never uses.
    code = (
        "import sys\n"
        "from cutkit import SteinerInstance, VertexSet, get_engine, steiner_mincut_det\n"
        "from cutkit.generators import gnp_graph\n"
        "g = gnp_graph(12, 0.4, seed=3)\n"
        "inst = SteinerInstance(g, VertexSet.from_ids(12, [0, 3, 7, 11]))\n"
        "steiner_mincut_det(get_engine('dinic'), inst)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(cutkit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


@pytest.mark.xfail(
    strict=True,
    reason="sparsify_terminals thins uncertified clusters, so a missed sparse cut loses the answer",
)
def test_det_stays_exact_when_the_spectral_heuristic_misses_every_cut(scipy_eng, monkeypatch):
    from cutkit.bench import bench_graph, default_bench_config

    g = bench_graph("dumbbell", 80)
    monkeypatch.setattr("cutkit.expander._heuristic_violating", lambda graph, d, phi, memo: None)
    report = steiner_mincut_det(scipy_eng, SteinerInstance(g, g.full_set), default_bench_config())
    assert report.weight == stoer_wagner(g).weight

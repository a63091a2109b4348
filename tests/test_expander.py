import hashlib
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from cutkit import (
    AlgoConfig,
    ContractViolation,
    DemandVector,
    InputError,
    ScipyEngine,
    SteinerInstance,
    VertexSet,
    WeightedGraph,
    augmented_demands,
    cut_weight,
    expander_decompose,
    global_mincut_det,
    induced_subgraph,
    sparsify_terminals,
    sparsity,
    steiner_mincut_det,
    verify_expander,
)
from cutkit.bench import bench_graph, default_bench_config
from cutkit.expander import (
    EXHAUSTIVE_LIMIT,
    ExpanderCheck,
    _exhaustive_violating,
    _mask_order,
    _spectral_search,
)
from cutkit.generators import clique_graph, cycle_graph, dumbbell_graph, gnp_graph
from cutkit.graph import contract
from cutkit.steiner import _guess_ladder

from helpers import clusters_cut_by, rand_graph, split_terminal_sum


def two_triangles_bridge():
    return WeightedGraph(
        6,
        [(0, 1, 2), (1, 2, 2), (0, 2, 2), (3, 4, 2), (4, 5, 2), (3, 5, 2), (2, 3, 1)],
    )


def test_demand_vector_validation():
    with pytest.raises(InputError):
        DemandVector((1, -1))
    for bad in ((1.5, 2), (True, 2)):
        with pytest.raises(InputError, match="nonnegative integers"):
            DemandVector(bad)
    d = DemandVector.uniform(4, 3)
    assert d.total == 12
    assert d.mass(VertexSet.from_ids(4, [0, 2])) == 6
    sup = DemandVector.uniform(4, 3, support=VertexSet.from_ids(4, [1, 3]))
    assert sup.values == (0, 3, 0, 3)
    with pytest.raises(InputError):
        DemandVector.uniform(4, 1, support=VertexSet.from_ids(5, [0]))


def test_degree_demands():
    g = WeightedGraph(3, [(0, 1, 2), (1, 2, 5)])
    assert DemandVector.degrees(g).values == (2, 7, 5)


def test_sparsity_on_clique():
    g = clique_graph(4)
    d = DemandVector.degrees(g)
    assert sparsity(g, VertexSet.from_ids(4, [0]), d) == Fraction(1)
    assert sparsity(g, VertexSet.from_ids(4, [0, 1]), d) == Fraction(2, 3)


def test_sparsity_none_without_demand():
    g = cycle_graph(4)
    d = DemandVector.uniform(4, 1, support=VertexSet.from_ids(4, [0, 1]))
    assert sparsity(g, VertexSet.from_ids(4, [2]), d) is None
    assert sparsity(g, VertexSet.from_ids(4, [1, 2]), d) == Fraction(2, 1)


def test_verify_accepts_clique():
    g = clique_graph(6)
    check = verify_expander(g, DemandVector.degrees(g), Fraction(1, 3))
    assert check.ok and check.certified
    assert check.witness is None


def test_verify_refutes_bridge_graph():
    g = two_triangles_bridge()
    check = verify_expander(g, DemandVector.uniform(6, 1), Fraction(1, 2))
    assert not check.ok
    assert check.certified
    assert check.witness.members() == [0, 1, 2]
    assert check.witness_sparsity == Fraction(1, 3)


def test_verify_exact_beyond_int64_products():
    # cross * phi.denominator reaches 2^71 here, beyond int64.
    w, phi = 1 << 40, Fraction(1, 1 << 30)
    cycle = WeightedGraph(4, [(0, 1, w), (1, 2, w), (2, 3, w), (0, 3, w)])
    check = verify_expander(cycle, DemandVector.uniform(4, w), phi)
    assert check.ok and check.certified
    assert check.witness is None
    heavy = [(u, v, w) for u, v, _ in two_triangles_bridge().edges if (u, v) != (2, 3)]
    bridged = WeightedGraph(6, heavy + [(2, 3, 1)])
    check = verify_expander(bridged, DemandVector.uniform(6, w), phi)
    assert not check.ok and check.certified
    assert check.witness.members() == [0, 1, 2]
    assert check.witness_sparsity == Fraction(1, 3 * w)


def test_verify_rejects_a_witness_that_does_not_violate(monkeypatch):
    # Past EXHAUSTIVE_LIMIT the heuristic runs; {0, 1, 2} of the bridged
    # triangles has sparsity 1/3, which is not below phi = 1/4.
    monkeypatch.setattr("cutkit.expander.EXHAUSTIVE_LIMIT", 4)
    monkeypatch.setattr("cutkit.expander._heuristic_violating", lambda graph, d, phi, memo: 0b111)
    g = two_triangles_bridge()
    with pytest.raises(ContractViolation, match="not sparser than phi"):
        verify_expander(g, DemandVector.uniform(6, 1), Fraction(1, 4))
    check = verify_expander(g, DemandVector.uniform(6, 1), Fraction(1, 2))
    assert not check.ok and not check.certified
    assert check.witness_sparsity == Fraction(1, 3)


def test_verify_witness_is_sparsest_cut():
    g = rand_graph(8, 4, p=0.5)
    d = DemandVector.degrees(g)
    check = verify_expander(g, d, Fraction(1, 1))
    if check.ok:
        pytest.skip("random draw was an expander at phi=1")
    best = min(
        (
            sparsity(g, VertexSet(8, mask), d)
            for mask in range(1, (1 << 8) - 1)
            if sparsity(g, VertexSet(8, mask), d) is not None
        ),
    )
    assert check.witness_sparsity == best


def test_phi_validation():
    g = clique_graph(3)
    d = DemandVector.degrees(g)
    with pytest.raises(InputError):
        verify_expander(g, d, Fraction(0))
    with pytest.raises(InputError):
        verify_expander(g, d, Fraction(3, 2))
    with pytest.raises(InputError):
        verify_expander(g, d, 0.5)


def test_graphs_without_a_proper_cut_verify_at_any_limit(monkeypatch):
    for limit in (0, 1, EXHAUSTIVE_LIMIT):
        monkeypatch.setattr("cutkit.expander.EXHAUSTIVE_LIMIT", limit)
        for n in (0, 1):
            check = verify_expander(WeightedGraph(n, []), DemandVector.uniform(n, 1), Fraction(1, 2))
            assert check == ExpanderCheck(True, True, None, None)


def test_decompose_splits_dumbbell():
    g = dumbbell_graph(10)
    dec = expander_decompose(g, DemandVector.uniform(10, 1), Fraction(1, 2))
    assert [c.members() for c in dec.clusters] == [[0, 1, 2, 3, 4], [5, 6, 7, 8, 9]]
    assert dec.inter_weight == 1
    assert dec.certified == (True, True)
    assert dec.splits == 1
    assert dec.inter_weight <= dec.budget


def test_decompose_keeps_expander_whole():
    g = clique_graph(8)
    dec = expander_decompose(g, DemandVector.degrees(g), Fraction(1, 4))
    assert len(dec.clusters) == 1
    assert dec.inter_weight == 0
    assert dec.splits == 0


def test_decompose_cluster_cuts_not_sparse():
    g = rand_graph(12, 2, p=0.3)
    d = DemandVector.uniform(12, 2)
    phi = Fraction(1, 3)
    dec = expander_decompose(g, d, phi)
    for cluster, certified in zip(dec.clusters, dec.certified):
        assert certified
        if len(cluster) == 1:
            continue
        sub, ids = induced_subgraph(g, cluster)
        aug = augmented_demands(g, cluster, d)
        aug_vec = DemandVector(tuple(aug))
        for r in range(1, len(ids)):
            for combo in itertools.combinations(range(len(ids)), r):
                s = VertexSet.from_ids(sub.n, combo)
                val = sparsity(sub, s, aug_vec)
                assert val is None or val >= phi, (cluster.members(), combo)


def test_augmentation_identity():
    g = rand_graph(10, 6, p=0.4)
    d = DemandVector.uniform(10, 3)
    cluster = VertexSet.from_ids(10, [0, 2, 3, 7, 8])
    aug = augmented_demands(g, cluster, d)
    boundary = cut_weight(g, cluster)
    base = [d.values[v] for v in cluster.members()]
    assert sum(a - b for a, b in zip(aug, base)) == boundary


def test_augmented_demands_exact_beyond_float():
    # The centre's boundary weight is odd and above 2^53, which float64 rounds.
    leaves = (1 << 13) + 1
    edges = [(0, v, 1 << 40) for v in range(1, leaves)] + [(0, leaves, 1)]
    g = WeightedGraph(leaves + 1, edges)
    d = DemandVector.uniform(g.n, 1)
    cluster = VertexSet.from_ids(g.n, [0, 1])
    aug = augmented_demands(g, cluster, d)
    assert aug == [1 + (1 << 53) + 1 - (1 << 40), 1]
    assert all(type(a) is int for a in aug)
    assert sum(aug) - 2 == cut_weight(g, cluster)
    assert DemandVector.degrees(g).values[0] == (1 << 53) + 1


def test_decompose_heuristic_above_limit():
    g = dumbbell_graph(50)
    dec = expander_decompose(g, DemandVector.uniform(50, 1), Fraction(1, 2))
    assert len(dec.clusters) == 2
    assert dec.certified == (False, False)
    halves = {tuple(c.members()) for c in dec.clusters}
    assert tuple(range(25)) in halves
    assert tuple(range(25, 50)) in halves
    assert dec.inter_weight == 1


def test_decompose_budget_formula_and_validation():
    g = dumbbell_graph(10)
    d = DemandVector.uniform(10, 1)
    dec = expander_decompose(g, d, Fraction(1, 2))
    lg = 9 .bit_length()
    assert dec.budget == Fraction(1, 2) * d.total * lg * lg
    with pytest.raises(InputError):
        expander_decompose(g, DemandVector.uniform(9, 1), Fraction(1, 2))


def test_decompose_deterministic():
    g = rand_graph(14, 11, p=0.3)
    d = DemandVector.uniform(14, 1)
    a = expander_decompose(g, d, Fraction(1, 2))
    b = expander_decompose(g, d, Fraction(1, 2))
    assert a.clusters == b.clusters
    assert a.inter_weight == b.inter_weight


def test_cluster_cut_helpers():
    clusters = (
        VertexSet.from_ids(6, [0, 1, 2]),
        VertexSet.from_ids(6, [3, 4]),
        VertexSet.from_ids(6, [5]),
    )
    side = VertexSet.from_ids(6, [0, 1, 3])
    assert clusters_cut_by(clusters, side) == 2
    terminals = VertexSet.from_ids(6, [0, 1, 3, 4, 5])
    assert split_terminal_sum(clusters, terminals, side) == 1
    assert split_terminal_sum(clusters, terminals, VertexSet.from_ids(6, [5])) == 0


def sparsest_violating_by_mask(graph, demands, phi):
    """Per-mask reference for _exhaustive_violating, in Python ints throughout."""
    n, total = graph.n, sum(demands)
    best_key, best_mask = None, None
    for mask in range(1, (1 << n) - 1):
        side = VertexSet(n, mask)
        d_in = sum(demands[v] for v in side)
        denom = min(d_in, total - d_in)
        cross = cut_weight(graph, side)
        if denom == 0 or cross >= phi * denom:
            continue
        key = (Fraction(cross, denom), mask.bit_count(), side.members())
        if best_key is None or key < best_key:
            best_key, best_mask = key, mask
    return best_mask


def test_exhaustive_doubling_matches_per_mask_reference():
    rng = random.Random(2024)
    found = 0
    for _ in range(200):
        n = rng.randint(0, 12)
        w_max = 1 << rng.choice((0, 3, 20, 40))
        p = rng.random()
        edges = [
            (u, v, rng.randint(1, w_max))
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < p
        ]
        g = WeightedGraph(n, edges)
        d_max = 1 << rng.choice((0, 4, 30))
        demands = [rng.choice((0, rng.randint(1, d_max))) for _ in range(n)]
        den = rng.randint(1, 1 << rng.choice((2, 30, 62)))
        phi = Fraction(rng.randint(1, den), den)
        expected = sparsest_violating_by_mask(g, demands, phi)
        found_mask = _exhaustive_violating(g, demands, phi)
        assert found_mask == expected, (n, edges, demands, phi)
        found += expected is not None
    # Both answers must be well represented, or the comparison shows little.
    assert 40 <= found <= 160


def test_exhaustive_ties_go_to_fewer_vertices_then_lower_ids():
    for n in range(9):
        keys = _mask_order(np.arange(1 << n, dtype=np.int64), n).tolist()
        by_key = sorted(range(1 << n), key=keys.__getitem__)
        assert by_key == sorted(range(1 << n), key=lambda m: (m.bit_count(), VertexSet(n, m).members()))
    # Under uniform demand 100 every half of K20 has sparsity 100 / 1000,
    # and the C(20, 10) tied halves resolve to the lowest ids.
    check = verify_expander(clique_graph(20), DemandVector.uniform(20, 100), Fraction(1, 4))
    assert check.witness == VertexSet.from_ids(20, range(10))
    assert check.witness_sparsity == Fraction(1, 10)


def heavy_quotient(groups: int, extra: int, rng: random.Random):
    """Contract `groups` blocks of 91 vertices, joined block to block by edges
    just under 2^40, so every merged block-to-block weight passes 2^53."""
    size = 91
    n = groups * size + extra
    edges = [
        (a * size + i, b * size + j, (1 << 40) - rng.randint(0, 1 << 20))
        for a in range(groups)
        for b in range(a + 1, groups)
        for i in range(size)
        for j in range(size)
    ]
    edges += [(rng.randrange(n), groups * size + x, rng.randint(1, 1 << 40)) for x in range(extra)]
    labels = [v // size for v in range(groups * size)] + list(range(groups, groups + extra))
    return contract(WeightedGraph(n, edges), labels)


def test_spectral_search_triples_are_exact():
    rng = random.Random(17)
    cases = []
    for _ in range(150):
        n = rng.randint(2, 40)
        w_max = 1 << rng.choice((0, 3, 20, 40))
        p = rng.random()
        edges = [
            (u, v, rng.randint(1, w_max))
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < p
        ]
        d_max = 1 << rng.choice((0, 4, 30))
        demands = tuple(rng.choice((0, rng.randint(1, d_max))) for _ in range(n))
        cases.append((WeightedGraph(n, edges), demands))
    for groups in (2, 3, 4):
        for extra in (0, 2, 5):
            g = heavy_quotient(groups, extra, rng)
            assert int(g.edge_arrays[2].max()) > 1 << 53
            cases.append((g, tuple(rng.randint(1, 1 << 30) for _ in range(g.n))))
    found = heavy = 0
    for g, demands in cases:
        result = _spectral_search(g, demands, {})
        if result is None:
            continue
        mask, cross, denominator = result
        side = VertexSet(g.n, mask)
        assert type(cross) is int and cross == cut_weight(g, side), (g.n, demands)
        d_in = sum(demands[v] for v in side)
        assert denominator == min(d_in, sum(demands) - d_in) > 0
        found += 1
        heavy += cross > 1 << 53
    # Most searches must return a cut, and the block-only quotients' cuts
    # must carry merged weights past 2^53.
    assert found >= 120 and heavy >= 3


def test_spectral_search_choices_are_pinned():
    """Every triple the search returns on a seeded corpus, digested.

    Weights reach 2^40, demands 2^40, and unit weights with equal demands
    give many tied sweep ratios, so a change to the choice or its tie
    order moves the digest.
    """
    rng = random.Random(21)
    results = []
    for _ in range(150):
        n = rng.randint(2, 80)
        w_max = 1 << rng.choice((0, 1, 8, 40))
        p = rng.choice((0.1, 0.3, 0.7, 1.0))
        edges = [
            (u, v, rng.randint(1, w_max))
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < p
        ]
        d_max = 1 << rng.choice((0, 2, 20, 40))
        demands = tuple(rng.choice((0, rng.randint(1, d_max), d_max)) for _ in range(n))
        results.append(_spectral_search(WeightedGraph(n, edges), demands, {}))
    assert sum(r is not None for r in results) == 149
    digest = hashlib.sha256(repr(results).encode()).hexdigest()[:16]
    assert digest == "7929ec820e22ecc4"


_BENCH_FINGERPRINTS = {
    ("dumbbell", 64): "f194410c9197f24b",
    ("dumbbell", 256): "113942b2e7aaf3fe",
    ("cycle", 64): "ffa9d716099c14a3",
    ("cycle", 256): "9d51f2619c5b8a52",
    ("grid", 64): "b695e0558dbaf296",
    ("grid", 256): "05da439176e7993a",
    ("gnp", 64): "7eec5d8701e0aec9",
    ("gnp", 256): "b77fd3e8ad4c8d33",
}


@pytest.mark.parametrize("family, n", sorted(_BENCH_FINGERPRINTS))
def test_bench_scale_det_fingerprints_are_pinned(family, n):
    """Det on bench instances whose thinning runs both the spectral and the
    exhaustive search."""
    report = global_mincut_det(ScipyEngine(), bench_graph(family, n), default_bench_config())
    assert report.fingerprint() == _BENCH_FINGERPRINTS[family, n]


def decomposition_fields(dec):
    return dec.clusters, dec.certified, dec.splits, dec.inter_weight


def test_shared_memo_matches_fresh_memo_on_every_guess():
    rng = random.Random(11)
    for seed in range(3):
        n = rng.randint(21, 48)
        g = rand_graph(n, seed, p=rng.choice((0.1, 0.2)))
        pool = VertexSet.from_ids(n, rng.sample(range(n), rng.randint(2, n)))
        phi = Fraction(1, rng.choice((2, 4, 16)))
        memo: dict = {}
        for k in range(41):
            demands = DemandVector.uniform(n, 1 << k, support=pool)
            shared = expander_decompose(g, demands, phi, memo=memo)
            fresh = expander_decompose(g, demands, phi)
            assert decomposition_fields(shared) == decomposition_fields(fresh), (seed, k)
        assert memo


@pytest.fixture
def eigh_calls(monkeypatch):
    """Sizes of the matrices cutkit.expander hands to np.linalg.eigh, in order."""
    sizes = []
    real = np.linalg.eigh

    def counting(a):
        sizes.append(a.shape[0])
        return real(a)

    monkeypatch.setattr("cutkit.expander.np.linalg.eigh", counting)
    return sizes


def test_one_memo_entry_answers_both_ways(eigh_calls):
    # The bridge of a 24-vertex dumbbell has sparsity 6 / (12 * lam) under
    # uniform demand lam: not below 1/4 at lam = 1, below it at lam = 4.
    # The two 12-vertex halves are searched exhaustively, not memoized.
    g = dumbbell_graph(24, bridge_weight=6)
    memo: dict = {}
    small = expander_decompose(g, DemandVector.uniform(24, 1), Fraction(1, 4), memo=memo)
    assert small.splits == 0 and small.certified == (False,)
    large = expander_decompose(g, DemandVector.uniform(24, 4), Fraction(1, 4), memo=memo)
    assert large.splits == 1 and large.inter_weight == 6
    assert large.clusters == (
        VertexSet.from_ids(24, range(12)),
        VertexSet.from_ids(24, range(12, 24)),
    )
    # One search entry for the one demand pattern, and the graph's sweep.
    assert [key for key in memo if len(key) == 3] == [(24, g.digest, (1,) * 24)]
    assert [key for key in memo if len(key) == 2] == [(24, g.digest)]
    assert eigh_calls == [24]


def test_guess_ladder_without_split_searches_once(eigh_calls):
    # In K24 at phi = 1/4 no cut is sparse below lam = 48, past the ladder's top.
    g = clique_graph(24)
    memo: dict = {}
    guesses = _guess_ladder(g, g.full_set)
    assert len(guesses) > 1
    for guess in guesses:
        _, dec = sparsify_terminals(g, g.full_set, Fraction(1, 4), guess, memo)
        assert dec.splits == 0
    assert sorted(memo, key=len) == [(24, g.digest), (24, g.digest, (1,) * 24)]
    assert eigh_calls == [24]


def test_shared_sweep_memo_matches_fresh_memo():
    """Demand vectors that differ in support or only in scale share one
    graph's sweep, and each search answers as with a fresh memo."""
    rng = random.Random(30)
    for seed in range(6):
        n = rng.randint(EXHAUSTIVE_LIMIT + 1, 60)
        g = gnp_graph(n, rng.choice((0.1, 0.3)), seed=seed, w_max=1 << rng.choice((3, 40)))
        base = [rng.randint(1, 1 << 20) for _ in range(n)]
        demand_vectors = [tuple(base)]
        for scale in (2, 3, 1 << 19):
            demand_vectors.append(tuple(d * scale for d in base))
        for _ in range(3):
            support = set(rng.sample(range(n), rng.randint(2, n - 1)))
            thinned = tuple(d if v in support else 0 for v, d in enumerate(base))
            demand_vectors += [thinned, tuple(5 * d for d in thinned)]
            demand_vectors.append(tuple(int(v in support) for v in range(n)))
        shared: dict = {}
        for demands in demand_vectors:
            assert _spectral_search(g, demands, shared) == _spectral_search(g, demands, {})
        assert list(shared) == [(n, g.digest)]


def test_det_run_decomposes_each_searched_graph_once(eigh_calls, monkeypatch):
    """A steiner-subset-shaped det run: 20 of 320 sparse-gnp vertices.

    Its thinned pool searches the same cluster graph under a second demand
    pattern, which must reuse the first pattern's eigendecomposition.
    """
    searched = []

    def recording(graph, demands, memo):
        searched.append((graph.n, graph.digest, demands))
        return _spectral_search(graph, demands, memo)

    monkeypatch.setattr("cutkit.expander._spectral_search", recording)
    g = gnp_graph(320, 6 / 320, seed=0)
    terminals = VertexSet.from_ids(320, random.Random(0).sample(range(320), 20))
    cfg = AlgoConfig(phi=Fraction(1, 4), k=2)
    steiner_mincut_det(ScipyEngine(), SteinerInstance(g, terminals), cfg)
    graphs = {(n, digest) for n, digest, _ in searched}
    assert len(searched) > len(graphs)
    assert len(eigh_calls) == len(graphs)

import itertools
import random
from fractions import Fraction

import pytest

from cutkit import (
    ContractViolation,
    DemandVector,
    InputError,
    SteinerInstance,
    VertexSet,
    approx_mincut_estimate,
    augmented_demands,
    build_graph,
    clusters_cut_by,
    cut_weight,
    expander_decompose,
    induced_subgraph,
    sparsify_terminals,
    sparsity,
    split_terminal_sum,
    verify_expander,
)
from cutkit.expander import EXHAUSTIVE_LIMIT, ExpanderCheck, _exhaustive_violating
from cutkit.generators import clique_graph, cycle_graph, dumbbell_graph

from helpers import rand_graph


def two_triangles_bridge():
    return build_graph(
        6,
        [(0, 1, 2), (1, 2, 2), (0, 2, 2), (3, 4, 2), (4, 5, 2), (3, 5, 2), (2, 3, 1)],
    )


def test_demand_vector_validation():
    with pytest.raises(InputError):
        DemandVector((1, -1))
    with pytest.raises(InputError):
        DemandVector((1.5, 2))
    d = DemandVector.uniform(4, 3)
    assert d.total == 12
    assert d.mass(VertexSet.from_ids(4, [0, 2])) == 6
    sup = DemandVector.uniform(4, 3, support=VertexSet.from_ids(4, [1, 3]))
    assert sup.values == (0, 3, 0, 3)
    with pytest.raises(InputError):
        DemandVector.uniform(4, 1, support=VertexSet.from_ids(5, [0]))


def test_degree_demands():
    g = build_graph(3, [(0, 1, 2), (1, 2, 5)])
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
    cycle = build_graph(4, [(0, 1, w), (1, 2, w), (2, 3, w), (0, 3, w)])
    check = verify_expander(cycle, DemandVector.uniform(4, w), phi)
    assert check.ok and check.certified
    assert check.witness is None
    heavy = [(u, v, w) for u, v, _ in two_triangles_bridge().edges if (u, v) != (2, 3)]
    bridged = build_graph(6, heavy + [(2, 3, 1)])
    check = verify_expander(bridged, DemandVector.uniform(6, w), phi)
    assert not check.ok and check.certified
    assert check.witness.members() == [0, 1, 2]
    assert check.witness_sparsity == Fraction(1, 3 * w)


def test_verify_rejects_a_witness_that_does_not_violate(monkeypatch):
    # Past certify_limit the heuristic runs; {0, 1, 2} of the bridged
    # triangles has sparsity 1/3, which is not below phi = 1/4.
    monkeypatch.setattr("cutkit.expander._heuristic_violating", lambda graph, d, phi, memo: 0b111)
    g = two_triangles_bridge()
    with pytest.raises(ContractViolation, match="not sparser than phi"):
        verify_expander(g, DemandVector.uniform(6, 1), Fraction(1, 4), certify_limit=4)
    check = verify_expander(g, DemandVector.uniform(6, 1), Fraction(1, 2), certify_limit=4)
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


def test_graphs_without_a_proper_cut_verify_at_any_limit():
    for n in (0, 1):
        for limit in (0, 1, EXHAUSTIVE_LIMIT):
            check = verify_expander(
                build_graph(n, []), DemandVector.uniform(n, 1), Fraction(1, 2), certify_limit=limit
            )
            assert check == ExpanderCheck(True, True, None, None)


def test_certify_limit_validation():
    g = clique_graph(4)
    d = DemandVector.degrees(g)
    for bad in (-1, EXHAUSTIVE_LIMIT + 1, 25):
        with pytest.raises(InputError, match="certify_limit"):
            verify_expander(g, d, Fraction(1, 2), certify_limit=bad)
        with pytest.raises(InputError, match="certify_limit"):
            expander_decompose(g, d, Fraction(1, 2), certify_limit=bad)
    assert verify_expander(g, d, Fraction(1, 2), certify_limit=0).ok
    assert expander_decompose(g, d, Fraction(1, 2), certify_limit=EXHAUSTIVE_LIMIT).splits == 0


def test_decompose_splits_dumbbell():
    g = dumbbell_graph(10)
    dec = expander_decompose(g, DemandVector.uniform(10, 1), Fraction(1, 2))
    assert [c.members() for c in dec.clusters] == [[0, 1, 2, 3, 4], [5, 6, 7, 8, 9]]
    assert dec.inter_weight == 1
    assert dec.certified == (True, True)
    assert dec.splits == 1
    assert dec.labels() == [0] * 5 + [1] * 5
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
    g = build_graph(leaves + 1, edges)
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
    labels = dec.labels()
    assert labels[0] != labels[49]
    assert dec.certified == (False, False)
    halves = {tuple(c.members()) for c in dec.clusters}
    assert tuple(range(25)) in halves
    assert tuple(range(25, 50)) in halves
    assert dec.inter_weight == 1


def test_decompose_budget_formula_and_validation():
    g = dumbbell_graph(10)
    d = DemandVector.uniform(10, 1)
    dec = expander_decompose(g, d, Fraction(1, 2), c_b=2)
    lg = 9 .bit_length()
    assert dec.budget == 2 * Fraction(1, 2) * d.total * lg * lg
    with pytest.raises(InputError):
        expander_decompose(g, d, Fraction(1, 2), c_b=0)
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
        g = build_graph(n, edges)
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


def test_one_memo_entry_answers_both_ways():
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
    assert len(memo) == 1


def test_guess_ladder_without_split_searches_once():
    # In K24 at phi = 1/4 no cut is sparse below lam = 48, past the ladder's top.
    g = clique_graph(24)
    inst = SteinerInstance(g, g.full_set)
    memo: dict = {}
    guesses = approx_mincut_estimate(inst).guesses
    assert len(guesses) > 1
    for guess in guesses:
        _, dec = sparsify_terminals(g, g.full_set, Fraction(1, 4), guess, memo)
        assert dec.splits == 0
    assert len(memo) == 1

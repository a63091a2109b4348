import numpy as np
import pytest

from cutkit import (
    Cut,
    InputError,
    VertexSet,
    WeightedGraph,
    boundary_edges,
    components_after_removal,
    contract,
    cut_weight,
    induced_subgraph,
    is_connected,
    parse_edgelist,
    write_edgelist,
)
from cutkit.graph import _component_labels, canonical_graphs

# 2^13 edges of the 2^40 limit plus one of weight 1: odd, and above 2^53.
ODD_BEYOND_FLOAT = (1 << 53) + 1


def odd_heavy_star():
    """Star whose centre has weighted degree ODD_BEYOND_FLOAT."""
    leaves = (1 << 13) + 1
    edges = [(0, v, 1 << 40) for v in range(1, leaves)] + [(0, leaves, 1)]
    return WeightedGraph(leaves + 1, edges)


def test_parallel_edges_merge():
    g = WeightedGraph(2, [(0, 1, 5), (1, 0, 3)])
    assert g.edges == ((0, 1, 8),)
    assert g.m == 1
    assert g.total_weight == 8


def test_self_loops_and_zero_weights_dropped():
    g = WeightedGraph(3, [(0, 0, 4), (0, 1, 0), (1, 2, 2)])
    assert g.edges == ((1, 2, 2),)


def test_edges_canonical_order():
    g = WeightedGraph(4, [(3, 2, 1), (1, 0, 1), (2, 0, 1)])
    assert g.edges == ((0, 1, 1), (0, 2, 1), (2, 3, 1))


def test_equal_graphs_hash_alike():
    g = WeightedGraph(4, [(0, 1, 5), (1, 2, 3), (2, 3, 1)])
    permuted = WeightedGraph(4, [(3, 2, 1), (1, 0, 5), (2, 1, 3)])
    parallel = WeightedGraph(4, [(1, 0, 2), (2, 3, 1), (0, 1, 3), (1, 2, 3)])
    heavier = WeightedGraph(4, [(0, 1, 5), (1, 2, 3), (2, 3, 2)])
    wider = WeightedGraph(5, [(0, 1, 5), (1, 2, 3), (2, 3, 1)])
    assert g == permuted == parallel
    assert hash(g) == hash(permuted) == hash(parallel) == hash((g.n, g.digest))
    assert {g, permuted, parallel} == {g}
    assert len({g, permuted, parallel, heavier, wider}) == 3


def test_bad_edges_rejected():
    with pytest.raises(InputError):
        WeightedGraph(2, [(0, 2, 1)])
    with pytest.raises(InputError):
        WeightedGraph(2, [(0, 1, -1)])
    with pytest.raises(InputError):
        WeightedGraph(2, [(0, 1, 1 << 41)])
    for edge in ((0, 1, 1.5), (0, 1.0, 1), (0, 1, "3")):
        with pytest.raises(InputError):
            WeightedGraph(2, [edge])


def test_malformed_edges_rejected():
    for edge in ((0, 1), (0, 1, 2, 3), 5, None):
        with pytest.raises(InputError, match="is not a \\(u, v, weight\\) triple"):
            WeightedGraph(3, [(0, 2, 1), edge])


def test_vertex_count_limit():
    assert WeightedGraph(1 << 31, [(0, (1 << 31) - 1, 1)]).edges == ((0, (1 << 31) - 1, 1),)
    with pytest.raises(InputError, match="outside \\[0, 2\\^31\\]"):
        WeightedGraph((1 << 31) + 1, [])
    with pytest.raises(InputError, match="must lie in \\[0, 2\\^31\\)"):
        contract(WeightedGraph(2, [(0, 1, 1)]), [0, 1 << 31])


def _assert_canonical(graph, us, vs, ws):
    """graph's arrays are those a (lo, hi) lexsort and merge of the rows give, byte for byte."""
    keep = (us != vs) & (ws != 0)
    lo, hi = np.minimum(us, vs)[keep], np.maximum(us, vs)[keep]
    order = np.lexsort((hi, lo))
    lo, hi, w = lo[order], hi[order], ws[keep][order]
    first = np.ones(lo.size, dtype=bool)
    first[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
    starts = np.flatnonzero(first)
    expected = (lo[starts], hi[starts], np.add.reduceat(w, starts) if w.size else w)
    for got, want in zip(graph.edge_arrays, expected):
        assert got.dtype == np.int64 and got.tobytes() == want.astype(np.int64).tobytes()
    assert graph.total_weight == int(w.sum())


def test_canonical_edges_match_two_key_sort():
    """The one-key sort gives the arrays a (lo, hi) lexsort would, byte for byte.

    An input graph and a contraction with random labels go through the sort;
    an induced subgraph on a random side keeps its parent's order unsorted.
    """
    rng = np.random.default_rng(5)
    for n in (1, 2, 7, 300):
        us, vs = rng.integers(0, n, size=(2, 4 * n))
        ws = rng.integers(0, 1 << 40, size=4 * n)
        g = WeightedGraph(n, list(zip(us.tolist(), vs.tolist(), ws.tolist())))
        _assert_canonical(g, us, vs, ws)
        gu, gv, gw = g.edge_arrays
        labels = rng.integers(0, n // 3 + 2, size=n)
        quotient = contract(g, labels)
        assert quotient.n == int(labels.max()) + 1
        _assert_canonical(quotient, labels[gu], labels[gv], gw)
        inside = rng.random(n) < 0.5
        inside[rng.integers(n)] = True
        sub, ids = induced_subgraph(g, VertexSet.from_bools(inside))
        index = np.cumsum(inside) - 1
        kept = inside[gu] & inside[gv]
        assert (sub.n, ids) == (int(inside.sum()), np.flatnonzero(inside).tolist())
        _assert_canonical(sub, index[gu[kept]], index[gv[kept]], gw[kept])


def test_m_is_the_edge_count_of_every_constructor():
    rng = np.random.default_rng(9)
    n = 40
    us, vs = rng.integers(0, n, size=(2, 3 * n))
    ws = rng.integers(0, 9, size=3 * n)  # zero weights and self loops are dropped
    g = WeightedGraph(n, list(zip(us.tolist(), vs.tolist(), ws.tolist())))
    gu, gv, gw = g.edge_arrays
    base = np.array([0, n, 2 * n])
    pair = canonical_graphs(base, np.r_[gu, gu + n], np.r_[gv, gv + n], np.r_[gw, gw])
    graphs = [g, *pair, contract(g, rng.integers(0, 9, size=n))]
    graphs.append(induced_subgraph(g, VertexSet.from_bools(rng.random(n) < 0.5))[0])
    for h in graphs:
        assert h.m == len(h.edge_arrays[2])
    assert g.m > 0 and pair[0] == pair[1] == g


def test_bool_edge_entries_rejected():
    # A bool is an int to isinstance; taken as one, (0, True, 2) is edge (0, 1, 2).
    for edge in ((0, True, 2), (0, 1, True)):
        with pytest.raises(InputError, match="must be an int, got True"):
            WeightedGraph(3, [edge])


def test_numpy_int_vertex_count_and_ids():
    g = WeightedGraph(np.int64(70), [(0, 69, 1)])
    assert type(g.n) is int
    assert g.full_set.members() == list(range(70))
    # 1 << np.int64(99) would overflow int64; the ids are stored as Python ints.
    assert VertexSet.from_ids(100, np.array([99, 3])).members() == [3, 99]


def test_non_integer_vertex_count_or_id_rejected():
    for n in (2.5, True, "3"):
        with pytest.raises(InputError):
            WeightedGraph(n, [])
    for ids in ([1.0], [True]):
        with pytest.raises(InputError):
            VertexSet.from_ids(8, ids)


def test_degree_weight():
    g = WeightedGraph(4, [(0, 3, 1), (0, 1, 2), (0, 2, 3)])
    assert int(g.degrees[0]) == 6
    assert int(g.degrees[3]) == 1


def test_vertex_set_basics():
    s = VertexSet.from_ids(6, [4, 1, 1])
    assert len(s) == 2
    assert list(s) == [1, 4]
    assert s.members() == [1, 4]
    assert 4 in s and 0 not in s
    assert s.smallest() == 1
    assert s.complement().members() == [0, 2, 3, 5]
    t = VertexSet.from_ids(6, [4, 5])
    assert s.union(t).members() == [1, 4, 5]
    assert s.intersection(t).members() == [4]
    assert s.difference(t).members() == [1]
    assert s.issubset(VertexSet.full(6))
    assert not s.isdisjoint(t)
    assert not VertexSet.empty(6)


def test_vertex_set_universe_mismatch():
    with pytest.raises(InputError):
        VertexSet.from_ids(4, [0]).union(VertexSet.from_ids(5, [0]))


def test_cut_requires_proper_nonempty_side():
    g = WeightedGraph(3, [(0, 1, 1), (1, 2, 1)])
    with pytest.raises(InputError):
        Cut(VertexSet.empty(3), 0)
    with pytest.raises(InputError):
        Cut(VertexSet.full(3), 0)
    cut = Cut(VertexSet.from_ids(3, [0]), 1)
    assert cut.verify(g)
    assert not Cut(VertexSet.from_ids(3, [0]), 2).verify(g)


def test_cut_weight_and_boundary():
    g = WeightedGraph(4, [(0, 1, 2), (1, 2, 3), (2, 3, 4), (0, 3, 5)])
    side = VertexSet.from_ids(4, [0, 1])
    assert cut_weight(g, side) == 3 + 5
    assert boundary_edges(g, side) == [(0, 3), (1, 2)]


def test_contract_merges_and_lifts():
    g = WeightedGraph(4, [(0, 1, 1), (1, 2, 2), (2, 3, 3), (0, 3, 4)])
    labels = [0, 0, 1, 2]
    quotient = contract(g, labels)
    assert quotient.n == 3
    assert quotient.edges == ((0, 1, 2), (0, 2, 4), (1, 2, 3))
    # The lift rule from contract's docstring.
    lifted = VertexSet.from_bools(VertexSet.from_ids(3, [0, 2]).bools()[labels])
    assert lifted.members() == [0, 1, 3]


def test_contract_validates_labels():
    g = WeightedGraph(3, [(0, 1, 1)])
    for labels in ([0, 1], [0, 1, 2, 3], [0, -1, 1], [0.5, 1.7, 2.2], [0, 1.0, 2]):
        with pytest.raises(InputError):
            contract(g, labels)
    assert contract(g, np.array([0, 1, 1], dtype=np.int32)).n == 2
    # An id no vertex carries becomes an isolated vertex of the quotient.
    quotient = contract(g, [0, 3, 3])
    assert quotient.n == 4
    assert quotient.edges == ((0, 3, 1),)


def test_vertex_set_bools_round_trip():
    for n in (0, 1, 7, 8, 9, 70):
        for ids in ([], [0], [n - 1], range(0, n, 3), range(n)):
            s = VertexSet.from_ids(n, [v for v in ids if 0 <= v < n])
            flags = s.bools()
            assert flags.dtype == bool and flags.shape == (n,)
            assert flags.nonzero()[0].tolist() == s.members()
            assert VertexSet.from_bools(flags) == s


def test_components_ordered_by_smallest():
    g = WeightedGraph(5, [(3, 4, 1), (0, 2, 1)])
    labels = components_after_removal(g, np.zeros(g.m, dtype=bool))
    assert labels.tolist() == [0, 1, 0, 3, 3]
    assert not is_connected(g)
    assert is_connected(WeightedGraph(5, [(3, 4, 1), (0, 2, 1), (1, 4, 1), (2, 3, 1)]))
    assert not is_connected(WeightedGraph(2, []))
    assert is_connected(WeightedGraph(1, [])) and is_connected(WeightedGraph(0, []))


def test_components_after_removal():
    g = WeightedGraph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
    labels = components_after_removal(g, np.array([False, True, False]))
    assert labels.dtype == np.int64
    assert labels.tolist() == [0, 0, 2, 2]
    assert components_after_removal(g, [True] * 3).tolist() == [0, 1, 2, 3]
    for removed in ([False, True], [False] * 4, [[False] * 3]):
        with pytest.raises(InputError):
            components_after_removal(g, removed)


def test_components_after_removal_matches_scipy():
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    rng = np.random.default_rng(20260)
    for trial in range(300):
        n = trial % 41
        m = int(rng.integers(0, 3 * n + 1)) if trial % 7 else 0
        ends = rng.integers(0, max(n, 1), size=(m, 2)).tolist()
        g = WeightedGraph(n, [(u, v, 1) for u, v in ends])
        if trial % 5 == 0:
            removed = np.ones(g.m, dtype=bool)
        else:
            removed = rng.random(g.m) < rng.random()
        labels = components_after_removal(g, removed)
        us, vs, _ = g.edge_arrays
        kept = ~removed
        adjacency = coo_matrix(
            (np.ones(int(kept.sum())), (us[kept], vs[kept])), shape=(n, n)
        )
        _, ref = connected_components(adjacency, directed=False)
        assert labels.shape == (n,)
        for v in range(n):
            members = np.flatnonzero(ref == ref[v])
            assert np.array_equal(np.flatnonzero(labels == labels[v]), members)
            assert labels[v] == members[0]
    # A long path in random vertex order is one component labelled 0.
    order = rng.permutation(20000).tolist()
    path = WeightedGraph(20000, [(u, v, 1) for u, v in zip(order, order[1:])])
    labels = components_after_removal(path, np.zeros(path.m, dtype=bool))
    assert not labels.any()


def test_component_labels_of_a_disjoint_union_of_shifted_copies():
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    rng = np.random.default_rng(20261)
    for trial in range(120):
        n = trial % 23
        m = int(rng.integers(0, 2 * n + 1))
        ends = rng.integers(0, max(n, 1), size=(m, 2)).tolist()
        g = WeightedGraph(n, [(u, v, 1) for u, v in ends])
        us, vs, _ = g.edge_arrays
        # R copies, each with its own removed mask; a mask may drop every edge.
        copies = int(rng.integers(1, 5))
        masks = [rng.random(g.m) < rng.random() for _ in range(copies)]
        masks[-1][:] = trial % 3 == 0
        keep = [np.flatnonzero(~mask) for mask in masks]
        union_us = np.concatenate([us[k] + r * n for r, k in enumerate(keep)])
        union_vs = np.concatenate([vs[k] + r * n for r, k in enumerate(keep)])
        labels = _component_labels(copies * n, union_us, union_vs)
        assert labels.dtype == np.int64 and labels.shape == (copies * n,)
        adjacency = coo_matrix(
            (np.ones(union_us.size), (union_us, union_vs)), shape=(copies * n, copies * n)
        )
        _, ref = connected_components(adjacency, directed=False)
        for v in range(copies * n):
            members = np.flatnonzero(ref == ref[v])
            assert labels[v] == members[0]
            assert np.array_equal(np.flatnonzero(labels == labels[v]), members)
        for r, mask in enumerate(masks):
            alone = components_after_removal(g, mask)
            assert np.array_equal(labels[r * n : (r + 1) * n], alone + r * n)
    # Isolated vertices keep their own ids, and n = 0 gives an empty array.
    empty = np.zeros(0, dtype=np.int64)
    assert _component_labels(4, empty, empty).tolist() == [0, 1, 2, 3]
    assert _component_labels(0, empty, empty).shape == (0,)


def test_induced_subgraph():
    g = WeightedGraph(5, [(0, 1, 1), (1, 3, 2), (3, 4, 3), (0, 4, 4)])
    sub, ids = induced_subgraph(g, VertexSet.from_ids(5, [1, 3, 4]))
    assert ids == [1, 3, 4]
    assert sub.edges == ((0, 1, 2), (1, 2, 3))


def test_edgelist_round_trip():
    g = WeightedGraph(4, [(0, 1, 2), (2, 3, 7)])
    text = write_edgelist(g)
    assert text.splitlines()[0] == "p 4 2"
    assert parse_edgelist(text) == g


def test_edgelist_accepts_comments_and_blank_lines():
    g = parse_edgelist("c a remark\n\np 3 1\nc another\n0 2 5\n")
    assert g.edges == ((0, 2, 5),)


def test_edgelist_errors():
    with pytest.raises(InputError):
        parse_edgelist("0 1 2\n")
    with pytest.raises(InputError):
        parse_edgelist("p 3 2\n0 1 2\n")
    with pytest.raises(InputError):
        parse_edgelist("p 3\n")
    with pytest.raises(InputError):
        parse_edgelist("p 3 1\n0 one 2\n")
    with pytest.raises(InputError, match="line 1: edge before header"):
        parse_edgelist("pizza 3 1\n0 1 5\n")
    with pytest.raises(InputError, match="line 2: duplicate header"):
        parse_edgelist("p 3 1\np 3 1\n0 1 5\n")
    with pytest.raises(InputError, match="missing 'p <n> <m>' header"):
        parse_edgelist("c only a comment\n")


def test_edgelist_bad_number_names_its_token():
    with pytest.raises(InputError, match="line 1: 'x' is not an integer"):
        parse_edgelist("p 3 x\n")
    with pytest.raises(InputError, match="line 3: 'one' is not an integer"):
        parse_edgelist("p 3 1\nc edge\n0 one 2\n")


def test_derived_graphs_keep_merged_weights_beyond_edge_limit():
    # Each input edge is within 2^40; contraction and induction merge them.
    w = 1 << 40
    g = WeightedGraph(4, [(0, 2, w), (1, 2, w), (2, 3, 5)])
    assert contract(g, [0, 0, 1, 2]).edges == ((0, 1, 2 * w), (1, 2, 5))
    heavy = WeightedGraph(3, [(0, 1, w), (0, 1, w), (1, 2, 5)])
    sub, _ = induced_subgraph(heavy, VertexSet.from_ids(3, [0, 1]))
    assert sub.edges == ((0, 1, 2 * w),)
    with pytest.raises(InputError):
        WeightedGraph(2, [(0, 1, 2 * w)])
    # Merged weights of odd exact sum above 2^53, which float64 cannot hold.
    odd = ODD_BEYOND_FLOAT
    star = odd_heavy_star()
    quotient = contract(star, [0] + [1] * (star.n - 1))
    assert quotient.edges == ((0, 1, odd),)
    assert cut_weight(quotient, VertexSet.from_ids(2, [0])) == odd
    parallel = WeightedGraph(3, [(0, 1, w)] * (1 << 13) + [(0, 1, 1), (1, 2, 5)])
    sub, _ = induced_subgraph(parallel, VertexSet.from_ids(3, [0, 1]))
    assert sub.edges == ((0, 1, odd),)


def test_degrees_exact_beyond_float():
    star = odd_heavy_star()
    degrees = star.degrees
    assert degrees.dtype == np.int64
    assert int(degrees[0]) == ODD_BEYOND_FLOAT
    assert degrees[1:].tolist() == [1 << 40] * (1 << 13) + [1]
    assert cut_weight(star, VertexSet.from_ids(star.n, [0])) == ODD_BEYOND_FLOAT

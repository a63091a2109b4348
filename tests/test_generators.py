import pytest

from cutkit import (
    GeneratorSpec,
    InputError,
    cut_weight,
    generate,
    is_connected,
    stoer_wagner,
)
from cutkit.generators import (
    FAMILIES,
    clique_graph,
    cycle_graph,
    dumbbell_graph,
    gnp_graph,
    grid_graph,
    planted_cut_graph,
)


def test_gnp_deterministic_per_seed():
    a = gnp_graph(12, 0.4, seed=5)
    b = gnp_graph(12, 0.4, seed=5)
    c = gnp_graph(12, 0.4, seed=6)
    assert a == b
    assert a != c
    assert is_connected(a)
    assert all(1 <= w <= 8 for _, _, w in a.edges)


def test_gnp_weight_range_and_validation():
    g = gnp_graph(8, 0.6, seed=1, w_min=3, w_max=3)
    assert all(w == 3 for _, _, w in g.edges)
    with pytest.raises(InputError):
        gnp_graph(0, 0.5)
    with pytest.raises(InputError):
        gnp_graph(5, 1.5)
    with pytest.raises(InputError):
        gnp_graph(5, 0.5, w_min=0)
    with pytest.raises(InputError):
        gnp_graph(40, 0.0)


def test_gnp_disconnected_allowed():
    g = gnp_graph(30, 0.0, connect=False)
    assert g.m == 0


def test_clique_shape():
    g = clique_graph(5, weight=2)
    assert g.m == 10
    assert g.total_weight == 20
    with pytest.raises(InputError):
        clique_graph(1)


def test_cycle_shape():
    g = cycle_graph(6)
    assert g.m == 6
    assert all(int(g.degrees[v]) == 2 for v in range(6))
    with pytest.raises(InputError):
        cycle_graph(2)


def test_dumbbell_shape_and_cut():
    g = dumbbell_graph(10, bridge_weight=3)
    assert g.m == 2 * 10 + 1
    assert stoer_wagner(g).weight == 3
    with pytest.raises(InputError):
        dumbbell_graph(7)
    with pytest.raises(InputError):
        dumbbell_graph(2)


def test_grid_shape():
    g = grid_graph(3, 4)
    assert g.n == 12
    assert g.m == 3 * 3 + 2 * 4
    with pytest.raises(InputError):
        grid_graph(1, 1)


def test_planted_cut_is_global_minimum():
    for seed in range(6):
        graph, cut = planted_cut_graph(14, 5, seed=seed)
        assert cut.side.members() == [0, 1, 2, 3, 4]
        assert cut_weight(graph, cut.side) == cut.weight
        assert stoer_wagner(graph).weight == cut.weight
        assert is_connected(graph)


def test_planted_cut_validation():
    with pytest.raises(InputError):
        planted_cut_graph(10, 0)
    with pytest.raises(InputError):
        planted_cut_graph(10, 10)


def test_generate_dispatch():
    assert generate(GeneratorSpec("cycle", 5)) == cycle_graph(5)
    assert generate(GeneratorSpec("clique", 4, weight=2)) == clique_graph(4, 2)
    assert generate(GeneratorSpec("dumbbell", 8, weight=5)) == dumbbell_graph(
        8, bridge_weight=5
    )
    assert generate(GeneratorSpec("gnp", 9, seed=2, p=0.5)) == gnp_graph(9, 0.5, seed=2)
    grid = generate(GeneratorSpec("grid", 12, rows=3))
    assert grid == grid_graph(3, 4)
    planted = generate(GeneratorSpec("planted", 12, seed=1, side_size=4))
    assert is_connected(planted)


def test_generate_rejects_unknown_family():
    with pytest.raises(InputError):
        generate(GeneratorSpec("torus", 9))
    with pytest.raises(InputError):
        generate(GeneratorSpec("grid", 10, rows=3))
    assert set(FAMILIES) == {"gnp", "planted", "dumbbell", "cycle", "clique", "grid"}


def test_generators_reject_weights_below_one():
    for weight in (0, -2):
        for build in (
            lambda: clique_graph(4, weight),
            lambda: cycle_graph(5, weight),
            lambda: dumbbell_graph(8, clique_weight=weight),
            lambda: dumbbell_graph(8, bridge_weight=weight),
            lambda: grid_graph(2, 3, weight),
        ):
            with pytest.raises(InputError):
                build()
        for family in ("clique", "cycle", "dumbbell", "grid"):
            with pytest.raises(InputError):
                generate(GeneratorSpec(family, 8, weight=weight, rows=2))


def test_generate_grid_rejects_rows_below_one():
    for rows in (0, -1):
        with pytest.raises(InputError):
            generate(GeneratorSpec("grid", 10, rows=rows))

"""Shared instance builders for the test suite."""

import random

from cutkit import VertexSet, WeightedGraph, gnp_graph


def rand_graph(n: int, seed: int, p: float = 0.5, w_max: int = 8) -> WeightedGraph:
    """Connected random graph; deterministic in its arguments."""
    return gnp_graph(n, p, seed=seed, w_max=w_max)


def rand_terminals(n: int, count: int, seed: int) -> VertexSet:
    rng = random.Random(seed)
    return VertexSet.from_ids(n, rng.sample(range(n), count))


def st_pair(n: int, seed: int) -> tuple[int, int]:
    rng = random.Random(seed)
    s, t = rng.sample(range(n), 2)
    return s, t


def clusters_cut_by(clusters: tuple[VertexSet, ...], side: VertexSet) -> int:
    """How many clusters have vertices on both sides of the cut."""
    count = 0
    for cluster in clusters:
        hit = cluster.intersection(side)
        if hit and hit != cluster:
            count += 1
    return count


def split_terminal_sum(
    clusters: tuple[VertexSet, ...], terminals: VertexSet, side: VertexSet
) -> int:
    """Sum over clusters of the smaller terminal count on either side."""
    total = 0
    for cluster in clusters:
        inside = len(cluster.intersection(terminals).intersection(side))
        outside = len(cluster.intersection(terminals)) - inside
        total += min(inside, outside)
    return total

"""The benchmark's four workloads: seeded corpora of exact min-cut solves.

Every corpus holds one anchor instance that does not depend on the seed
(so every run also checks a fingerprint from the ledger and the corpus cost
moves less from seed to seed) plus instances drawn from the workload seed.
All instances are built through ``cutkit.generators``. The reference answer
of each instance comes from an oracle that shares no flow path with the
solve being timed: Stoer-Wagner for global cuts, and one Dinic flow per
terminal for Steiner cuts, which are timed on the SciPy engine.
"""

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from cutkit import generators, maxflow, oracles, steiner
from cutkit.graph import VertexSet, WeightedGraph

# Bench-scale driver settings, as in ``cutkit.bench.default_bench_config``.
PHI = Fraction(1, 4)
K = 2
HEAVY_WEIGHTS = (1 << 39, 1 << 40)


@dataclass(frozen=True)
class Instance:
    label: str
    graph: WeightedGraph
    terminals: VertexSet


@dataclass(frozen=True)
class Workload:
    engine: str
    corpus: Callable[[int], list[Instance]]
    reference: Callable[[Instance], int]


def _global(label: str, spec: generators.GeneratorSpec) -> Instance:
    graph = generators.generate(spec)
    return Instance(label, graph, graph.full_set)


def _gnp(n: int, p: float, seed: int, weights=(1, 8)) -> Instance:
    spec = generators.GeneratorSpec(
        "gnp", n, seed=seed, p=p, w_min=weights[0], w_max=weights[1]
    )
    tag = "heavy-" if weights == HEAVY_WEIGHTS else ""
    return _global(f"{tag}gnp-n{n}-p{p:.4g}-s{seed}", spec)


def _subset(n: int, r: int, seed: int) -> Instance:
    p = 6 / n
    graph = generators.generate(generators.GeneratorSpec("gnp", n, seed=seed, p=p))
    picks = random.Random(seed).sample(range(n), r)
    return Instance(
        f"gnp-n{n}-p{p:.4g}-r{r}-s{seed}", graph, VertexSet.from_ids(n, picks)
    )


def _seeds(seed: int, count: int) -> list[int]:
    """Instance seeds drawn from the workload seed; 0 is kept for anchors."""
    return [seed * 1000 + i for i in range(1, count + 1)]


# Each corpus is solved in about 1.5 s, so a run times many passes over it.
def global_dense(seed: int) -> list[Instance]:
    anchor = _global("dumbbell-n48", generators.GeneratorSpec("dumbbell", 48))
    return [anchor] + [_gnp(48, 0.3, s) for s in _seeds(seed, 1)]


def global_sparse(seed: int) -> list[Instance]:
    anchor = _global("grid-8x8", generators.GeneratorSpec("grid", 64, rows=8))
    return [anchor] + [_gnp(96, 4 / 96, s) for s in _seeds(seed, 1)]


def steiner_subset(seed: int) -> list[Instance]:
    return [_subset(320, 20, s) for s in [0] + _seeds(seed, 1)]


def heavy_dinic(seed: int) -> list[Instance]:
    return [_gnp(48, 0.15, s, HEAVY_WEIGHTS) for s in [0] + _seeds(seed, 2)]


def global_reference(inst: Instance) -> int:
    return oracles.stoer_wagner(inst.graph).weight


def steiner_reference(inst: Instance) -> int:
    inst_ = steiner.SteinerInstance(inst.graph, inst.terminals)
    return oracles.naive_steiner(maxflow.get_engine("dinic"), inst_).weight


WORKLOADS = {
    # Dense global cuts: building contracted graphs dominates.
    "global-dense": Workload("scipy", global_dense, global_reference),
    # Sparse global cuts, thousands of tiny flows: per-call engine overhead.
    "global-sparse": Workload("scipy", global_sparse, global_reference),
    # 20 of 320 vertices are terminals: every phase-B build contracts the
    # whole graph, and the spectral heuristic runs at large n.
    "steiner-subset": Workload("scipy", steiner_subset, steiner_reference),
    # Weights near 2^40 on the pure-Python engine: a long guess ladder and
    # the exactness limit; SciPy-only changes must not move it.
    "heavy-dinic": Workload("dinic", heavy_dinic, global_reference),
}


def config() -> steiner.AlgoConfig:
    return steiner.AlgoConfig(phi=PHI, k=K)


def warmup_instance() -> Instance:
    """Small graph above the exhaustive-check limit, so every code path loads."""
    return _gnp(24, 0.3, 0)


def solve(engine, inst: Instance, cfg: steiner.AlgoConfig) -> steiner.CutReport:
    # Looked up on the module at call time so the tracer's wrapper is used.
    return steiner.steiner_mincut_det(
        engine, steiner.SteinerInstance(inst.graph, inst.terminals), cfg
    )

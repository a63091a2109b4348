"""End-to-end acceptance checks for the whole toolkit.

Each test covers one headline guarantee, collects any violations over a
fixed seeded corpus, and prints exactly one verdict line. All comparisons
are exact (integers or rationals); the only tolerance anywhere is the
stated success rate of the randomized driver at its default repetition
count. Expect the full file to take a couple of minutes; the two largest
tests are the call-budget benchmark and the randomized success sweep.
"""

import math
import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from cutkit import (
    AlgoConfig,
    FlowMeter,
    SteinerInstance,
    VertexSet,
    WeightedGraph,
    get_engine,
    global_mincut_det,
    max_flow,
    minimum_isolating_cuts,
    naive_isolating,
    naive_steiner,
    steiner_mincut_det,
    steiner_mincut_rand,
    stoer_wagner,
)
from cutkit import steiner
from cutkit.bench import det_call_budget, default_bench_config, run_bench
from cutkit.expander import (
    DemandVector,
    augmented_demands,
    expander_decompose,
    verify_expander,
)
from cutkit.generators import (
    clique_graph,
    cycle_graph,
    dumbbell_graph,
    gnp_graph,
    planted_cut_graph,
)
from cutkit.graph import cut_weight, induced_subgraph
from cutkit.oracles import enumerate_cuts, enumerate_min_cut_sides
from helpers import clusters_cut_by, split_terminal_sum


def _run(label, body):
    """Run one criterion body and print a single verdict line."""
    failures = []
    try:
        body(failures)
    except Exception as exc:  # the verdict line must appear even on a crash
        failures.append(f"unexpected {type(exc).__name__}: {exc}")
    print(f"acceptance {label}: {'PASS' if not failures else 'FAIL'}")
    assert not failures, f"{label}: " + "; ".join(str(f) for f in failures[:5])


def _boundary(graph, side):
    return 0 if len(side) == graph.n else cut_weight(graph, side)


# ---------------------------------------------------------------------------
# Isolating cuts: 500 seeded instances shared by the exactness and budget
# tests. Each record keeps only the aggregates both tests need.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1)
def _isolating_corpus():
    engine = get_engine("scipy")
    records = []
    for i in range(500):
        rng = random.Random(9000 + i)
        n = rng.randint(8, 40)
        graph = gnp_graph(
            n, p=min(1.0, rng.uniform(2.5, 5.0) / n), seed=i, w_min=1, w_max=100
        )
        r = rng.randint(2, 8)
        terminals = VertexSet.from_ids(n, rng.sample(range(n), r))
        fast = minimum_isolating_cuts(engine, graph, terminals, FlowMeter())
        slow = naive_isolating(engine, graph, terminals)
        weights_ok = all(
            fast.entries[v].cut.weight == slow.entries[v].cut.weight
            for v in terminals
        )
        records.append(
            {
                "seed": i,
                "weights_ok": weights_ok,
                "phase_a": len(fast.phase_a_calls),
                "want_bits": (r - 1).bit_length(),
                "sum_nb": sum(nb for nb, _ in fast.phase_b_calls),
                "sum_mb": sum(mb for _, mb in fast.phase_b_calls),
                "n_cap": n + r,
                "m_cap": 2 * graph.m + r,
            }
        )
    return records


def test_isolating_cut_exactness():
    def body(failures):
        for rec in _isolating_corpus():
            if not rec["weights_ok"]:
                failures.append(f"seed {rec['seed']}: per-terminal weight mismatch")

    _run("01 isolating-cut exactness (500 instances)", body)


def test_isolating_cut_call_budget():
    def body(failures):
        for rec in _isolating_corpus():
            if rec["phase_a"] != rec["want_bits"]:
                failures.append(
                    f"seed {rec['seed']}: phase A metered {rec['phase_a']},"
                    f" want {rec['want_bits']}"
                )
            if rec["sum_nb"] > rec["n_cap"]:
                failures.append(
                    f"seed {rec['seed']}: phase B vertices {rec['sum_nb']}"
                    f" > {rec['n_cap']}"
                )
            if rec["sum_mb"] > rec["m_cap"]:
                failures.append(
                    f"seed {rec['seed']}: phase B edges {rec['sum_mb']}"
                    f" > {rec['m_cap']}"
                )

    _run("02 isolating-cut call budget (500 instances)", body)


def test_isolating_cut_containment_and_structure():
    engine = get_engine("dinic")

    def body(failures):
        for i in range(200):
            rng = random.Random(4600 + i)
            n = rng.randint(5, 14)
            graph = gnp_graph(
                n,
                p=min(1.0, rng.uniform(2.2, 4.5) / n),
                seed=1000 + i,
                w_min=1,
                w_max=20,
            )
            r = rng.randint(2, min(6, n))
            terminals = VertexSet.from_ids(n, rng.sample(range(n), r))
            res = minimum_isolating_cuts(engine, graph, terminals, FlowMeter())

            seen = 0
            for entry in res.entries.values():
                if seen & entry.component.mask:
                    failures.append(f"seed {i}: components overlap")
                seen |= entry.component.mask
                if entry.component.intersection(terminals).members() != [entry.vertex]:
                    failures.append(
                        f"seed {i}: component of {entry.vertex} holds other terminals"
                    )
                if not entry.cut.side.issubset(entry.component):
                    failures.append(f"seed {i}: side of {entry.vertex} leaves component")

                others = [u for u in terminals if u != entry.vertex]
                best_w = None
                best_sides = []
                for mask in range(1, (1 << n) - 1):
                    if not (mask >> entry.vertex) & 1:
                        continue
                    if any((mask >> u) & 1 for u in others):
                        continue
                    w = cut_weight(graph, VertexSet(n, mask))
                    if best_w is None or w < best_w:
                        best_w, best_sides = w, [mask]
                    elif w == best_w:
                        best_sides.append(mask)
                side_mask = entry.cut.side.mask
                if entry.cut.weight != best_w or side_mask not in best_sides:
                    failures.append(
                        f"seed {i}: terminal {entry.vertex} not an optimal side"
                    )
                    continue
                if any(
                    om != side_mask and om & side_mask == om for om in best_sides
                ):
                    failures.append(
                        f"seed {i}: terminal {entry.vertex} side not inclusion-minimal"
                    )

    _run("03 isolating-cut containment and structure (200 instances)", body)


def test_global_mincut_exactness_and_determinism():
    engine = get_engine("scipy")

    def body(failures):
        graphs = []
        for i in range(200):
            rng = random.Random(5200 + i)
            n = rng.randint(4, 60)
            graphs.append(
                gnp_graph(
                    n,
                    p=min(1.0, rng.uniform(4.0, 7.0) / n),
                    seed=2000 + i,
                    w_min=1,
                    w_max=50,
                )
            )
        for n in (16, 32, 48):
            graphs.append(dumbbell_graph(n))
            graphs.append(cycle_graph(n, weight=2))
            graphs.append(clique_graph(n))
        for i in range(4):
            graph, _ = planted_cut_graph(30, 10, seed=600 + i)
            graphs.append(graph)

        for idx, graph in enumerate(graphs):
            ref = stoer_wagner(graph)
            runs = [global_mincut_det(engine, graph) for _ in range(3)]
            if runs[0].weight != ref.weight:
                failures.append(
                    f"graph {idx}: weight {runs[0].weight} != {ref.weight}"
                )
            first = None
            for rep in runs:
                key = (
                    rep.fingerprint(),
                    rep.weight,
                    rep.cut.side.mask,
                    tuple(rep.meter.calls),
                    rep.equivalent_calls,
                )
                if first is None:
                    first = key
                elif key != first:
                    failures.append(f"graph {idx}: repeated runs differ")

    _run("04 deterministic global min-cut (213 instances, 3 runs each)", body)


def test_steiner_mincut_exactness():
    engine = get_engine("dinic")
    forcing = AlgoConfig(phi=Fraction(1, 4), k=2)

    def body(failures):
        for i in range(200):
            rng = random.Random(6400 + i)
            n = rng.randint(4, 16)
            graph = gnp_graph(
                n,
                p=min(1.0, rng.uniform(2.2, 4.5) / n),
                seed=4000 + i,
                w_min=1,
                w_max=30,
            )
            t = rng.randint(2, n)
            inst = SteinerInstance(graph, VertexSet.from_ids(n, rng.sample(range(n), t)))
            ref = naive_steiner(engine, inst).weight
            direct = steiner_mincut_det(engine, inst).weight
            forced = steiner_mincut_det(engine, inst, forcing).weight
            if direct != ref:
                failures.append(f"seed {i}: default config {direct} != {ref}")
            if forced != ref:
                failures.append(f"seed {i}: decomposition config {forced} != {ref}")

    _run("05 deterministic terminal min-cut exactness (200 instances)", body)


def test_call_budget_separation():
    def body(failures):
        cfg = default_bench_config()
        report = run_bench()
        rows = {(r.family, r.n, r.method): r for r in report.rows}
        for family in ("dumbbell", "cycle"):
            ratios = []
            for n in (64, 128, 256):
                naive = rows[(family, n, "naive")]
                det = rows[(family, n, "det")]
                if naive.raw_calls != n - 1:
                    failures.append(
                        f"{family} n={n}: baseline metered {naive.raw_calls}"
                    )
                if det.weight != naive.weight:
                    failures.append(f"{family} n={n}: methods disagree")
                budget = det_call_budget(n, cfg)
                if det.equivalent_calls > budget:
                    failures.append(
                        f"{family} n={n}: {det.equivalent_calls} calls"
                        f" > budget {budget}"
                    )
                if not det.within_budget:
                    failures.append(f"{family} n={n}: row not marked within budget")
                ratios.append(Fraction(det.equivalent_calls, naive.raw_calls))
            if not (ratios[0] > ratios[1] > ratios[2]):
                failures.append(f"{family}: call ratio not strictly decreasing")
        budgets = [Fraction(det_call_budget(n, cfg), n) for n in (64, 128, 256)]
        if not (budgets[0] > budgets[1] > budgets[2]):
            failures.append("budget per terminal not strictly decreasing")

    _run("06 call budget vs baseline (dumbbell/cycle 64..256)", body)


def _frozen_random_instances():
    engine_pairs = []
    for i in range(8):
        rng = random.Random(300 + i)
        n = rng.randint(10, 14)
        graph = gnp_graph(n, p=0.45, seed=40 + i, w_min=1, w_max=9)
        terminals = VertexSet.from_ids(n, rng.sample(range(n), rng.randint(4, 6)))
        engine_pairs.append((graph, terminals))
    for i in range(4):
        graph, _ = planted_cut_graph(12, 4, seed=70 + i)
        engine_pairs.append((graph, VertexSet.from_ids(12, [0, 3, 6, 9])))
    for n in (10, 12, 14):
        graph = dumbbell_graph(n)
        engine_pairs.append((graph, graph.full_set))
    for n in (9, 11, 13):
        graph = cycle_graph(n)
        engine_pairs.append((graph, graph.full_set))
    graph = dumbbell_graph(12, clique_weight=3, bridge_weight=4)
    engine_pairs.append((graph, graph.full_set))
    graph = gnp_graph(13, 0.5, seed=99, w_min=5, w_max=50)
    engine_pairs.append((graph, graph.full_set))
    return engine_pairs


def test_randomized_success_rate():
    engine = get_engine("dinic")

    def body(failures):
        instances = _frozen_random_instances()
        if len(instances) != 20:
            failures.append(f"expected 20 frozen instances, built {len(instances)}")
            return
        total = hits = 0
        doubled_bad = 0
        for idx, (graph, terminals) in enumerate(instances):
            inst = SteinerInstance(graph, terminals)
            ref = naive_steiner(engine, inst).weight
            doubled = 2 * AlgoConfig().reps_for(len(terminals))
            for seed in range(100):
                got = steiner_mincut_rand(engine, inst, AlgoConfig(seed=seed)).weight
                total += 1
                hits += got == ref
                twice = steiner_mincut_rand(
                    engine, inst, AlgoConfig(seed=seed, rand_reps=doubled)
                ).weight
                if twice != ref:
                    doubled_bad += 1
                    failures.append(
                        f"instance {idx} seed {seed}: doubled repetitions missed"
                    )
        if hits < math.ceil(0.99 * total):
            failures.append(f"default repetitions hit {hits}/{total} < 99%")

    _run("07 randomized success rate (20 instances x 100 seeds)", body)


def test_small_set_isolation_exhaustive():
    from cutkit.splitters import family_size_bound, isolator_family_min2, verify_isolator

    def body(failures):
        for n in range(2, 17):
            for k in range(1, min(4, n - 1) + 1):
                family = isolator_family_min2(n, k)
                verify_isolator(family)
                masks = [s.mask for s in family.sets]
                if len(masks) > family_size_bound(n, k):
                    failures.append(f"n={n} k={k}: family over bound")
                if any(m.bit_count() < 2 for m in masks):
                    failures.append(f"n={n} k={k}: has a small set")
                for size in range(1, k + 1):
                    for subset in combinations(range(n), size):
                        smask = 0
                        for v in subset:
                            smask |= 1 << v
                        if not any((smask & m).bit_count() == 1 for m in masks):
                            failures.append(f"n={n} k={k}: {subset} never isolated")

    _run("08 isolation families exhaustive (n<=16, k<=4)", body)


def test_expander_decomposition_certification():
    def body(failures):
        phis = [Fraction(1, 4), Fraction(1, 2), Fraction(1, 1), Fraction(1, 8)]
        cases = []
        for i in range(88):
            rng = random.Random(8200 + i)
            n = rng.randint(4, 20)
            graph = gnp_graph(
                n,
                p=min(1.0, rng.uniform(2.2, 4.5) / n),
                seed=5000 + i,
                w_min=1,
                w_max=9,
            )
            if i % 3 == 0:
                demands = DemandVector.degrees(graph)
            elif i % 3 == 1:
                demands = DemandVector.uniform(n, rng.randint(1, 6))
            else:
                support = VertexSet.from_ids(n, rng.sample(range(n), rng.randint(2, n)))
                demands = DemandVector.uniform(n, rng.randint(1, 6), support=support)
            cases.append((graph, demands, phis[i % 4]))
        for n in (12, 16, 20):
            graph = dumbbell_graph(n)
            cases.append((graph, DemandVector.degrees(graph), Fraction(1, 2)))
            graph = cycle_graph(n)
            cases.append((graph, DemandVector.uniform(n, 2), Fraction(1, 4)))
        for i in range(6):
            graph, _ = planted_cut_graph(16, 5, seed=900 + i)
            cases.append((graph, DemandVector.degrees(graph), Fraction(1, 2)))

        for idx, (graph, demands, phi) in enumerate(cases):
            dec = expander_decompose(graph, demands, phi)
            covered = 0
            for cluster in dec.clusters:
                if covered & cluster.mask:
                    failures.append(f"case {idx}: clusters overlap")
                covered |= cluster.mask
            if covered != (1 << graph.n) - 1:
                failures.append(f"case {idx}: clusters do not cover the graph")

            for cluster in dec.clusters:
                sub, ids = induced_subgraph(graph, cluster)
                aug = augmented_demands(graph, cluster, demands)
                check = verify_expander(sub, DemandVector(tuple(aug)), phi)
                if not (check.ok and check.certified):
                    failures.append(f"case {idx}: cluster fails certification")
                base = sum(demands.values[v] for v in ids)
                if sum(aug) - base != _boundary(graph, cluster):
                    failures.append(f"case {idx}: augmentation identity broken")

            recount = sum(_boundary(graph, c) for c in dec.clusters) // 2
            if recount != dec.inter_weight:
                failures.append(f"case {idx}: inter-cluster weight miscounted")
            if Fraction(dec.inter_weight) > dec.budget:
                failures.append(f"case {idx}: inter-cluster weight over budget")
            lg = (max(graph.n, 1) - 1).bit_length()
            if dec.budget != Fraction(1) * phi * demands.total * lg * lg:
                failures.append(f"case {idx}: budget formula drifted")

    _run("09 expander decomposition certification (100 instances)", body)


def _two_clique_bridge(half):
    triples = []
    for base in (0, half):
        for u in range(half):
            for v in range(u + 1, half):
                triples.append((base + u, base + v, 1))
    triples.append((0, half, 1))
    return WeightedGraph(2 * half, triples)


def test_min_cut_cluster_invariants(monkeypatch):
    engine = get_engine("dinic")
    # Each decomposition the driver keeps, as (guess, pool, thinned pool,
    # decomposition), recorded by wrapping the sparsify step from outside.
    records = []
    sparsify = steiner.sparsify_terminals

    def recording_sparsify(graph, pool, phi, guess, memo=None):
        thinned, dec = sparsify(graph, pool, phi, guess, memo)
        records.append((guess, pool, thinned, dec))
        return thinned, dec

    monkeypatch.setattr(steiner, "sparsify_terminals", recording_sparsify)

    def body(failures):
        phis = [Fraction(1, 4), Fraction(1, 2), Fraction(1, 1)]
        instances = []
        for i in range(88):
            rng = random.Random(7100 + i)
            n = rng.randint(5, 14)
            instances.append(
                gnp_graph(
                    n,
                    p=min(1.0, rng.uniform(2.2, 4.5) / n),
                    seed=3000 + i,
                    w_min=1,
                    w_max=12,
                )
            )
        for n in (8, 10, 12):
            instances.append(dumbbell_graph(n))
            instances.append(cycle_graph(n))
        for i in range(6):
            graph, _ = planted_cut_graph(12, 4, seed=800 + i)
            instances.append(graph)

        def audit(idx, graph, phi, cfg, hit_counter):
            lam, sides = enumerate_min_cut_sides(graph)
            if lam == 0:
                return
            records.clear()
            report = steiner_mincut_det(engine, SteinerInstance(graph, graph.full_set), cfg)
            if report.weight != lam:
                failures.append(f"instance {idx}: driver weight {report.weight} != {lam}")
                return
            threshold = math.ceil((1 + 1 / phi) ** 3)
            for guess, pool, after, dec in records:
                clusters = dec.clusters
                if not after.issubset(pool):
                    failures.append(f"instance {idx}: sparsified pool leaves its pool")
                for side in sides:
                    # both sides of every minimum cut cross few clusters,
                    # whatever the demand guess was
                    if Fraction(clusters_cut_by(clusters, side)) > 1 + 1 / phi:
                        failures.append(f"instance {idx}: cluster-crossing bound broken")
                if guess < lam:
                    # the split-terminal and hitting guarantees presuppose
                    # per-terminal demand at least the true cut weight
                    continue
                for side in sides:
                    split = split_terminal_sum(clusters, pool, side)
                    if Fraction(split) > Fraction(lam) / (phi * lam):
                        failures.append(f"instance {idx}: split-terminal bound broken")
                    in_side = len(pool.intersection(side))
                    in_rest = len(pool) - in_side
                    if min(in_side, in_rest) >= threshold:
                        hit_counter[0] += 1
                        if not (after.intersection(side) and after.difference(side)):
                            failures.append(
                                f"instance {idx}: sparsified pool misses a witness side"
                            )

        hits = [0]
        for idx, graph in enumerate(instances):
            phi = phis[idx % 3]
            cfg = AlgoConfig(phi=phi, k=2)
            audit(idx, graph, phi, cfg, hits)

        # two well-separated cliques guarantee a balanced pool, so the
        # hitting clause is exercised rather than vacuously true
        forced = [0]
        for half in (9, 10):
            graph = _two_clique_bridge(half)
            cfg = AlgoConfig(phi=Fraction(1))
            audit(f"bridge-{half}", graph, Fraction(1), cfg, forced)
        if forced[0] == 0:
            failures.append("hitting clause never exercised on balanced instances")

    _run("10 min-cut cluster invariants (100 instances + 2 balanced)", body)


def test_max_flow_against_enumeration():
    engines = [get_engine("dinic"), get_engine("scipy")]

    def body(failures):
        for i in range(1000):
            rng = random.Random(9900 + i)
            n = rng.randint(2, 12)
            graph = gnp_graph(
                n,
                p=min(1.0, rng.uniform(1.8, 4.0) / n),
                seed=6000 + i,
                w_min=1,
                w_max=40,
                connect=False,
            )
            s, t = rng.sample(range(n), 2)
            res = max_flow(engines[i % 2], graph, s, t, FlowMeter())
            ref = enumerate_cuts(graph, source=s, sink=t)
            if res.weight != ref.weight:
                failures.append(f"seed {i}: value {res.weight} != {ref.weight}")
            if res.side.mask != ref.side.mask:
                failures.append(f"seed {i}: minimal side differs")

    _run("11 max-flow against enumeration (1000 instances)", body)

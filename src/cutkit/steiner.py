"""Minimum Steiner cut drivers built on isolating cuts and sparsification.

The deterministic driver guesses the cut weight on a geometric ladder. For
each guess it alternates two moves on a shrinking terminal pool U: fold in
the best isolating cut over a derandomized set family (catches every
minimum cut with at most k terminals on a side), then thin U through a
demand-weighted expander decomposition (provably keeps terminals on both
sides of some minimum cut when the guess is in range). Once U drops below
k it finishes with direct terminal-to-terminal flows. A guess whose
trajectory stops making progress is abandoned; if its value is still small
enough that it could have been the in-range guess, a plain flow-per-terminal
pass over its last pool repairs the guarantee.

The randomized driver replaces the set family with geometric subsampling
of the terminals and needs no decomposition at all.
"""

import functools
import hashlib
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import ContractViolation, DecompositionError, InputError, as_int
from .expander import DemandVector, ExpanderDecomposition, _check_phi, expander_decompose
from .graph import MAX_TOTAL_WEIGHT, Cut, VertexSet, WeightedGraph, components_after_removal
from .isolating import minimum_isolating_cuts_family
from .maxflow import FlowMeter, max_flow
from .oracles import naive_steiner
from .splitters import isolator_family_min2


@dataclass(frozen=True)
class SteinerInstance:
    graph: WeightedGraph
    terminals: VertexSet

    def __post_init__(self):
        if self.terminals.n != self.graph.n:
            raise InputError("terminal universe does not match graph")
        if len(self.terminals) < 2:
            raise InputError("need at least two terminals")


@dataclass
class AlgoConfig:
    """Tuning knobs shared by the drivers.

    phi is the expansion parameter; k defaults to the smallest unbalance
    threshold that makes the two driver cases exhaustive, ceil((1+1/phi)^3).
    Overriding k below that threshold drops the worst-case flow bound: the
    deterministic driver's fallback repairs every guess it abandons, at any
    phi and k. Its answer is a minimum cut when every cluster it thins is
    certified; clusters above 20 vertices are not, and a sparse cut their
    spectral heuristic misses can cost the answer its minimality. rand_reps
    defaults to ceil(4*lg n) per sampling scale.
    """

    phi: Fraction = Fraction(1, 16)
    k: int | None = None
    rand_reps: int | None = None
    seed: int = 0

    def __post_init__(self):
        _check_phi(self.phi)
        # Keep the Python ints: random.Random refuses a NumPy seed.
        if self.k is not None:
            self.k = as_int("k", self.k)
            if self.k < 2:
                raise InputError("k must be at least 2")
        if self.rand_reps is not None:
            self.rand_reps = as_int("rand_reps", self.rand_reps)
            if self.rand_reps < 1:
                raise InputError("rand_reps must be positive")
        self.seed = as_int("seed", self.seed)

    def k_effective(self) -> int:
        if self.k is not None:
            return self.k
        cube = (1 + 1 / self.phi) ** 3
        return -(-cube.numerator // cube.denominator)

    def reps_for(self, n: int) -> int:
        if self.rand_reps is not None:
            return self.rand_reps
        return max(1, math.ceil(4 * math.log2(max(n, 2))))


@dataclass
class RoundTrace:
    u_size: int
    family_sets: int
    unbalanced_weight: int
    cluster_count: int | None = None
    sparsified_to: int | None = None


@dataclass
class GuessTrace:
    lambda_guess: int
    rounds: list[RoundTrace] = field(default_factory=list)
    outcome: str = "completed"
    final_u_size: int = 0


@dataclass
class DriverTrace:
    method: str
    zero_cut: bool = False
    lambda_guesses: tuple[int, ...] = ()
    guess_traces: list[GuessTrace] = field(default_factory=list)
    pairwise_sizes: list[int] = field(default_factory=list)
    fallback_runs: list[tuple[int, int]] = field(default_factory=list)
    samples: list[tuple[int, int, int, bool]] = field(default_factory=list)


@dataclass
class CutReport:
    cut: Cut
    meter: FlowMeter
    trace: DriverTrace

    @property
    def weight(self) -> int:
        return self.cut.weight

    @property
    def equivalent_calls(self) -> int:
        return self.meter.equivalent_calls

    def fingerprint(self) -> str:
        """Digest of the cut, call sequence, and accounting; equal runs match."""
        payload = "|".join(
            (
                self.trace.method,
                format(self.cut.side.mask, "x"),
                str(self.cut.weight),
                str(self.equivalent_calls),
                ";".join(f"{n},{m}" for n, m in self.meter.calls),
            )
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _zero_cut_report(inst: SteinerInstance, method: str) -> CutReport | None:
    """Weight-0 report on the lowest terminal's component if T spans several."""
    labels = components_after_removal(inst.graph, np.zeros(inst.graph.m, dtype=bool))
    home = labels[inst.terminals.smallest()]
    if (labels[inst.terminals.bools()] == home).all():
        return None
    cut = Cut(VertexSet.from_bools(labels == home), 0)
    return checked_report(inst, cut, FlowMeter(), DriverTrace(method=method, zero_cut=True))


def _guess_ladder(graph: WeightedGraph, terminals: VertexSet) -> tuple[int, ...]:
    """Powers of two from 1 to the first at or above the least terminal degree.

    For terminals that share a component the minimum Steiner cut weighs
    between 1 and that degree, so some guess is within a factor two above it.
    """
    ub = int(graph.degrees[terminals.bools()].min())
    return tuple(1 << i for i in range((ub - 1).bit_length() + 1))


def unbalanced_case(
    engine,
    inst: SteinerInstance,
    pool: VertexSet,
    k: int,
    meter: FlowMeter,
) -> tuple[Cut, int]:
    """Best isolating cut over a family that catches k-unbalanced minimum cuts.

    If some minimum Steiner cut keeps at most k pool terminals on one side,
    some family set meets that side in exactly one terminal and the
    isolating cut for it has exactly the minimum weight. Returns that cut
    and the family size, which is the number of isolating runs made. The
    runs go to ``minimum_isolating_cuts_family`` in one call, so their
    independent flows share engine batches.
    """
    if len(pool) < 2:
        raise InputError("pool must have at least two terminals")
    if k < 1:
        raise InputError("k must be positive")
    if not pool.issubset(inst.terminals):
        raise InputError("pool must be a subset of the terminals")
    members = pool.members()
    family = isolator_family_min2(len(members), min(k, len(members) - 1))
    terminal_sets = [
        VertexSet.from_ids(inst.graph.n, (members[i] for i in fset)) for fset in family.sets
    ]
    best: Cut | None = None
    for iso in minimum_isolating_cuts_family(engine, inst.graph, terminal_sets, meter):
        best = _lighter(best, iso.best().cut)
    return best, len(family.sets)


def sparsify_terminals(
    graph: WeightedGraph,
    pool: VertexSet,
    phi: Fraction,
    lam_guess: int,
    memo: dict | None = None,
) -> tuple[VertexSet, ExpanderDecomposition]:
    """Thin the pool to a few lowest-id representatives per expander cluster.

    Decomposes under uniform demand lam_guess on the pool. Clusters with at
    most 1/phi^2 pool terminals keep one representative, larger ones keep
    ceil(1 + 1/phi). When lam_guess is at least the true minimum weight and
    every cluster is a phi-expander, the kept set still touches both sides
    of some minimum Steiner cut. Uncertified clusters are thinned too, so
    that holds only as far as the spectral heuristic found every sparse cut.
    memo is handed to expander_decompose; sharing one across guesses runs
    one eigendecomposition per cluster graph for the whole ladder, and one
    spectral sweep per cluster graph and demand pattern (up to scale), so a
    graph met again under a thinned pool is swept again. A total
    demand lam_guess * |pool| past the exactness limit raises
    DecompositionError, so the driver abandons that guess.
    """
    if len(pool) < 2:
        raise InputError("pool must have at least two terminals")
    if lam_guess < 1:
        raise InputError("weight guess must be positive")
    if lam_guess * len(pool) > MAX_TOTAL_WEIGHT:
        raise DecompositionError("total demand of the guess passes the exactness limit")
    demands = DemandVector.uniform(graph.n, lam_guess, support=pool)
    dec = expander_decompose(graph, demands, phi, memo=memo)
    small_pick = 1
    large_pick = 1 + (phi.denominator + phi.numerator - 1) // phi.numerator
    num2 = phi.numerator * phi.numerator
    den2 = phi.denominator * phi.denominator
    kept: list[int] = []
    for cluster in dec.clusters:
        inside = cluster.intersection(pool)
        count = len(inside)
        if count == 0:
            continue
        take = small_pick if count * num2 <= den2 else large_pick
        kept.extend(inside.members()[:take])
    return VertexSet.from_ids(graph.n, kept), dec


def _pairwise_mincut(
    engine, graph: WeightedGraph, pool: VertexSet, meter: FlowMeter
) -> Cut:
    """Exact minimum cut separating the pool, via |pool|-1 flows.

    Fixing the lowest pool vertex as the source is enough: whenever the
    pool touches both sides of some minimum cut, the source sits on one
    side and some other pool vertex on the other.
    """
    return naive_steiner(engine, SteinerInstance(graph, pool), meter)


def _lighter(best: Cut | None, cut: Cut) -> Cut:
    """The lighter of two cuts; the earlier one (best) wins ties."""
    return cut if best is None or cut.weight < best.weight else best


def checked_report(
    inst: SteinerInstance,
    cut: Cut,
    meter: FlowMeter,
    trace: DriverTrace,
) -> CutReport:
    """Report a solver's answer after checking it is a Steiner cut of its weight.

    Both drivers and ``bench.run_method``'s baselines report through here.

    The run's flow memo is emptied here: the report keeps the meter, and
    callers often keep many reports. The meter's counts, recalled included,
    do not read the memo.
    """
    meter.memo.clear()
    inside = cut.side.intersection(inst.terminals)
    if not inside or inside == inst.terminals:
        raise ContractViolation("reported side does not separate the terminals")
    if not cut.verify(inst.graph):
        raise ContractViolation("reported weight does not match the side")
    return CutReport(cut, meter, trace)


def steiner_mincut_det(engine, inst: SteinerInstance, cfg: AlgoConfig | None = None) -> CutReport:
    """Deterministic exact minimum Steiner cut.

    Uses polylogarithmically many flows (in the metered, size-normalized
    sense) when the unbalance threshold k is at its derived default.
    """
    zero = _zero_cut_report(inst, "det")
    if zero is not None:
        return zero
    cfg = cfg or AlgoConfig()
    graph, terminals = inst.graph, inst.terminals
    meter = FlowMeter()
    trace = DriverTrace(method="det")

    k = cfg.k_effective()
    best: Cut | None = None
    # Guesses often reach the same pool again; each pool is solved once.
    run_unbalanced = functools.cache(lambda pool: unbalanced_case(engine, inst, pool, k, meter))
    pairwise = functools.cache(lambda pool: _pairwise_mincut(engine, graph, pool, meter))
    # One memo for the whole ladder: one eigendecomposition per cluster graph,
    # and one spectral sweep per demand pattern. Guesses on one pool differ
    # only in demand scale; a thinned pool is a new pattern on the same graphs.
    spectral_memo: dict = {}

    def run_pairwise(pool: VertexSet) -> Cut:
        trace.pairwise_sizes.append(len(pool))
        return pairwise(pool)

    if len(terminals) < k:
        best = run_pairwise(terminals)
    else:
        trace.lambda_guesses = _guess_ladder(graph, terminals)
        dead: list[tuple[int, VertexSet]] = []
        for guess in trace.lambda_guesses:
            gtrace = GuessTrace(lambda_guess=guess)
            trace.guess_traces.append(gtrace)
            pool = terminals
            while len(pool) >= k:
                cut, family_sets = run_unbalanced(pool)
                best = _lighter(best, cut)
                rtrace = RoundTrace(len(pool), family_sets, cut.weight)
                gtrace.rounds.append(rtrace)
                try:
                    thinned, dec = sparsify_terminals(
                        graph, pool, cfg.phi, guess, spectral_memo
                    )
                except DecompositionError:
                    gtrace.outcome = "decomposition-failed"
                else:
                    rtrace.cluster_count = len(dec.clusters)
                    rtrace.sparsified_to = len(thinned)
                    if len(thinned) >= 2 and 2 * len(thinned) <= len(pool):
                        pool = thinned
                        continue
                    gtrace.outcome = "collapsed" if len(thinned) < 2 else "not-halved"
                # The guess is abandoned; the fallback may still need its pool.
                dead.append((guess, pool))
                break
            else:
                best = _lighter(best, run_pairwise(pool))
            gtrace.final_u_size = len(pool)

        # best only falls, so a guess skipped here would stay skipped.
        for guess, pool in dead:
            if guess < 2 * best.weight:
                cut = naive_steiner(engine, SteinerInstance(graph, pool), meter)
                best = _lighter(best, cut)
                trace.fallback_runs.append((guess, len(pool)))

    return checked_report(inst, best, meter, trace)


def steiner_mincut_rand(engine, inst: SteinerInstance, cfg: AlgoConfig | None = None) -> CutReport:
    """Randomized minimum Steiner cut; exact with high probability.

    Samples terminal subsets at geometric rates (the full set at scale
    zero), folds the best isolating cut of each distinct sample, and adds
    one direct flow between the two lowest terminals. Deterministic for a
    fixed seed; repeated samples cost nothing extra.
    """
    zero = _zero_cut_report(inst, "rand")
    if zero is not None:
        return zero
    cfg = cfg or AlgoConfig()
    graph, terminals = inst.graph, inst.terminals
    meter = FlowMeter()
    trace = DriverTrace(method="rand")

    members = terminals.members()
    reps = cfg.reps_for(graph.n)
    rng = random.Random(cfg.seed)
    scales = len(members).bit_length() - 1
    seen: set[int] = set()
    samples: list[VertexSet] = []
    for scale in range(scales + 1):
        for rep in range(reps):
            if scale == 0:
                rmask = terminals.mask
            else:
                rmask = 0
                rate = 1.0 / (1 << scale)
                for v in members:
                    if rng.random() < rate:
                        rmask |= 1 << v
            size = rmask.bit_count()
            fresh = size >= 2 and rmask not in seen
            trace.samples.append((scale, rep, size, fresh))
            if fresh:
                seen.add(rmask)
                samples.append(VertexSet(graph.n, rmask))

    # No sample depends on a flow, so every fresh one runs in one batched call.
    best: Cut | None = None
    for iso in minimum_isolating_cuts_family(engine, graph, samples, meter):
        best = _lighter(best, iso.best().cut)

    s, t = members[0], members[1]
    best = _lighter(best, max_flow(engine, graph, s, t, meter))
    return checked_report(inst, best, meter, trace)


def global_mincut_det(engine, graph: WeightedGraph, cfg: AlgoConfig | None = None) -> CutReport:
    """Deterministic exact global minimum cut (every vertex a terminal)."""
    if graph.n < 2:
        raise InputError("global cut needs at least two vertices")
    return steiner_mincut_det(engine, SteinerInstance(graph, graph.full_set), cfg)

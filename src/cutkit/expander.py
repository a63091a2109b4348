"""Demand-weighted expander decomposition by recursive sparse-cut removal.

Sparsity of a cut S inside a cluster is w(E(S, S-bar)) / min(d(S), d(S-bar))
for a nonnegative integer demand vector d; a cluster is a phi-expander when
no cut has sparsity below phi. Decomposition repeatedly removes the sparsest
violating cut, re-deriving each sub-cluster's demands as base demand plus
the weight to the rest of the whole graph, so earlier cut edges show up as
demand in later rounds.

Clusters of at most EXHAUSTIVE_LIMIT vertices are certified by enumerating
every cut exactly; the cut-weight and demand tables over all 2^n masks are
built by subset doubling in O(2^n) element operations. Larger clusters fall
back to a deterministic spectral sweep plus single-vertex local moves and
are flagged as uncertified.

Scaling every demand by g > 0 scales every sparsity the spectral search
compares by 1/g, so it picks the same cut; only the final test against phi
depends on the scale. The search therefore runs on demands divided by their
gcd and is memoized in a dict keyed on the cluster's vertex count, the
bytes of its edge arrays and the reduced demands, so each entry keeps
about 24 bytes per cluster edge alive for as long as the dict lives.
The caller owns the dict: the Steiner driver keeps one per run, so a
cluster that recurs along its guess ladder is searched once;
expander_decompose uses a fresh one when given none, and verify_expander
always does.
"""

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ContractViolation, DecompositionError, InputError
from .graph import (
    MAX_TOTAL_WEIGHT,
    VertexSet,
    WeightedGraph,
    cut_weight,
    induced_subgraph,
)

EXHAUSTIVE_LIMIT = 20
INT64_LIMIT = 1 << 63


@dataclass(frozen=True)
class DemandVector:
    values: tuple[int, ...]

    def __post_init__(self):
        for d in self.values:
            if not isinstance(d, int) or d < 0:
                raise InputError(f"demands must be nonnegative integers, got {d!r}")
        if sum(self.values) > MAX_TOTAL_WEIGHT:
            raise InputError("total demand too large")

    @classmethod
    def uniform(cls, n: int, value: int, support: VertexSet | None = None) -> "DemandVector":
        if support is None:
            return cls((value,) * n)
        if support.n != n:
            raise InputError("support universe mismatch")
        return cls(tuple(value if v in support else 0 for v in range(n)))

    @classmethod
    def degrees(cls, graph: WeightedGraph) -> "DemandVector":
        return cls(tuple(graph.degrees.tolist()))

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def total(self) -> int:
        return sum(self.values)

    def mass(self, side: VertexSet) -> int:
        return sum(self.values[v] for v in side)


def sparsity(
    graph: WeightedGraph, side: VertexSet, demands: DemandVector
) -> Fraction | None:
    """Demand-weighted sparsity of a cut, or None for an infinite ratio.

    None means the lighter side carries zero demand, so the cut does not
    constrain expansion at all.
    """
    if demands.n != graph.n:
        raise InputError("demand vector length must match graph")
    cross = cut_weight(graph, side)
    d_in = demands.mass(side)
    denom = min(d_in, demands.total - d_in)
    if denom == 0:
        return None
    return Fraction(cross, denom)


def _check_phi(phi: Fraction) -> None:
    if not isinstance(phi, Fraction) or not 0 < phi <= 1:
        raise InputError(f"phi must be a Fraction in (0, 1], got {phi}")


def _check_certify_limit(certify_limit: int) -> None:
    # Past EXHAUSTIVE_LIMIT the exact tables would hold 2^certify_limit entries.
    if not 0 <= certify_limit <= EXHAUSTIVE_LIMIT:
        raise InputError(
            f"certify_limit must be in [0, {EXHAUSTIVE_LIMIT}], got {certify_limit}"
        )


def _exhaustive_violating(
    graph: WeightedGraph, demands: list[int], phi: Fraction
) -> int | None:
    """Mask of the exact sparsest violating cut, or None if none exists.

    The cut-weight and demand tables are built by subset doubling: for
    S within {0..v-1}, cross[S + v] = cross[S] + deg(v) - 2 w(v, S), and
    w(v, .) is itself doubled out of row v of the weight matrix, so the
    whole build is O(2^n) element operations. Candidate masks are
    preselected by float ratio with slack, then compared with exact
    rationals; ties go to fewer vertices, then lower member ids.
    """
    n = graph.n
    us, vs, ws = graph.edge_arrays
    weight = np.zeros((n, n), dtype=np.int64)
    weight[us, vs] = ws
    weight[vs, us] = ws
    deg = weight.sum(axis=1)
    cross = np.zeros(1 << n, dtype=np.int64)
    dsum = np.zeros(1 << n, dtype=np.int64)
    to_v = np.zeros(1 << max(n - 1, 0), dtype=np.int64)
    for v in range(n):
        half = 1 << v
        # to_v[S] = w(v, S) for S within {0..v-1}, doubled one bit at a time.
        for u in range(v):
            low = 1 << u
            np.add(to_v[:low], weight[v, u], out=to_v[low : 2 * low])
        # cross[S] and deg(v) are each at most the total weight, below 2^62,
        # so their int64 sum stays below 2^63; so does 2 w(v, S) <= 2 deg(v).
        np.add(cross[:half], deg[v], out=cross[half : 2 * half])
        cross[half : 2 * half] -= 2 * to_v[:half]
        np.add(dsum[:half], demands[v], out=dsum[half : 2 * half])
    total = sum(demands)
    mindem = np.minimum(dsum, total - dsum)
    num, den = phi.numerator, phi.denominator
    # Compare in int64 when both products provably fit, exactly otherwise;
    # the floor of 1 also keeps num and den themselves within int64.
    cross_bound = max(int(cross.max()), 1) * den
    demand_bound = num * max(int(mindem.max()), 1)
    if cross_bound < INT64_LIMIT and demand_bound < INT64_LIMIT:
        violating = cross * den < num * mindem
    else:
        violating = cross.astype(object) * den < num * mindem.astype(object)
    if not violating.any():
        return None
    ratio = np.where(violating, cross / np.maximum(mindem, 1), np.inf)
    fmin = ratio.min()
    cand = np.nonzero(ratio <= fmin * (1 + 1e-9) + 1e-12)[0]
    best_mask = None
    best_key = None
    for m in cand:
        m = int(m)
        key = (
            Fraction(int(cross[m]), int(mindem[m])),
            m.bit_count(),
            VertexSet(n, m).members(),
        )
        if best_key is None or key < best_key:
            best_key = key
            best_mask = m
    return best_mask


def _spectral_search(
    graph: WeightedGraph, demands: tuple[int, ...]
) -> tuple[int, int, int] | None:
    """Spectral sweep plus first-improvement vertex moves; may miss cuts.

    Returns (mask, cross, denominator) of the sparsest cut found, whose
    sparsity is cross / denominator, or None when no sweep cut has positive
    demand on both sides. Floats appear only in the vertex ordering; every
    sparsity that decides anything is compared as an exact rational, so
    scaling all demands by g returns the same mask and cross with the
    denominator scaled by g.
    """
    n = graph.n
    total = sum(demands)
    us, vs, ws = graph.edge_arrays
    w = np.zeros((n, n), dtype=np.float64)
    w[us, vs] = ws
    w[vs, us] = ws
    deg = w.sum(axis=1)
    inv_sqrt = 1.0 / np.sqrt(np.maximum(deg, 1.0))
    lap = np.eye(n) - inv_sqrt[:, None] * w * inv_sqrt[None, :]
    _, vecs = np.linalg.eigh(lap)
    fiedler = vecs[:, 1]
    for x in fiedler:
        if x != 0:
            if x < 0:
                fiedler = -fiedler
            break
    order = np.lexsort((np.arange(n), fiedler))

    adj = graph.adj
    best_mask = None
    best_s: Fraction | None = None
    mask = 0
    d_in = 0
    cross = 0
    for idx in range(n - 1):
        v = int(order[idx])
        for x, wt in adj[v]:
            cross += -wt if (mask >> x) & 1 else wt
        mask |= 1 << v
        d_in += demands[v]
        denom = min(d_in, total - d_in)
        if denom > 0:
            s = Fraction(cross, denom)
            if best_s is None or s < best_s:
                best_s = s
                best_mask = mask

    if best_mask is None:
        return None
    mask = best_mask
    cross = cut_weight(graph, VertexSet(n, mask))
    d_in = sum(d for v, d in enumerate(demands) if (mask >> v) & 1)
    current = Fraction(cross, min(d_in, total - d_in))
    full = (1 << n) - 1
    for _ in range(4 * n):
        improved = False
        for v in range(n):
            inside = (mask >> v) & 1
            new_mask = mask ^ (1 << v)
            if new_mask == 0 or new_mask == full:
                continue
            delta = 0
            for x, wt in adj[v]:
                delta += -wt if ((mask >> x) & 1) != inside else wt
            new_cross = cross + delta
            new_din = d_in - demands[v] if inside else d_in + demands[v]
            denom = min(new_din, total - new_din)
            if denom <= 0:
                continue
            s = Fraction(new_cross, denom)
            if s < current:
                mask, cross, d_in, current = new_mask, new_cross, new_din, s
                improved = True
        if not improved:
            break
    return mask, cross, min(d_in, total - d_in)


def _heuristic_violating(
    graph: WeightedGraph, demands: list[int], phi: Fraction, memo: dict
) -> int | None:
    """Mask of the spectral search's cut if it is sparser than phi, else None.

    The search runs on the demands divided by their gcd g and is memoized
    in memo: its every comparison is invariant under scaling, so only the
    test cross / (denominator * g) < phi depends on g. The key is the
    graph's vertex count, the bytes of its three edge arrays and the
    reduced demands, so an entry keeps about 24 bytes per cluster edge
    and the demand tuple alive, but no graph or array; the value is three
    ints or None.
    """
    scale = math.gcd(*demands)
    if scale == 0:
        return None
    reduced = tuple(d // scale for d in demands)
    key = (graph.n, *(a.tobytes() for a in graph.edge_arrays), reduced)
    if key not in memo:
        memo[key] = _spectral_search(graph, reduced)
    found = memo[key]
    if found is None:
        return None
    mask, cross, denom = found
    return mask if Fraction(cross, denom * scale) < phi else None


def _violating_cut(
    graph: WeightedGraph,
    demands: list[int],
    phi: Fraction,
    certify_limit: int,
    memo: dict,
) -> tuple[int | None, bool]:
    """Mask of a cut sparser than phi (or None), and whether the search was exact.

    Exhaustive up to certify_limit vertices, in O(2^n) table work; above it
    the spectral heuristic, whose scale-free search is looked up in memo
    (see _heuristic_violating). A witness from either is re-checked exactly.
    A graph of at most one vertex has no proper cut, so none violates.
    """
    if graph.n <= 1:
        return None, True
    certified = graph.n <= certify_limit
    if certified:
        mask = _exhaustive_violating(graph, demands, phi)
    else:
        mask = _heuristic_violating(graph, demands, phi, memo)
    if mask is not None:
        side = VertexSet(graph.n, mask)
        d_in = sum(demands[v] for v in side)
        denom = min(d_in, sum(demands) - d_in)
        if denom == 0 or cut_weight(graph, side) >= phi * denom:
            raise ContractViolation("violating-cut witness is not sparser than phi")
    return mask, certified


@dataclass(frozen=True)
class ExpanderCheck:
    ok: bool
    certified: bool
    witness: VertexSet | None
    witness_sparsity: Fraction | None


def verify_expander(
    graph: WeightedGraph,
    demands: DemandVector,
    phi: Fraction,
    certify_limit: int = EXHAUSTIVE_LIMIT,
) -> ExpanderCheck:
    """Check whether every cut of the graph has sparsity at least phi.

    Exhaustive (and therefore a certificate) up to certify_limit vertices;
    above that the spectral heuristic only ever refutes, so ok=True with
    certified=False is advisory. certify_limit must lie in
    [0, EXHAUSTIVE_LIMIT].
    """
    _check_phi(phi)
    _check_certify_limit(certify_limit)
    if demands.n != graph.n:
        raise InputError("demand vector length must match graph")
    mask, certified = _violating_cut(graph, list(demands.values), phi, certify_limit, {})
    if mask is None:
        return ExpanderCheck(True, certified, None, None)
    side = VertexSet(graph.n, mask)
    return ExpanderCheck(False, certified, side, sparsity(graph, side, demands))


@dataclass
class ExpanderDecomposition:
    graph: WeightedGraph
    demands: DemandVector
    phi: Fraction
    clusters: tuple[VertexSet, ...]
    certified: tuple[bool, ...]
    inter_weight: int
    budget: Fraction
    splits: int

    def labels(self) -> list[int]:
        """Cluster index of each vertex."""
        out = [-1] * self.graph.n
        for i, cluster in enumerate(self.clusters):
            for v in cluster:
                out[v] = i
        return out


def augmented_demands(
    graph: WeightedGraph, cluster: VertexSet, demands: DemandVector
) -> list[int]:
    """Base demand plus boundary weight, aligned with cluster.members().

    The boundary term is the edge weight from each vertex to everything
    outside the cluster, so the augmentation satisfies the identity
    sum_v (d_aug(v) - d(v)) == w(E(cluster, rest)).
    """
    us, vs, ws = graph.edge_arrays
    inside = cluster.bools()
    crossing = inside[us] != inside[vs]
    boundary = np.zeros(graph.n, dtype=np.int64)
    np.add.at(boundary, us[crossing], ws[crossing])
    np.add.at(boundary, vs[crossing], ws[crossing])
    ids = cluster.members()
    return [demands.values[v] + b for v, b in zip(ids, boundary[ids].tolist())]


def expander_decompose(
    graph: WeightedGraph,
    demands: DemandVector,
    phi: Fraction,
    c_b: int = 1,
    certify_limit: int = EXHAUSTIVE_LIMIT,
    memo: dict | None = None,
) -> ExpanderDecomposition:
    """Partition V into clusters with no (detected) cut sparser than phi.

    memo is the spectral search memo. Callers that decompose the same
    graph under demands differing only in scale share one; a fresh one is
    used when none is given. Raises DecompositionError if the split count
    passes 4n or the final inter-cluster weight exceeds
    c_b * phi * d(V) * ceil(lg n)^2. certify_limit must lie in
    [0, EXHAUSTIVE_LIMIT].
    """
    _check_phi(phi)
    _check_certify_limit(certify_limit)
    if demands.n != graph.n:
        raise InputError("demand vector length must match graph")
    if c_b < 1:
        raise InputError("budget constant must be at least 1")
    if memo is None:
        memo = {}
    n = graph.n
    cap = 4 * n
    splits = 0
    queue: deque[VertexSet] = deque([graph.full_set])
    done: list[tuple[VertexSet, bool]] = []
    while queue:
        cluster = queue.popleft()
        if len(cluster) == 1:
            done.append((cluster, True))
            continue
        sub, ids = induced_subgraph(graph, cluster)
        aug = augmented_demands(graph, cluster, demands)
        mask, certified = _violating_cut(sub, aug, phi, certify_limit, memo)
        if mask is None:
            done.append((cluster, certified))
            continue
        splits += 1
        if splits > cap:
            raise DecompositionError(f"more than {cap} splits; refinement diverged")
        side = VertexSet.from_ids(n, (ids[i] for i in VertexSet(sub.n, mask)))
        queue.append(side)
        queue.append(cluster.difference(side))

    done.sort(key=lambda item: item[0].smallest())
    clusters = tuple(c for c, _ in done)
    certified_flags = tuple(flag for _, flag in done)
    inter = sum(cut_weight(graph, c) for c in clusters if len(c) < n) // 2
    lg = (max(n, 1) - 1).bit_length()
    budget = Fraction(c_b) * phi * demands.total * lg * lg
    if inter > budget:
        raise DecompositionError(
            f"inter-cluster weight {inter} exceeds budget {budget}"
        )
    return ExpanderDecomposition(
        graph=graph,
        demands=demands,
        phi=phi,
        clusters=clusters,
        certified=certified_flags,
        inter_weight=inter,
        budget=budget,
        splits=splits,
    )


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

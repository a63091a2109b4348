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
are flagged as uncertified. Both searches choose a cut by one rule
(_sparsest): least cross / min(d(S), d(S-bar)) over cuts with a positive
denominator, ties to fewer vertices, then lower member ids. The exhaustive
search tests that choice against phi once; the spectral search first
improves it by single-vertex moves.

Scaling every demand by g > 0 scales every sparsity the spectral search
compares by 1/g, so it picks the same cut; only the final test against phi
depends on the scale. The search therefore runs on demands divided by their
gcd and is memoized in a dict keyed on the cluster's vertex count, its
``WeightedGraph.digest`` and the reduced demands. The sweep order itself
depends on the graph alone, so the same dict keeps it under the vertex
count and digest: one eigendecomposition per cluster graph, and one sweep
and local-move pass per demand pattern. The caller owns the dict: the
Steiner driver keeps one per run, so a cluster graph that recurs along its
guess ladder is decomposed once, however its pool is thinned;
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


@dataclass(frozen=True)
class DemandVector:
    values: tuple[int, ...]

    def __post_init__(self):
        for d in self.values:
            if isinstance(d, bool) or not isinstance(d, int) or d < 0:
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


def _weight_matrix(graph: WeightedGraph) -> np.ndarray:
    """Dense symmetric int64 matrix of edge weights, zero on the diagonal.

    Every entry and every row sum is at most the total weight, below 2^62.
    """
    us, vs, ws = graph.edge_arrays
    weight = np.zeros((graph.n, graph.n), dtype=np.int64)
    weight[us, vs] = ws
    weight[vs, us] = ws
    return weight


def _sparsest(cross: np.ndarray, denom: np.ndarray, tie_key) -> int | None:
    """Index of the least cross / denom over positive denom, or None.

    Ties go to the least tie_key(indices), int64 keys that order cuts by
    vertex count, then by ascending member lists. A float ratio preselects
    near-ties with slack; their gcd-reduced ratios are compared exactly.
    """
    positive = denom > 0
    if not positive.any():
        return None
    ratio = np.where(positive, cross / np.maximum(denom, 1), np.inf)
    near = np.flatnonzero(ratio <= ratio.min() * (1 + 1e-9) + 1e-12)
    gcd = np.gcd(cross[near], denom[near])
    num, den = cross[near] // gcd, denom[near] // gcd
    least = min(set(zip(num.tolist(), den.tolist())), key=lambda p: Fraction(*p))
    tied = near[(num == least[0]) & (den == least[1])]
    return int(tied[np.argmin(tie_key(tied))])


def _mask_order(masks: np.ndarray, n: int) -> np.ndarray:
    """int64 keys ordering n-bit masks by size, then by ascending member lists.

    Of two sets of one size, the one holding the least vertex of their
    symmetric difference comes first: an absent vertex v adds 2^(n-1-v).
    """
    size = np.zeros(masks.size, dtype=np.int64)
    absent = np.zeros(masks.size, dtype=np.int64)
    for v in range(n):
        bit = (masks >> v) & 1
        size += bit
        absent |= (1 - bit) << (n - 1 - v)
    return (size << n) | absent


def _exhaustive_violating(
    graph: WeightedGraph, demands: list[int], phi: Fraction
) -> int | None:
    """Mask of the exact sparsest violating cut, or None if none exists.

    The cut-weight and demand tables are built by subset doubling: for
    S within {0..v-1}, cross[S + v] = cross[S] + deg(v) - 2 w(v, S), and
    w(v, .) is itself doubled out of row v of the weight matrix, so the
    whole build is O(2^n) element operations. _sparsest picks the sparsest
    cut; it violates phi exactly when some cut does, which is tested once,
    in Python ints.
    """
    n = graph.n
    weight = _weight_matrix(graph)
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
    mindem = np.minimum(dsum, sum(demands) - dsum)
    mask = _sparsest(cross, mindem, lambda masks: _mask_order(masks, n))
    if mask is None or int(cross[mask]) * phi.denominator >= phi.numerator * int(mindem[mask]):
        return None
    return mask


def _sweep(
    graph: WeightedGraph, weight: np.ndarray, deg: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The Fiedler sweep order and the cut weight of each proper prefix.

    The order sorts the vertices by the sign-fixed second eigenvector of
    the normalized Laplacian, ties to lower ids. A prefix's cut weight is
    its volume minus twice the weight of the edges whose later endpoint it
    holds: int64 prefix sums, each below 2^63. Both arrays depend on the
    graph alone.
    """
    n = graph.n
    w = weight.astype(np.float64)
    inv_sqrt = 1.0 / np.sqrt(np.maximum(w.sum(axis=1), 1.0))
    lap = np.eye(n) - inv_sqrt[:, None] * w * inv_sqrt[None, :]
    _, vecs = np.linalg.eigh(lap)
    fiedler = vecs[:, 1]
    nonzero = fiedler[fiedler != 0]
    if nonzero.size and nonzero[0] < 0:
        fiedler = -fiedler
    order = np.lexsort((np.arange(n), fiedler))

    us, vs, ws = graph.edge_arrays
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    inner = np.zeros(n, dtype=np.int64)
    np.add.at(inner, np.maximum(rank[us], rank[vs]), ws)
    prefix_cross = (np.cumsum(deg[order]) - 2 * np.cumsum(inner))[:-1]
    return order, prefix_cross


def _spectral_search(
    graph: WeightedGraph, demands: tuple[int, ...], memo: dict
) -> tuple[int, int, int] | None:
    """Spectral sweep plus first-improvement vertex moves; may miss cuts.

    Returns (mask, cross, denominator) of the sparsest cut found, whose
    sparsity is cross / denominator, or None when no sweep cut has positive
    demand on both sides. Floats only order the vertices and preselect in
    _sparsest; every sparsity that decides anything is compared exactly, so
    scaling all demands by g returns the same mask and cross with the
    denominator scaled by g.

    The sweep (_sweep) depends on the graph alone, so memo keeps it under
    (graph.n, graph.digest): one eigendecomposition per graph however many
    demand vectors it is searched under. Only its two O(n) arrays are kept,
    never the n x n weight matrix.

    The moves keep gain[x] = deg(x) - 2 w(x, S) as an int64 vector: v joining
    S raises the cut weight by gain[v] and v leaving lowers it by gain[v],
    and either move shifts gain by -/+ 2 weight[v]; |gain[x]| <= deg(x) < 2^62.
    A move that empties a side leaves it zero demand, so the denominator
    test skips it.
    """
    n = graph.n
    total = sum(demands)
    weight = _weight_matrix(graph)
    deg = weight.sum(axis=1)
    key = (n, graph.digest)
    if key not in memo:
        memo[key] = _sweep(graph, weight, deg)
    order, prefix_cross = memo[key]
    prefix_din = np.cumsum(np.array(demands, dtype=np.int64)[order])[:-1]
    order = order.tolist()
    # Prefix i holds i + 1 vertices, so the index itself is the tie order.
    i = _sparsest(prefix_cross, np.minimum(prefix_din, total - prefix_din), lambda i: i)
    if i is None:
        return None
    mask = sum(1 << v for v in order[: i + 1])
    cross, d_in = int(prefix_cross[i]), int(prefix_din[i])
    gain = deg - 2 * weight[:, VertexSet(n, mask).bools()].sum(axis=1)
    for _ in range(4 * n):
        improved = False
        for v in range(n):
            inside = (mask >> v) & 1
            new_din = d_in - demands[v] if inside else d_in + demands[v]
            denom = min(new_din, total - new_din)
            if denom <= 0:
                continue
            new_cross = cross - int(gain[v]) if inside else cross + int(gain[v])
            if new_cross * min(d_in, total - d_in) < cross * denom:
                mask, cross, d_in = mask ^ (1 << v), new_cross, new_din
                gain += (2 if inside else -2) * weight[v]
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
    test cross / (denominator * g) < phi depends on g. memo holds two kinds
    of entry, and no graph (see ``WeightedGraph.digest``):
    - (graph.n, graph.digest) -> the graph's sweep, two O(n) arrays, made
      by one eigendecomposition (see _spectral_search);
    - (graph.n, graph.digest, reduced demands) -> the search's three ints
      or None, one sweep and local-move pass per demand pattern.
    """
    scale = math.gcd(*demands)
    if scale == 0:
        return None
    reduced = tuple(d // scale for d in demands)
    key = (graph.n, graph.digest, reduced)
    if key not in memo:
        memo[key] = _spectral_search(graph, reduced, memo)
    found = memo[key]
    if found is None:
        return None
    mask, cross, denom = found
    return mask if Fraction(cross, denom * scale) < phi else None


def _violating_cut(
    graph: WeightedGraph,
    demands: list[int],
    phi: Fraction,
    memo: dict,
) -> tuple[int | None, bool]:
    """Mask of a cut sparser than phi (or None), and whether the search was exact.

    Exhaustive up to EXHAUSTIVE_LIMIT vertices, in O(2^n) table work; above it
    the spectral heuristic, whose scale-free search is looked up in memo
    (see _heuristic_violating). A witness from either is re-checked exactly.
    A graph of at most one vertex has no proper cut, so none violates.
    """
    if graph.n <= 1:
        return None, True
    certified = graph.n <= EXHAUSTIVE_LIMIT
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
) -> ExpanderCheck:
    """Check whether every cut of the graph has sparsity at least phi.

    Exhaustive (and therefore a certificate) up to EXHAUSTIVE_LIMIT
    vertices; above that the spectral heuristic only ever refutes, so
    ok=True with certified=False is advisory.
    """
    _check_phi(phi)
    if demands.n != graph.n:
        raise InputError("demand vector length must match graph")
    mask, certified = _violating_cut(graph, list(demands.values), phi, {})
    if mask is None:
        return ExpanderCheck(True, certified, None, None)
    side = VertexSet(graph.n, mask)
    return ExpanderCheck(False, certified, side, sparsity(graph, side, demands))


@dataclass
class ExpanderDecomposition:
    clusters: tuple[VertexSet, ...]
    certified: tuple[bool, ...]
    inter_weight: int
    budget: Fraction
    splits: int


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
    memo: dict | None = None,
) -> ExpanderDecomposition:
    """Partition V into clusters with no (detected) cut sparser than phi.

    memo is the spectral search memo (see _heuristic_violating). Callers
    that decompose the same graph more than once share one: a cluster graph
    met again costs no eigendecomposition, and a demand pattern met again
    (up to scale) no sweep. A fresh one is used when none is given.
    Raises DecompositionError if the split count passes 4n or the final
    inter-cluster weight exceeds the budget phi * d(V) * ceil(lg n)^2.
    """
    _check_phi(phi)
    if demands.n != graph.n:
        raise InputError("demand vector length must match graph")
    if memo is None:
        memo = {}
    n = graph.n
    cap = 4 * n
    splits = 0
    queue: deque[VertexSet] = deque([graph.full_set])
    done: list[tuple[VertexSet, bool]] = []
    inner = 0  # weight of the edges inside final clusters
    while queue:
        cluster = queue.popleft()
        if len(cluster) == 1:
            done.append((cluster, True))
            continue
        sub, ids = induced_subgraph(graph, cluster)
        aug = augmented_demands(graph, cluster, demands)
        mask, certified = _violating_cut(sub, aug, phi, memo)
        if mask is None:
            done.append((cluster, certified))
            inner += sub.total_weight
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
    inter = graph.total_weight - inner
    lg = (max(n, 1) - 1).bit_length()
    budget = phi * demands.total * lg * lg
    if inter > budget:
        raise DecompositionError(
            f"inter-cluster weight {inter} exceeds budget {budget}"
        )
    return ExpanderDecomposition(
        clusters=clusters,
        certified=certified_flags,
        inter_weight=inter,
        budget=budget,
        splits=splits,
    )

"""Deterministic isolator set families built from residue classes.

The residue maps x -> x mod p over a pool of small primes p >= k form a
(n, k)-splitter family: every k-subset S of [n] is mapped injectively by one
of them, so each class of that map meets S in at most one element. Counting
argument for the pool size: x mod p fails on S only if p divides some
difference x - y of distinct elements of S. The product of all C(k, 2) such
differences is below 2^(C(k,2) * ceil(lg n)), so at most C(k, 2) * ceil(lg n)
distinct primes divide it, and a pool of one more prime always contains one
with no collision on S. As a safety net every family on at most
EXHAUSTIVE_LIMIT elements is checked exhaustively when it is built; a
failure there raises rather than returning a family without the guarantee.
"""

import itertools
from collections.abc import Iterator
from dataclasses import dataclass

from .errors import ContractViolation, InputError, require_int
from .graph import VertexSet

EXHAUSTIVE_LIMIT = 16


def _primes_from(start: int, count: int) -> list[int]:
    """First `count` primes that are >= start."""
    primes: list[int] = []
    sieve: list[int] = []
    candidate = 2
    while len(primes) < count:
        if all(candidate % p for p in sieve if p * p <= candidate):
            sieve.append(candidate)
            if candidate >= start:
                primes.append(candidate)
        candidate += 1
    return primes


def _pool_size(n: int, k: int) -> int:
    log_term = max(1, (max(n, 2) - 1).bit_length())
    return k * (k - 1) // 2 * log_term + 1


def _check_args(n: int, k: int, min2: bool) -> None:
    """Both ints, 1 <= k <= n, and k < n for min2 so k partners exist."""
    require_int("n", n)
    require_int("k", k)
    if not 1 <= k <= n - min2:
        raise InputError(f"need 1 <= k <= {'n - 1' if min2 else 'n'}, got k={k}, n={n}")


def _cells(n: int, k: int) -> Iterator[int]:
    """Residue-class masks on [n] for every level k' <= k, in family order.

    Level one is the whole universe. Level k' >= 2 has, for each prime p in
    its pool, the classes {x : x mod p = j} for j < min(p, n). A set S with
    1 <= |S| <= k meets some class of level |S| in exactly one element.
    """
    yield (1 << n) - 1
    for kp in range(2, k + 1):
        for p in _primes_from(kp, _pool_size(n, kp)):
            classes = [0] * min(p, n)
            for x in range(n):
                classes[x % p] |= 1 << x
            yield from classes


@dataclass(frozen=True)
class SetFamily:
    """Family of vertex subsets with a recorded worst-case size bound.

    The guarantee depends on the variant. For "isolator": every nonempty
    S with |S| <= k has some member R with |R cap S| = {one element}. For
    "isolator_min2": the same, with every member of size at least two.
    """

    universe: int
    k: int
    sets: tuple[VertexSet, ...]
    size_bound: int
    variant: str

    def __post_init__(self) -> None:
        if len(self.sets) > self.size_bound:
            raise ContractViolation(
                f"family has {len(self.sets)} sets, recorded bound {self.size_bound}"
            )
        for s in self.sets:
            if not s:
                raise ContractViolation("family contains an empty set")
            if s.n != self.universe:
                raise ContractViolation("family set universe mismatch")

    def __len__(self) -> int:
        return len(self.sets)

    def __iter__(self):
        return iter(self.sets)


def family_size_bound(n: int, k: int, min2: bool = False) -> int:
    """Cap on the family size: one set per residue class, k per class for min2."""
    _check_args(n, k, min2)
    cells = sum(1 for _ in _cells(n, k))
    return cells * k if min2 else cells


def _build(n: int, k: int, min2: bool) -> SetFamily:
    _check_args(n, k, min2)
    masks: dict[int, None] = {}  # insertion-ordered set of distinct masks
    cells = 0
    for mask in _cells(n, k):
        cells += 1
        if min2 and mask.bit_count() == 1:
            partners = [y for y in range(k + 1) if 1 << y != mask][:k]
            masks.update(dict.fromkeys(mask | 1 << y for y in partners))
        else:
            masks[mask] = None
    family = SetFamily(
        universe=n,
        k=k,
        sets=tuple(VertexSet(n, m) for m in masks),
        size_bound=cells * k if min2 else cells,
        variant="isolator_min2" if min2 else "isolator",
    )
    if n <= EXHAUSTIVE_LIMIT:
        verify_isolator(family)
    return family


def isolator_family(n: int, k: int) -> SetFamily:
    """Distinct residue classes of every level k' <= k, in first-seen order."""
    return _build(n, k, min2=False)


def isolator_family_min2(n: int, k: int) -> SetFamily:
    """Isolator family with singletons padded out to pairs.

    Each singleton {x} is replaced by the pairs {x, y} for the k smallest
    ids y != x. A set S with |S| <= k and x in S rules out at most k - 1
    of those pairs, so some replacement still meets S exactly in x. Needs
    k < n so that k distinct partners exist.
    """
    return _build(n, k, min2=True)


def verify_isolator(family: SetFamily) -> None:
    """Exhaustively check the isolation guarantee; raises on any miss.

    Cost grows as C(n, k), so keep this to small universes.
    """
    masks = [s.mask for s in family.sets]
    if family.variant == "isolator_min2":
        masks = [m for m in masks if m.bit_count() >= 2]
    bits = [1 << x for x in range(family.universe)]
    # Consecutive subsets share most elements, so the set that isolated the
    # last one usually isolates the next and is tried first.
    hit = 0
    for size in range(1, family.k + 1):
        for subset in itertools.combinations(bits, size):
            smask = sum(subset)
            if (hit & smask).bit_count() == 1:
                continue
            for hit in masks:
                if (hit & smask).bit_count() == 1:
                    break
            else:
                ids = tuple(b.bit_length() - 1 for b in subset)
                raise ContractViolation(f"no family set isolates one element of {ids}")

"""Deterministic isolator set families built from residue classes.

The residue maps x -> x mod p over a pool of small primes p >= k form a
(n, k)-splitter family: every k-subset S of [n] is mapped injectively by one
of them, so each class of that map meets S in at most one element. Counting
argument for the pool size: x mod p fails on S only if p divides some
difference x - y of distinct elements of S. The product of all C(k, 2) such
differences is below 2^(C(k,2) * ceil(lg n)), so at most C(k, 2) * ceil(lg n)
distinct primes divide it, and a pool of one more prime always contains one
with no collision on S.

An isolating cut separates a member of a set from the rest of it, so every
set of the family has at least two members: a class that is a singleton
{x} is padded out to k pairs {x, y}. As a safety net every family on at
most EXHAUSTIVE_LIMIT elements is checked exhaustively when it is built; a
failure there raises rather than returning a family without the guarantee.
"""

import itertools
from collections.abc import Iterator
from dataclasses import dataclass

from .errors import ContractViolation, InputError, as_int
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


def _check_args(n: int, k: int) -> tuple[int, int]:
    """n and k as Python ints; 1 <= k < n leaves k partners for each padded singleton."""
    n, k = as_int("n", n), as_int("k", k)
    if not 1 <= k < n:
        raise InputError(f"need 1 <= k <= n - 1, got k={k}, n={n}")
    return n, k


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

    The guarantee: every nonempty S with |S| <= k has some member R with
    |R cap S| = {one element}, and every member has at least two elements.
    """

    universe: int
    k: int
    sets: tuple[VertexSet, ...]
    size_bound: int

    def __post_init__(self) -> None:
        if len(self.sets) > self.size_bound:
            raise ContractViolation(
                f"family has {len(self.sets)} sets, recorded bound {self.size_bound}"
            )
        for s in self.sets:
            if s.n != self.universe:
                raise ContractViolation("family set universe mismatch")
            if len(s) < 2:
                raise ContractViolation(f"family set {s.members()} has fewer than two members")

    def __len__(self) -> int:
        return len(self.sets)

    def __iter__(self):
        return iter(self.sets)


def family_size_bound(n: int, k: int) -> int:
    """Cap on the family size: k sets per residue class, as a singleton pads to k pairs.

    Needs 1 <= k < n, like the family itself.
    """
    n, k = _check_args(n, k)
    return k * sum(1 for _ in _cells(n, k))


def isolator_family_min2(n: int, k: int) -> SetFamily:
    """Distinct residue classes of every level k' <= k, singletons padded to pairs.

    Sets come in first-seen order. Each singleton {x} is replaced by the
    pairs {x, y} for the k smallest ids y != x. A set S with |S| <= k and x
    in S rules out at most k - 1 of those pairs, so some replacement still
    meets S exactly in x. Needs 1 <= k < n so that k distinct partners exist.
    """
    n, k = _check_args(n, k)
    masks: dict[int, None] = {}  # insertion-ordered set of distinct masks
    cells = 0
    for mask in _cells(n, k):
        cells += 1
        if mask.bit_count() == 1:
            partners = [y for y in range(k + 1) if 1 << y != mask][:k]
            masks.update(dict.fromkeys(mask | 1 << y for y in partners))
        else:
            masks[mask] = None
    family = SetFamily(
        universe=n, k=k, sets=tuple(VertexSet(n, m) for m in masks), size_bound=cells * k
    )
    if n <= EXHAUSTIVE_LIMIT:
        verify_isolator(family)
    return family


def verify_isolator(family: SetFamily) -> None:
    """Exhaustively check the isolation guarantee; raises on any miss.

    Cost grows as C(n, k), so keep this to small universes.
    """
    masks = [s.mask for s in family.sets]
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

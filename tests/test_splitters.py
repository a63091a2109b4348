import itertools

import numpy as np
import pytest

from cutkit import (
    ContractViolation,
    InputError,
    SetFamily,
    VertexSet,
    family_size_bound,
    isolator_family_min2,
    splitters,
    verify_isolator,
)


def isolates(family, subset):
    smask = sum(1 << x for x in subset)
    return any((r.mask & smask).bit_count() == 1 for r in family)


def test_numpy_int_arguments_build_the_same_family():
    assert isolator_family_min2(np.int64(5), 2) == isolator_family_min2(5, 2)
    assert family_size_bound(np.int64(5), np.int64(2)) == family_size_bound(5, 2)


def test_k1_family_is_single_universe():
    fam = isolator_family_min2(7, 1)
    assert [r.members() for r in fam] == [list(range(7))]
    assert fam.size_bound == 1


def test_every_pair_split_n8():
    fam = isolator_family_min2(8, 2)
    for pair in itertools.combinations(range(8), 2):
        assert isolates(fam, pair), pair


def test_every_triple_split_n16():
    fam = isolator_family_min2(16, 3)
    for triple in itertools.combinations(range(16), 3):
        assert isolates(fam, triple), triple


def test_family_arguments_validated():
    bad = [
        (isolator_family_min2, 0, 1),
        (isolator_family_min2, 5, 6),
        (isolator_family_min2, 5, 0),
        (isolator_family_min2, 10, 2.0),
        (isolator_family_min2, 10.0, 2),
        (isolator_family_min2, 10, True),
        (isolator_family_min2, 4, 4),
        (family_size_bound, 4, 4),
        (family_size_bound, 4, 9),
        (family_size_bound, 5, 0),
        (family_size_bound, 0, 1),
    ]
    for build, n, k in bad:
        with pytest.raises(InputError):
            build(n, k)


def first_primes_from(start, count):
    primes = []
    p = max(start, 2)
    while len(primes) < count:
        if all(p % d for d in range(2, int(p**0.5) + 1)):
            primes.append(p)
        p += 1
    return primes


def reference_cells(n, k):
    """The universe, then the residue classes mod each prime of every level's pool."""
    cells = [list(range(n))]
    log_term = max(1, (max(n, 2) - 1).bit_length())
    for kp in range(2, k + 1):
        for p in first_primes_from(kp, kp * (kp - 1) // 2 * log_term + 1):
            cells += [list(range(j, n, p)) for j in range(min(p, n))]
    return cells


def reference_family(n, k):
    sets = []
    for cell in reference_cells(n, k):
        if len(cell) == 1:
            x = cell[0]
            padded = [sorted((x, y)) for y in [y for y in range(n) if y != x][:k]]
        else:
            padded = [cell]
        sets += [s for s in padded if s not in sets]
    return sets, len(reference_cells(n, k)) * k


def test_families_match_residue_reference():
    cases = [(n, k) for n in range(2, 41) for k in range(1, min(n - 1, 5) + 1)]
    for n, k in cases + [(256, 2), (320, 2)]:
        fam = isolator_family_min2(n, k)
        sets, bound = reference_family(n, k)
        assert [r.members() for r in fam] == sets, (n, k)
        assert fam.size_bound == bound == family_size_bound(n, k)


def test_builder_safety_net_fires(monkeypatch):
    full = splitters._cells
    # (8, 1) has one cell, the universe; drop it.
    monkeypatch.setattr(splitters, "_cells", lambda n, k: list(full(n, k))[1:])
    with pytest.raises(ContractViolation):
        isolator_family_min2(8, 1)
    # No single cell of (8, 2) is essential, so keep only the universe and
    # the classes mod 2: the pair {0, 2} then meets every set in 0 or 2.
    monkeypatch.setattr(splitters, "_cells", lambda n, k: list(full(n, k))[:3])
    with pytest.raises(ContractViolation):
        isolator_family_min2(8, 2)


def test_isolator_covers_all_small_subsets():
    n, k = 12, 3
    fam = isolator_family_min2(n, k)
    assert len(fam) <= family_size_bound(n, k)
    for size in range(1, k + 1):
        for subset in itertools.combinations(range(n), size):
            smask = 0
            for x in subset:
                smask |= 1 << x
            assert any(
                bin(r.mask & smask).count("1") == 1 for r in fam
            ), subset


def test_isolator_verify_passes():
    verify_isolator(isolator_family_min2(10, 2))
    verify_isolator(isolator_family_min2(9, 3))


def test_isolator_min2_properties():
    n, k = 10, 3
    fam = isolator_family_min2(n, k)
    assert all(len(r) >= 2 for r in fam)
    assert len(fam) <= family_size_bound(n, k)
    verify_isolator(fam)


def test_isolator_min2_needs_partner_room():
    with pytest.raises(InputError):
        isolator_family_min2(4, 4)
    fam = isolator_family_min2(4, 3)
    verify_isolator(fam)


def test_min2_pads_with_smallest_partners():
    fam = isolator_family_min2(6, 2)
    pair_masks = {r.mask for r in fam if len(r) == 2}
    assert (1 << 0) | (1 << 1) in pair_masks
    for x in range(6):
        partners = [y for y in range(6) if y != x][:2]
        for y in partners:
            assert (1 << x) | (1 << y) in pair_masks, (x, y)


def test_size_bound_formula_monotone():
    assert family_size_bound(8, 1) == 1
    for n in (8, 16, 32):
        bounds = [family_size_bound(n, k) for k in range(1, 5)]
        assert bounds == sorted(bounds)


def test_set_family_validation():
    good = VertexSet.from_ids(4, [0, 1])
    with pytest.raises(ContractViolation):
        SetFamily(universe=4, k=2, sets=(good,), size_bound=0)
    with pytest.raises(ContractViolation):
        SetFamily(universe=4, k=2, sets=(VertexSet.empty(4),), size_bound=5)
    with pytest.raises(ContractViolation):
        SetFamily(universe=4, k=2, sets=(VertexSet.from_ids(4, [0]),), size_bound=5)
    with pytest.raises(ContractViolation):
        SetFamily(
            universe=4,
            k=2,
            sets=(VertexSet.from_ids(5, [0]),),
            size_bound=5,
        )


def test_verify_isolator_catches_broken_family():
    broken = SetFamily(
        universe=4,
        k=2,
        sets=(VertexSet.from_ids(4, [0, 1]),),
        size_bound=5,
    )
    with pytest.raises(ContractViolation):
        verify_isolator(broken)


def test_min2_family_deterministic():
    a = isolator_family_min2(9, 3)
    b = isolator_family_min2(9, 3)
    assert a.sets == b.sets

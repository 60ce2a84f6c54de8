import random
from fractions import Fraction

import pytest

from conftest import element_set, family_of, ksubsets_family
from partspread import guards
from partspread.errors import DomainError, ResourceLimitError
from partspread.partitions import bell, enumerate_partitions
from partspread.encoding import encode_family_parts, encode_parts
from partspread.setfam import (
    EdgesUniverse,
    ElementSet,
    PartsUniverse,
    PlainUniverse,
    SetFamily,
    _cover_exists,
    avoid,
    covering_number,
    family_from_text,
    family_to_text,
    mask_indices,
    restrict,
    star_count,
    stars,
)


def test_universe_equality():
    # edge and plain universes are equal by size; a parts universe only to itself
    e4, p4 = EdgesUniverse(4), PartsUniverse(4)
    assert EdgesUniverse(4) == e4 and hash(EdgesUniverse(4)) == hash(e4)
    assert EdgesUniverse(5) != e4 and PlainUniverse(6) != e4 and e4 != PlainUniverse(6)
    assert PartsUniverse(4) != p4 and p4 == p4
    assert ElementSet(EdgesUniverse(4), 0b11) == ElementSet(e4, 0b11)
    assert ElementSet(PlainUniverse(6), 0b11) != ElementSet(e4, 0b11)
    assert SetFamily(EdgesUniverse(4), [1, 2]) == SetFamily(e4, [2, 1])
    assert SetFamily(PartsUniverse(4), [1]) != SetFamily(p4, [1])
    assert restrict(SetFamily(e4, [3]), ElementSet(EdgesUniverse(4), 1)).masks == (2,)
    with pytest.raises(DomainError):
        restrict(SetFamily(e4, [3]), ElementSet(PlainUniverse(6), 1))


def test_family_dedup_and_average():
    f = family_of(4, {0, 1}, {0, 1}, {2})
    assert f.size == 2
    assert f.average_size() == Fraction(3, 2)
    assert f.average_size() <= f.max_size()


def test_restrict():
    f = family_of(4, {0, 1}, {0, 2}, {1, 2})
    empty = ElementSet(f.universe, 0)
    assert restrict(f, empty) == f
    r = restrict(f, element_set(f, [0]))
    assert {tuple(m.indices()) for m in r.members()} == {(1,), (2,)}
    # restrict composes over disjoint sets
    x, y = element_set(f, [0]), element_set(f, [1])
    assert restrict(restrict(f, x), y) == restrict(f, ElementSet(f.universe, x.mask | y.mask))


def test_restrict_encoded_bell(b4_encoded):
    u, fam = b4_encoded
    x = ElementSet.from_indices(u, [u.index_of(frozenset({4}))])
    assert restrict(fam, x).size == bell(3) == 5


def test_avoid():
    f = family_of(4, {0, 1}, {0, 2}, {1, 2})
    assert avoid(f, ElementSet(f.universe, 0)) == f
    a = avoid(f, element_set(f, [0]))
    assert {tuple(m.indices()) for m in a.members()} == {(1, 2)}


def test_avoid_union_bound():
    rnd = random.Random(11)
    for _ in range(25):
        n = 8
        members = [
            {rnd.randrange(n) for _ in range(rnd.randint(1, 4))} for _ in range(10)
        ]
        f = family_of(n, *members)
        xs = {rnd.randrange(n) for _ in range(rnd.randint(1, 3))}
        x = element_set(f, xs)
        lower = f.size - sum(star_count(f, element_set(f, [e])) for e in xs)
        assert avoid(f, x).size >= lower


def test_stars():
    f = family_of(4, {0, 1}, {0, 2}, {1, 2})
    assert stars(f, [ElementSet(f.universe, 0)]) == f
    s1 = stars(f, [element_set(f, [0])])
    assert {tuple(m.indices()) for m in s1.members()} == {(0, 1), (0, 2)}
    s2 = stars(f, [element_set(f, [0]), element_set(f, [1, 2])])
    assert s2.size == 3


def test_partition_identity():
    f = family_of(5, {0, 1}, {1, 2}, {3}, {2, 4})
    for e in range(5):
        x = element_set(f, [e])
        assert f.size == star_count(f, x) + avoid(f, x).size


def test_restrict_counts_match_star_counts():
    # residues of distinct members containing X are distinct
    u, fam = encode_family_parts(enumerate_partitions(4))
    for p in enumerate_partitions(4):
        x = encode_parts(p, u)
        assert restrict(fam, x).size == star_count(fam, x)


def test_covering_number_examples():
    f = family_of(3, {0})
    assert covering_number(f) == (1, element_set(f, [0]))
    tri = family_of(3, {0, 1}, {1, 2}, {0, 2})
    tau, w = covering_number(tri)
    assert tau == 2 and w.indices() == [0, 1]
    for n, k in [(6, 3), (8, 4), (7, 2)]:
        fam = ksubsets_family(n, k)
        tau, w = covering_number(fam)
        assert tau == n - k + 1
        assert w.indices() == list(range(n - k + 1))


def test_covering_number_monotone():
    rnd = random.Random(5)
    for _ in range(20):
        n = 7
        members = [
            frozenset(rnd.randrange(n) for _ in range(rnd.randint(1, 3)))
            for _ in range(6)
        ]
        f = family_of(n, *members[:4])
        g = family_of(n, *members)
        assert covering_number(f)[0] <= covering_number(g)[0]


def _cover_exists_recursive(masks, min_elem, budget):
    # _cover_exists by recursion, one level per chosen element: its reference
    if not masks:
        return True
    if budget == 0:
        return False
    avail = ~((1 << min_elem) - 1) if min_elem else -1
    best = min((m & avail for m in masks), key=int.bit_count)
    return any(
        _cover_exists_recursive([m for m in masks if not (m >> e) & 1], min_elem, budget - 1)
        for e in mask_indices(best)
    )


def test_cover_exists_matches_the_recursive_search():
    rnd = random.Random(11)
    for _ in range(300):
        n = rnd.randint(1, 9)
        masks = [rnd.randrange(1, 1 << n) for _ in range(rnd.randint(0, 8))]
        for min_elem in range(n):
            for budget in range(n + 1):
                want = _cover_exists_recursive(masks, min_elem, budget)
                assert _cover_exists(masks, min_elem, budget) == want, (masks, min_elem, budget)


def test_cover_exists_has_no_recursion_limit():
    # 1,200 disjoint singletons need a search 1,200 branches deep
    masks = [1 << i for i in range(1200)]
    assert _cover_exists(masks, 0, 1200)
    assert not _cover_exists(masks, 0, 1199)


def test_covering_number_errors():
    with pytest.raises(DomainError):
        covering_number(SetFamily(PlainUniverse(3), []))
    with pytest.raises(DomainError):
        covering_number(SetFamily(PlainUniverse(3), [0]))
    big = SetFamily(PlainUniverse(100), [1 << i for i in range(100)])
    with pytest.raises(ResourceLimitError):
        with guards.limited(cover_family_max=10):
            covering_number(big)


def test_serialization_round_trip():
    f = family_of(6, {0, 1}, {2, 3, 5}, {4})
    text = family_to_text(f)
    assert text.splitlines()[0] == "N 6"
    g = family_from_text(text)
    assert g.masks == f.masks
    assert family_to_text(g) == text


def test_serialization_empty_family_and_empty_set():
    f = SetFamily(PlainUniverse(4), [0b0101, 0])
    text = family_to_text(f)
    g = family_from_text(text)
    assert g.masks == f.masks
    assert family_to_text(g) == text


def test_serialization_errors():
    with pytest.raises(DomainError):
        family_from_text("3\n0 1\n")
    with pytest.raises(DomainError):
        family_from_text("N 2\n0 5\n")


def test_universe_mismatch():
    f = family_of(4, {0, 1})
    other = ElementSet(PlainUniverse(5), 1)
    with pytest.raises(DomainError):
        restrict(f, other)


def test_parts_universe_registry():
    u = PartsUniverse(4)
    i1 = u.index_of({1, 2})
    i2 = u.index_of({3})
    assert u.index_of({1, 2}) == i1
    assert u.part_at(i2) == frozenset({3})
    assert u.size == 2
    with pytest.raises(DomainError):
        u.index_of(set())
    with pytest.raises(DomainError):
        u.index_of({9})


def test_edges_universe():
    u = EdgesUniverse(5)
    assert u.size == 10
    with pytest.raises(DomainError):
        u.index_of((2, 2))
    with pytest.raises(DomainError):
        u.index_of((0, 3))
    with pytest.raises(DomainError):
        u.pair_at(10)

import random
import sys
import tracemalloc
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from conftest import decode_parts, family_of, ksubsets_family, select
from partspread import guards
from partspread.approx import check_dominance
from partspread.cli import _spread_plan, load_family
from partspread.errors import DomainError, PreconditionError, ResourceLimitError
from partspread.exact import ExactPow
from partspread.partitions import Partition, bell
from partspread.setfam import ElementSet, PlainUniverse, SetFamily, mask_indices, restrict
from partspread.spread import (
    candidate_counts,
    find_max_violating,
    find_spread_subfamily,
    find_sunflower,
    is_r_spread,
    spread_factor,
    weak_spread,
)


def test_exactpow_ordering():
    assert ExactPow(52, Fraction(1, 5)) > 2
    assert ExactPow(52, Fraction(1, 5)) < Fraction(9, 4)
    assert ExactPow(4, Fraction(1, 2)) == 2
    assert ExactPow(8, Fraction(2, 3)) == 4
    assert ExactPow.infinity() > ExactPow(10**30)
    assert ExactPow(Fraction(1, 2)) < 1
    values = [ExactPow(3, Fraction(1, 2)), ExactPow(2), ExactPow(5, Fraction(1, 3))]
    assert sorted(values) == [values[2], values[0], values[1]]


def test_spread_factor_singletons():
    f = SetFamily(PlainUniverse(7), [1 << i for i in range(7)])
    rep = spread_factor(f)
    assert rep.r_star == 7
    assert rep.witness.size == 1


def test_spread_factor_pairs_of_four():
    f = ksubsets_family(4, 2)
    rep = spread_factor(f)
    assert rep.r_star == 2
    assert rep.witness.size == 1
    # pairs only give sqrt(6) > 2
    assert ExactPow(6, Fraction(1, 2)) > 2


def test_spread_factor_encoded_b5(b5_encoded):
    u, fam = b5_encoded
    rep = spread_factor(fam)
    assert rep.r_star == ExactPow(52, Fraction(1, 5))
    witness = decode_parts(rep.witness)
    assert witness == Partition([[1], [2], [3], [4], [5]])
    # oracle: minimum over s of (B_5 / B_(5-s))^(1/s)
    oracle = min(
        ExactPow(Fraction(bell(5), bell(5 - s)), Fraction(1, s)) for s in range(1, 6)
    )
    assert rep.r_star == oracle


def test_spread_factor_guard():
    f = SetFamily(PlainUniverse(40), [(1 << 40) - 1])
    with pytest.raises(ResourceLimitError, match="SPREAD_CANDIDATE_MAX"):
        spread_factor(f)
    with pytest.raises(DomainError):
        spread_factor(SetFamily(PlainUniverse(3), []))


def test_is_r_spread():
    f = ksubsets_family(4, 2)
    ok, wit = is_r_spread(f, 1)
    assert ok and wit is None
    ok, wit = is_r_spread(f, 2)
    assert ok
    ok, wit = is_r_spread(f, Fraction(21, 10))
    assert not ok and wit.size == 1
    # a single set violates every r > 1 (any nonempty subset has |F(X)| = |F|)
    single = family_of(5, {0, 1, 2})
    ok, wit = is_r_spread(single, Fraction(101, 100))
    assert not ok and wit.mask & single.masks[0] == wit.mask and wit.size >= 1


def test_is_r_spread_iff_below_factor():
    rnd = random.Random(2)
    for _ in range(15):
        members = [
            frozenset(rnd.randrange(8) for _ in range(rnd.randint(1, 4)))
            for _ in range(rnd.randint(2, 8))
        ]
        f = family_of(8, *members)
        rep = spread_factor(f)
        for r in (Fraction(3, 2), 2, Fraction(5, 2), 3):
            assert is_r_spread(f, r)[0] == (ExactPow(Fraction(r)) <= rep.r_star)


def test_weak_spread_pairs():
    f = ksubsets_family(5, 2)
    t_set, r, wit = weak_spread(f, 1)
    assert t_set.size == 1
    assert r == 4
    assert wit is not None


def test_weak_spread_t0_matches_spread_factor():
    rnd = random.Random(9)
    for _ in range(10):
        members = [
            frozenset(rnd.randrange(7) for _ in range(rnd.randint(1, 3)))
            for _ in range(rnd.randint(1, 6))
        ]
        f = family_of(7, *members)
        t_set, r, _ = weak_spread(f, 0)
        assert t_set.size == 0
        assert r == spread_factor(f).r_star


def test_weak_spread_encoded_b4(b4_encoded):
    u, fam = b4_encoded
    t_set, r, _ = weak_spread(fam, 1)
    part = u.part_at(t_set.indices()[0])
    assert len(part) == 1  # a singleton part maximizes the star
    from partspread.setfam import star_count

    assert star_count(fam, t_set) == bell(3)


def test_weak_spread_errors():
    f = ksubsets_family(4, 2)
    with pytest.raises(DomainError):
        weak_spread(f, 3)


def test_find_max_violating_greedy_trace():
    f = family_of(4, {0, 1}, {0, 2}, {0, 3})
    x = find_max_violating(f, 2)
    assert x.indices() == [0, 1]
    ok, _ = is_r_spread(restrict(f, x), 2)
    assert ok


def test_find_max_violating_singletons():
    f = SetFamily(PlainUniverse(5), [1 << i for i in range(5)])
    # r above n: the first singleton qualifies; maximal at size 1
    x = find_max_violating(f, 7)
    assert x.indices() == [0]
    # r below n: the family is already r-spread, so the empty set is maximal
    x = find_max_violating(f, 3)
    assert x.size == 0
    ok, _ = is_r_spread(restrict(f, x), 3)
    assert ok


def test_find_max_violating_absorbs_multi_element_violators():
    # no single element meets the threshold (all degrees < |F|/r) but a pair
    # does, so plain one-step greedy would stop at the empty set with a
    # restriction that is not r-spread; the returned set must absorb it
    f = family_of(
        9, {0, 1, 2}, {0, 1, 3}, {4}, {5}, {6}, {7}, {8}, {4, 5}, {6, 7}
    )
    assert f.size == 9
    ok, viol = is_r_spread(f, 3)
    assert not ok and viol.indices() == [0, 1]
    x = find_max_violating(f, 3)
    assert x.indices() == [0, 1, 2]
    ok, _ = is_r_spread(restrict(f, x), 3)
    assert ok


def test_find_max_violating_postcondition_randomized(b6_encoded):
    u, fam = b6_encoded
    rnd = random.Random(123)
    ratios = [Fraction(3, 2), 2, Fraction(5, 2), 3, 4]
    for _ in range(30):
        size = rnd.randint(3, 40)
        masks = rnd.sample(fam.masks, size)
        sub = SetFamily(u, masks)
        r = rnd.choice(ratios)
        x = find_max_violating(sub, r)
        assert star_count_ok(sub, x, r)
        ok, _ = is_r_spread(restrict(sub, x), r)
        assert ok
        # threshold property of the returned set itself
        rep = spread_factor(restrict(sub, x))
        assert rep.r_star >= ExactPow(Fraction(r))


def star_count_ok(f, x, r) -> bool:
    from partspread.setfam import star_count

    r = Fraction(r)
    cnt = star_count(f, x)
    s = x.size
    return cnt * r.numerator**s >= f.size * r.denominator**s


def test_find_spread_subfamily():
    f = ksubsets_family(4, 2)
    x, sub = find_spread_subfamily(f, 2)
    assert x.size == 0 and sub == f
    # star plus a triangle: 6 members > 2^2
    fam = family_of(4, {0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3})
    x, sub = find_spread_subfamily(fam, 2)
    ok, _ = is_r_spread(sub, 2)
    assert ok and x.size < 2
    with pytest.raises(PreconditionError):
        find_spread_subfamily(family_of(4, {0, 1}), 2)
    with pytest.raises(PreconditionError):
        find_spread_subfamily(family_of(4, {0, 1}, {0, 1, 2}), 2)
    # alpha <= 0 is refused, also where |F| > alpha^k holds (alpha < 0, odd k)
    with pytest.raises(DomainError, match="needs alpha > 0"):
        find_spread_subfamily(fam, 0)
    with pytest.raises(DomainError, match="needs alpha > 0"):
        find_spread_subfamily(family_of(4, {0}, {1}), -1)


def test_find_spread_subfamily_postcheck_random():
    rnd = random.Random(21)
    for _ in range(20):
        k = rnd.choice([2, 3])
        members = set()
        while len(members) < rnd.randint(5, 12):
            members.add(frozenset(rnd.sample(range(8), k)))
        f = family_of(8, *members)
        alpha = Fraction(rnd.randint(11, 20), 10)
        if not Fraction(f.size) > alpha**k:
            continue
        x, sub = find_spread_subfamily(f, alpha)
        assert x.size < k
        ok, _ = is_r_spread(sub, alpha)
        assert ok


def test_find_sunflower_examples():
    star = family_of(4, {0, 1}, {0, 2}, {0, 3})
    got = find_sunflower(star, 3)
    assert got is not None
    core, petals = got
    assert core.indices() == [0] and len(petals) == 3
    disjoint = family_of(6, {0, 1}, {2, 3}, {4, 5})
    core, petals = find_sunflower(disjoint, 3)
    assert core.size == 0 and len(petals) == 3
    assert find_sunflower(disjoint, 4) is None
    # any two sets form a 2-sunflower
    f2 = family_of(4, {0, 1}, {1, 2})
    core, petals = find_sunflower(f2, 2)
    assert core.indices() == [1]


def test_find_sunflower_petals_are_a_sunflower():
    rnd = random.Random(17)
    for _ in range(20):
        members = set()
        while len(members) < 12:
            members.add(frozenset(rnd.sample(range(9), rnd.randint(1, 3))))
        f = family_of(9, *members)
        for l in (2, 3, 4):
            got = find_sunflower(f, l)
            if got is None:
                continue
            core, petals = got
            assert len(petals) == l
            for i in range(l):
                for j in range(i + 1, l):
                    assert petals[i].mask & petals[j].mask == core.mask


def test_sunflower_classical_threshold_2_uniform():
    # any 2-uniform family with more than k!(l-1)^k = 8 members contains a
    # 3-sunflower; this implies the looser guarantee quoted for the same
    # parameters, whose constant is astronomically larger
    rnd = random.Random(31)
    for trial in range(25):
        n = rnd.randint(6, 12)
        pool = list(combinations(range(n), 2))
        rnd.shuffle(pool)
        fam = family_of(n, *[set(c) for c in pool[:9]])
        if fam.size <= 8:
            continue
        assert find_sunflower(fam, 3) is not None


def test_find_sunflower_guard():
    f = family_of(4, {0, 1}, {1, 2}, {2, 3})
    with pytest.raises(ResourceLimitError):
        with guards.limited(sunflower_family_max=2):
            find_sunflower(f, 2)
    with pytest.raises(DomainError):
        find_sunflower(f, 0)


def test_is_r_spread_guard():
    f = SetFamily(PlainUniverse(40), [(1 << 40) - 1])
    with pytest.raises(ResourceLimitError, match="SPREAD_CANDIDATE_MAX"):
        is_r_spread(f, 2)
    with guards.limited(spread_candidate_max=23):
        with pytest.raises(ResourceLimitError, match="SPREAD_CANDIDATE_MAX"):
            candidate_counts(ksubsets_family(4, 2))
    with guards.limited(spread_candidate_max=24):
        assert len(candidate_counts(ksubsets_family(4, 2))) == 10


# ---------------------------------------------------------------------------
# differential tests: the kernel against a brute canonical-order scan


def ref_counts(f: SetFamily) -> dict[int, int]:
    counts: dict[int, int] = {}
    for m in f.masks:
        sub = m
        while sub:
            counts[sub] = counts.get(sub, 0) + 1
            sub = (sub - 1) & m
    return counts


def ref_order(counts) -> list[int]:
    return sorted(counts, key=lambda m: (m.bit_count(), m))


def ref_least_ratio(counts, top: int, skip: int):
    """First minimum of (top/count)^(1/(|X| - skip)) over |X| > skip, canonical order."""
    best, best_mask = None, None
    for mask in ref_order(counts):
        s = mask.bit_count() - skip
        if s < 1:
            continue
        value = ExactPow(Fraction(top, counts[mask]), Fraction(1, s))
        if best is None or value < best:
            best, best_mask = value, mask
    return best, best_mask


def ref_violators(f: SetFamily, r) -> list[int]:
    r = Fraction(r)
    counts = ref_counts(f)
    return [
        m for m in ref_order(counts)
        if counts[m] * r.numerator ** m.bit_count() > f.size * r.denominator ** m.bit_count()
    ]


def ref_is_r_spread(f: SetFamily, r):
    found = ref_violators(f, r)
    return (True, None) if not found else (False, ElementSet(f.universe, found[0]))


def ref_best_t(counts, t: int) -> int:
    return max((m for m in counts if m.bit_count() == t), key=lambda m: (counts[m], -m))


UNIVERSE = 6
masks_st = st.lists(st.integers(0, (1 << UNIVERSE) - 1), min_size=1, max_size=12)
ratio_st = st.builds(Fraction, st.integers(1, 12), st.integers(1, 6))


def plain(masks) -> SetFamily:
    return SetFamily(PlainUniverse(UNIVERSE), masks)


@settings(max_examples=300, deadline=None)
@given(masks_st)
def test_spread_factor_matches_reference(masks):
    f = plain(masks)
    counts = ref_counts(f)
    best, best_mask = ref_least_ratio(counts, f.size, 0)
    rep = spread_factor(f)
    assert rep.scanned == len(counts)
    if best is None:
        assert rep.r_star.infinite and rep.witness is None
    else:
        assert rep.r_star == best and rep.witness.mask == best_mask


@settings(max_examples=300, deadline=None)
@given(masks_st, ratio_st)
def test_is_r_spread_matches_reference(masks, r):
    f = plain(masks)
    assert is_r_spread(f, r) == ref_is_r_spread(f, r)


@settings(max_examples=200, deadline=None)
@given(masks_st)
def test_weak_spread_matches_reference(masks):
    f = plain(masks)
    counts = ref_counts(f)
    for t in range(0, f.max_size() + 1):
        best_t = ref_best_t(counts, t) if t else 0
        best, best_mask = ref_least_ratio(counts, counts[best_t] if t else f.size, t)
        t_set, r, witness = weak_spread(f, t)
        assert t_set.mask == best_t
        if best is None:
            assert r.infinite and witness is None
        else:
            assert r == best and witness.mask == best_mask


PARTS_SPECS = [
    "bell:0", "bell:1", "bell:4", "bell:6", "blocks:5,1", "blocks:6,3", "blocks:7,4",
    "blocks:6,6", "profiled:3,3", "profiled:1,2,3", "profiled:2,2,3", "profiled:1,1,2,2",
    "profiled:1,1,1,3", "profiled:1,2,2,3",
]


@pytest.mark.parametrize("spec", PARTS_SPECS)
def test_parts_shapes_match_the_scan(spec):
    # the level maxima from the shapes, the witnesses from the least-subset
    # search, against the candidate_counts scan of the same family
    shapes, _, top = _spread_plan(spec)
    _, f = load_family(spec)
    got, want = spread_factor(f, shapes), spread_factor(f)
    assert (got.r_star, got.witness, got.scanned) == (want.r_star, want.witness, want.scanned)
    for t in range(top + 1):
        assert weak_spread(f, t, shapes) == weak_spread(f, t)
    for r in ("1/2", "1", "3/2", "2", "5/2", "3", "4", "6", "10", "40"):
        assert is_r_spread(f, Fraction(r), shapes) == is_r_spread(f, Fraction(r))


def test_parts_shapes_ask_the_candidate_guard():
    # |F| + sum of count * number is the sum of 2^|A| the scan is refused on
    shapes, candidates, _ = _spread_plan("blocks:6,3")
    _, f = load_family("blocks:6,3")
    with guards.limited(spread_candidate_max=candidates - 1):
        for scan in (
            lambda: spread_factor(f, shapes),
            lambda: is_r_spread(f, 2, shapes),
            lambda: weak_spread(f, 1, shapes),
        ):
            with pytest.raises(ResourceLimitError, match=f"candidate sets={candidates} "):
                scan()
    with guards.limited(spread_candidate_max=candidates):
        assert spread_factor(f, shapes).scanned == len(candidate_counts(f))


@settings(max_examples=200, deadline=None)
@given(masks_st.filter(lambda ms: any(ms)))
def test_check_dominance_best_t_matches_reference(masks):
    f = plain(masks)
    counts = ref_counts(f)
    member = max(f.masks, key=lambda m: (m.bit_count(), -m))
    for t in range(1, member.bit_count() + 1):
        recs = check_dominance(f, plain([member]), t, Fraction(1, 2))
        best = "{" + " ".join(map(str, mask_indices(ref_best_t(counts, t)))) + "}"
        assert len(select(recs, "dominance", T=best)) == 1


def ref_find_max_violating(f: SetFamily, r) -> int:
    """Greedy growth that recounts each element over the members containing X
    and absorbs the reference violator of restrict(f, X)."""
    r = Fraction(r)
    p, q = r.numerator, r.denominator
    x = 0
    while True:
        containing = [m for m in f.masks if m & x == x]
        pool = 0
        for m in containing:
            pool |= m
        pool &= ~x
        s = x.bit_count() + 1
        best_e, best_cnt = None, 0
        for e in mask_indices(pool):
            cnt = sum(1 for m in containing if m >> e & 1)
            if cnt * p**s >= f.size * q**s and cnt > best_cnt:
                best_e, best_cnt = e, cnt
        if best_e is not None:
            x |= 1 << best_e
            continue
        ok, viol = ref_is_r_spread(restrict(f, ElementSet(f.universe, x)), r)
        if ok:
            return x
        x |= viol.mask


# r > 1: fractional, integral, and above |F| (at most 13 members)
r_above_one_st = st.builds(lambda p, q: Fraction(q + p, q), st.integers(1, 40), st.integers(1, 7))


@settings(max_examples=400, deadline=None)
@given(masks_st, st.booleans(), r_above_one_st)
def test_find_max_violating_matches_reference(masks, with_empty, r):
    f = plain(masks + [0] * with_empty)
    assert find_max_violating(f, r).mask == ref_find_max_violating(f, r)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda k: st.lists(
            st.sampled_from(list(combinations(range(UNIVERSE), k))), min_size=1, max_size=20
        )
    ),
    ratio_st,
)
def test_find_spread_subfamily_matches_reference(members, alpha):
    f = family_of(UNIVERSE, *members)
    k = len(members[0])
    if not Fraction(f.size) > alpha**k:
        return
    found = ref_violators(f, alpha)
    x, sub = find_spread_subfamily(f, alpha)
    if not found:
        assert x.size == 0 and sub == f
    else:
        largest = max(m.bit_count() for m in found)
        expected = min(m for m in found if m.bit_count() == largest)
        assert x.mask == expected and sub == restrict(f, x)


def ref_violator(f: SetFamily, r, largest: bool):
    """Least violator at the smallest (or largest) violating size, or None."""
    found = ref_violators(f, r)
    if not found:
        return None
    size = (max if largest else min)(m.bit_count() for m in found)
    return min(m for m in found if m.bit_count() == size)


# r < 1, r = 1, fractional r > 1, and r > |F| (at most 13 members), where
# every level has floor |F| q^s // p^s = 0 and no count is needed
r_kinds_st = st.one_of(
    st.builds(Fraction, st.integers(1, 5), st.integers(6, 12)),
    st.just(Fraction(1)),
    st.builds(lambda p, q: Fraction(q + p, q), st.integers(1, 20), st.integers(2, 7)),
    st.builds(Fraction, st.integers(14, 60)),
)


@settings(max_examples=500, deadline=None)
@given(masks_st, st.booleans(), r_kinds_st)
def test_violator_search_matches_reference(masks, with_empty, r):
    # members of mixed sizes, with or without the empty member
    f = plain(masks + [0] * with_empty)
    smallest = ref_violator(f, r, largest=False)
    ok, witness = is_r_spread(f, r)
    assert ok == (smallest is None)
    assert (witness.mask if witness else None) == smallest


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda k: st.lists(
            st.sampled_from(list(combinations(range(UNIVERSE), k))), min_size=1, max_size=15
        )
    ),
    r_kinds_st,
)
def test_spread_subfamily_search_matches_reference(members, alpha):
    # the largest violating size, through the public k-uniform entry point
    f = family_of(UNIVERSE, *members)
    if not Fraction(f.size) > alpha ** len(members[0]):
        return
    largest = ref_violator(f, alpha, largest=True)
    x, sub = find_spread_subfamily(f, alpha)
    assert x.mask == (largest or 0)
    assert sub == (f if largest is None else restrict(f, x))


# ---------------------------------------------------------------------------
# ExactPow: equal values hash equal

root_st = st.builds(Fraction, st.integers(1, 12), st.integers(1, 12))
exponent_st = st.builds(Fraction, st.integers(1, 6), st.integers(1, 6))


@given(root_st, exponent_st, st.integers(1, 4), st.integers(1, 4))
def test_exactpow_equal_representations_hash_equal(c, e, j1, j2):
    # c**(j*e') with base c**j and exponent e'/j are the same value
    a = ExactPow(c**j1, e / j1)
    b = ExactPow(c**j2, e / j2)
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


@given(root_st, st.integers(1, 6), st.integers(1, 4))
def test_exactpow_hash_matches_rationals(c, m, j):
    a = ExactPow(c**j, Fraction(m, j))
    value = c**m
    assert a == value and hash(a) == hash(value)
    if value.denominator == 1:
        assert a == int(value) and hash(a) == hash(int(value))


values_st = st.one_of(
    st.builds(ExactPow, root_st, exponent_st),
    st.builds(lambda c, j, e: ExactPow(c**j, e), root_st, st.integers(1, 3), exponent_st),
    st.integers(1, 50),
    root_st,
)


@given(values_st, values_st)
def test_exactpow_eq_implies_hash_eq(a, b):
    if a == b:
        assert hash(a) == hash(b)


def test_exactpow_hash_builds_no_power():
    # 2**(10**12) has 10**12 bits; its hash is taken modulo the hash prime
    tracemalloc.start()
    try:
        h = hash(ExactPow(2, 10**12))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert h == pow(2, 10**12, sys.hash_info.modulus)
    modulus = sys.hash_info.modulus
    assert hash(ExactPow(Fraction(1, modulus), 3)) == hash(Fraction(1, modulus**3))


def test_exactpow_compare_builds_no_power():
    # 2**(10**9) and 3**(6*10**8) each have over 10**8 bits
    big2, big3 = ExactPow(2, 10**9), ExactPow(3, 6 * 10**8)
    tracemalloc.start()
    try:
        got = (big2 < big3, big2 > big3, big2 == big3, ExactPow(4, 10**9) == ExactPow(2, 2 * 10**9))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == (False, True, False, True)
    assert peak < 2**20

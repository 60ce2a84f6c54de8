import math
import random
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from conftest import has_singleton
from partspread import guards
from partspread.errors import DomainError, ResourceLimitError
from partspread.partitions import (
    Partition,
    Profile,
    bell,
    count_derangements,
    count_profiled,
    enumerate_into_blocks,
    enumerate_partitions,
    _gen_profiled,
    enumerate_profiled,
    iter_partitions,
    partially_t_intersect,
    stirling2,
    t_intersect,
    tilde_bell,
    u_count,
)

BELLS = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975]


def test_bell_values():
    assert [bell(n) for n in range(11)] == BELLS
    assert bell(0) == 1
    assert bell(2) == 2
    assert bell(10) == 115975


def test_bell_matches_the_binomial_recurrence():
    # B_(m+1) = sum_i C(m, i) B_i
    ref = [1]
    for m in range(450):
        ref.append(sum(math.comb(m, i) * ref[i] for i in range(m + 1)))
    assert [bell(n) for n in range(451)] == ref


def test_bell_matches_enumeration():
    for n in range(9):
        assert len(enumerate_partitions(n)) == bell(n)


def test_stirling_recurrence_and_values():
    assert stirling2(4, 2) == 7
    assert stirling2(5, 3) == 25
    assert stirling2(23, 2) == 2**22 - 1 == 4194303
    for n in range(12):
        assert stirling2(n, n) == 1
    assert stirling2(0, 0) == 1
    assert stirling2(3, 0) == 0
    assert stirling2(3, 5) == 0
    # row sums are Bell numbers
    for n in range(1, 10):
        assert sum(stirling2(n, l) for l in range(n + 1)) == bell(n)


def test_stirling2_matches_recurrence_table():
    # S(n, l) = S(n-1, l-1) + l S(n-1, l), S(0, 0) = 1, built row by row
    size = 61
    table = [[0] * size for _ in range(size)]
    table[0][0] = 1
    for n in range(1, size):
        for l in range(1, n + 1):
            table[n][l] = table[n - 1][l - 1] + l * table[n - 1][l]
    assert all(stirling2(n, l) == table[n][l] for n in range(size) for l in range(size))
    with pytest.raises(DomainError):
        stirling2(-1, 2)


def test_tilde_bell_values_and_enumeration():
    assert tilde_bell(2) == 1
    assert tilde_bell(1) == 0
    assert tilde_bell(5) == 11
    for n in range(10):
        by_filter = sum(1 for p in iter_partitions(n) if not has_singleton(p))
        assert tilde_bell(n) == by_filter


def ref_tilde_bell(n: int) -> int:
    """tB_n by the recurrence on the block of the largest element:
    tB_(m+1) = sum_(i=0, i != 1)^(m-1) C(m, i) tB_i, with tB_0 = 1, tB_1 = 0.
    The i = 0 term (that block is all of [m+1]) is required: without it
    tB_3 would be 0, not 1."""
    table = [1, 0]
    for m in range(1, n):
        table.append(sum(math.comb(m, i) * table[i] for i in range(m) if i != 1))
    return table[n]


def test_tilde_bell_matches_the_recurrence():
    assert [tilde_bell(n) for n in range(81)] == [ref_tilde_bell(n) for n in range(81)]
    with pytest.raises(DomainError):
        tilde_bell(-1)


def test_enumerate_partitions_canonical_unique():
    parts = enumerate_partitions(6)
    assert len(parts) == len(set(parts)) == bell(6)
    for p in parts:
        minima = [b[0] for b in p.blocks]
        assert minima == sorted(minima)
        for b in p.blocks:
            assert list(b) == sorted(b)


def test_enumerate_empty_ground_set():
    parts = enumerate_partitions(0)
    assert len(parts) == 1
    assert parts[0].blocks == ()


def test_enumeration_guard():
    with pytest.raises(ResourceLimitError, match="ENUM_MAX_N"):
        enumerate_partitions(14)
    # a raised limit opens it up (not executed to completion here); the limit
    # is read on the first next(), so that runs inside the block
    with guards.limited(enum_max_n=14):
        it = iter_partitions(14)
        next(it)


def iter_rgs(n):
    """Restricted growth strings of length n in lexicographic order.

    The independent reference for the production enumeration.  Yields an
    internal buffer that is mutated in place; copy before storing.
    """
    if n == 0:
        yield []
        return
    a = [0] * n
    b = [1] * n  # b[i] = 1 + max(a[:i]) for i >= 1
    while True:
        yield a
        j = n - 1
        while j > 0 and a[j] >= b[j]:
            j -= 1
        if j == 0:
            return
        a[j] += 1
        nb = b[j] + 1 if a[j] == b[j] else b[j]
        for i in range(j + 1, n):
            a[i] = 0
            b[i] = nb


def _rgs_blocks(n):
    """Reference enumeration: group each growth string of iter_rgs into blocks."""
    out = []
    for rgs in iter_rgs(n):
        blocks = [[] for _ in range(max(rgs, default=-1) + 1)]
        for i, lab in enumerate(rgs):
            blocks[lab].append(i + 1)
        out.append(tuple(tuple(b) for b in blocks))
    return out


def test_enumeration_matches_rgs_reference():
    for n in range(10):
        ref = _rgs_blocks(n)
        assert [p.blocks for p in iter_partitions(n)] == ref
        for l in range(1, n + 1):
            got = [p.blocks for p in enumerate_into_blocks(n, l)]
            assert got == [b for b in ref if len(b) == l]


def test_count_derangements_inclusion_exclusion():
    # the sum against a walk of [n] counting the partitions sharing no block with p
    for n in range(9):
        bit: dict[tuple[int, ...], int] = {}  # one bit per block seen in the walk
        walk = [sum(bit.setdefault(b, 1 << len(bit)) for b in q.blocks) for q in iter_partitions(n)]
        for p, own in zip(iter_partitions(n), walk):
            assert count_derangements(p) == [q & own for q in walk].count(0)


def test_enumeration_guard_parity():
    with guards.limited(enum_max_n=5):
        assert sum(1 for _ in iter_partitions(5)) == bell(5)
        assert len(enumerate_into_blocks(5, 2)) == stirling2(5, 2)
        it = iter_partitions(6)
        with pytest.raises(ResourceLimitError, match="ENUM_MAX_N: n=6 exceeds the guard 5"):
            next(it)
        with pytest.raises(ResourceLimitError, match="ENUM_MAX_N: n=6 exceeds"):
            enumerate_into_blocks(6, 2)


def test_enumerate_into_blocks():
    assert len(enumerate_into_blocks(4, 2)) == stirling2(4, 2) == 7
    assert len(enumerate_into_blocks(5, 3)) == 25
    only = enumerate_into_blocks(3, 3)
    assert only == [Partition([[1], [2], [3]])]
    with pytest.raises(DomainError):
        enumerate_into_blocks(3, 4)
    with pytest.raises(DomainError):
        enumerate_into_blocks(3, 0)


def test_enumerate_profiled():
    assert len(enumerate_profiled(Profile((2, 2)))) == 3
    fam = enumerate_profiled(Profile((1, 3)))
    assert len(fam) == 4
    assert len(enumerate_profiled(Profile((2, 2, 2)))) == 15 == u_count(2, 3)
    with pytest.raises(ResourceLimitError, match="PROFILED_ENUM_MAX"):
        enumerate_profiled(Profile((2,) * 12))


def _gen_profiled_recursive(elems, sizes):
    # _gen_profiled by recursion, one level per block: the reference for its order
    if not elems:
        yield ()
        return
    first, rest = elems[0], elems[1:]
    tried = set()
    for i, size in enumerate(sizes):
        if size in tried:
            continue
        tried.add(size)
        remaining_sizes = sizes[:i] + sizes[i + 1 :]
        for others in combinations(rest, size - 1):
            chosen = set(others)
            remaining = tuple(e for e in rest if e not in chosen)
            for tail in _gen_profiled_recursive(remaining, remaining_sizes):
                yield ((first,) + others,) + tail


def test_gen_profiled_matches_the_recursive_order():
    # every profile with n <= 8, and uniform profiles past it
    profiles = [prof.sizes for n in range(9) for prof in {p.profile() for p in iter_partitions(n)}]
    profiles += [(k,) * l for k, l in ((2, 5), (2, 6), (3, 3), (3, 4), (4, 3))]
    assert len(profiles) == 67 + 5
    for sizes in profiles:
        elems = tuple(range(1, sum(sizes) + 1))
        got = list(_gen_profiled(elems, sizes))
        assert got == list(_gen_profiled_recursive(elems, sizes)), sizes
        assert len(got) == count_profiled(Profile(sizes))


def test_count_profiled():
    assert count_profiled(Profile((2, 2, 2))) == 15
    assert count_profiled(Profile((3, 3))) == 10
    assert count_profiled(Profile((1,) * 7)) == 1
    # against enumeration over all profiles of [n]
    for n in range(1, 9):
        tally = Counter(p.profile() for p in iter_partitions(n))
        for prof, cnt in tally.items():
            assert count_profiled(prof) == cnt


def ref_count_profiled(p: Profile) -> int:
    """n! divided by k! per block, then by the running multiplicity of each size."""
    count = math.factorial(p.n)
    for k in p.sizes:
        count //= math.factorial(k)
    mult = 1
    for i, k in enumerate(p.sizes):
        mult = mult + 1 if i > 0 and k == p.sizes[i - 1] else 1
        count //= mult
    return count


@given(st.lists(st.integers(1, 9), min_size=1, max_size=60))
def test_count_profiled_matches_reference(sizes):
    prof = Profile(sorted(sizes))
    assert count_profiled(prof) == ref_count_profiled(prof)


def test_uniform_count_closed_form():
    for k, l in [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3)]:
        assert u_count(k, l) == math.factorial(k * l) // (
            math.factorial(l) * math.factorial(k) ** l
        )


def test_profile_validation():
    with pytest.raises(DomainError):
        Profile((3, 2))
    with pytest.raises(DomainError):
        Profile((0, 1))


def test_partition_validation():
    with pytest.raises(DomainError):
        Partition([[1, 2], [2, 3]])
    with pytest.raises(DomainError):
        Partition([[1], [3]])
    with pytest.raises(DomainError):
        Partition([[1], []], n=1)
    p = Partition([[3, 1], [2]])
    assert p.blocks == ((1, 3), (2,))


def test_count_derangements():
    assert count_derangements(Partition([[1], [2], [3], [4]])) == tilde_bell(4) == 4
    assert count_derangements(Partition([[1, 2, 3]])) == bell(3) - 1 == 4
    # all singletons: no block of size 1; one block: every partition but p
    for n in range(1, 31):
        assert count_derangements(Partition([[e] for e in range(1, n + 1)])) == tilde_bell(n)
        assert count_derangements(Partition([range(1, n + 1)])) == bell(n) - 1
    # enumeration oracle: partitions of [4] sharing no block with {12|34}
    p = Partition([[1, 2], [3, 4]])
    own = set(p.blocks)
    oracle = sum(
        1 for q in enumerate_partitions(4) if not own.intersection(q.blocks)
    )
    assert oracle == 12
    assert count_derangements(p) == oracle


def test_derangement_splitting_monotonicity():
    # splitting a block can only lose derangements
    rnd = random.Random(7)
    for n in (4, 5, 6):
        for _ in range(10):
            parts = enumerate_partitions(n)
            p = rnd.choice([q for q in parts if any(len(b) >= 2 for b in q.blocks)])
            blocks = list(p.blocks)
            bi = rnd.choice([i for i, b in enumerate(blocks) if len(b) >= 2])
            b = list(blocks[bi])
            cut = rnd.randint(1, len(b) - 1)
            rnd.shuffle(b)
            split = blocks[:bi] + blocks[bi + 1 :] + [b[:cut], b[cut:]]
            p_split = Partition(split, n=n)
            assert count_derangements(p_split) <= count_derangements(p)


def test_t_intersect():
    p = Partition([[1], [2], [3, 4]])
    q = Partition([[1], [2], [3], [4]])
    assert t_intersect(p, p, p.num_blocks)
    assert t_intersect(p, q, 2)
    assert not t_intersect(p, q, 3)
    assert not t_intersect(Partition([[1, 2], [3]]), Partition([[1, 3], [2]]), 1)
    with pytest.raises(DomainError):
        t_intersect(p, Partition([[1], [2], [3]]), 1)
    with pytest.raises(DomainError):
        t_intersect(p, q, -1)


def test_partially_t_intersect():
    a = Partition([[1, 2], [3, 4]])
    b = Partition([[1, 3], [2, 4]])
    assert partially_t_intersect(a, b, 1)
    assert not partially_t_intersect(a, b, 2)
    c = Partition([[1, 2], [3, 4], [5, 6]])
    d = Partition([[1, 3], [2, 4], [5, 6]])
    assert partially_t_intersect(c, d, 2)
    with pytest.raises(DomainError):
        partially_t_intersect(a, b, 0)


def test_any_two_partially_1_intersect():
    parts = enumerate_partitions(4)
    for p in parts:
        for q in parts:
            assert partially_t_intersect(p, q, 1)


def test_intersect_symmetry_and_monotonicity():
    rnd = random.Random(3)
    parts = enumerate_partitions(5)
    for _ in range(60):
        p, q = rnd.choice(parts), rnd.choice(parts)
        for t in range(1, 6):
            assert t_intersect(p, q, t) == t_intersect(q, p, t)
            assert partially_t_intersect(p, q, t) == partially_t_intersect(q, p, t)
            if t_intersect(p, q, t + 1):
                assert t_intersect(p, q, t)
            if partially_t_intersect(p, q, t + 1):
                assert partially_t_intersect(p, q, t)


def test_sharing_all_but_one_block_forces_equality():
    for l in (2, 3):
        fam = enumerate_into_blocks(5, l)
        for p in fam:
            for q in fam:
                if t_intersect(p, q, l - 1):
                    assert p == q or len(set(p.blocks) & set(q.blocks)) >= l - 1
        # strict check: l-1 shared blocks among l-block partitions => equal
        for p in fam:
            for q in fam:
                if len(set(p.blocks) & set(q.blocks)) == l - 1:
                    pytest.fail("impossible: remaining block is forced equal")

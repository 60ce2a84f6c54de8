import math
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from conftest import SubPartition, decode_parts, edges_to_subpartition, enumerate_uniform
from partspread.cli import _spread_plan, load_family
from partspread.encoding import (
    count_extensions,
    encode_edges,
    encode_family_edges,
    encode_family_parts,
    encode_parts,
    extension_shapes,
)
from partspread.errors import DomainError
from partspread.partitions import (
    Partition,
    bell,
    enumerate_partitions,
    iter_partitions,
    partially_t_intersect,
    stirling2,
    u_count,
)
from partspread.setfam import EdgesUniverse, ElementSet, PartsUniverse
from partspread.spread import candidate_counts


def test_encode_parts_sizes():
    u = PartsUniverse(3)
    assert encode_parts(Partition([[1], [2], [3]]), u).size == 3
    assert encode_parts(Partition([[1, 2, 3]]), u).size == 1


def test_parts_round_trip_and_injectivity():
    parts = enumerate_partitions(4)
    u, fam = encode_family_parts(parts)
    assert fam.size == 15  # all encodings distinct
    assert u.size <= 2**4 - 1
    for p in parts:
        assert decode_parts(encode_parts(p, u)) == p


def test_encode_edges_sizes():
    u = EdgesUniverse(4)
    es = encode_edges(Partition([[1, 2], [3, 4]]), u)
    assert es.size == 2
    assert sorted(u.pair_at(i) for i in es.indices()) == [(1, 2), (3, 4)]
    assert encode_edges(Partition([[1], [2], [3], [4]]), u).size == 0
    u6 = EdgesUniverse(6)
    assert encode_edges(Partition([[1, 2, 3], [4, 5, 6]]), u6).size == 6
    # uniform (k,l): size is l * C(k,2)
    for k, l in [(2, 3), (3, 2), (3, 3)]:
        ue = EdgesUniverse(k * l)
        for p in enumerate_uniform(k, l):
            assert encode_edges(p, ue).size == l * math.comb(k, 2)


def test_edge_universe_index_closed_form():
    u = EdgesUniverse(6)
    assert u.size == 15
    seen = set()
    for j in range(2, 7):
        for i in range(1, j):
            idx = u.index_of((i, j))
            assert idx == (j - 1) * (j - 2) // 2 + (i - 1)
            assert u.pair_at(idx) == (i, j)
            seen.add(idx)
    assert seen == set(range(15))


def test_edges_to_subpartition():
    u = EdgesUniverse(6)
    es = ElementSet.from_indices(
        u, [u.index_of((1, 2)), u.index_of((2, 3)), u.index_of((5, 6))]
    )
    x = edges_to_subpartition(es)
    assert x.blocks == ((1, 2, 3), (5, 6))
    assert x.weight == 3
    assert edges_to_subpartition(ElementSet(u, 0)).blocks == ()
    assert edges_to_subpartition(ElementSet(u, 0)).weight == 0
    tri = ElementSet.from_indices(
        u, [u.index_of((1, 2)), u.index_of((1, 3)), u.index_of((2, 3))]
    )
    xt = edges_to_subpartition(tri)
    assert xt.blocks == ((1, 2, 3),) and xt.weight == 2


def test_subpartition_weight_and_validation():
    assert SubPartition([[1, 2]]).weight == 1
    assert SubPartition([[1, 2], [3, 4, 5]]).weight == 3
    with pytest.raises(DomainError):
        SubPartition([[1]])
    with pytest.raises(DomainError):
        SubPartition([[1, 2], [2, 3]])
    x = SubPartition([[1, 2], [3, 4, 5]])
    assert x.weight >= x.num_blocks


def test_round_trip_edges_blocks():
    # edge decoding recovers exactly the blocks of size >= 2
    for p in enumerate_partitions(5):
        u = EdgesUniverse(5)
        x = edges_to_subpartition(encode_edges(p, u))
        assert set(x.blocks) == {b for b in p.blocks if len(b) >= 2}


def _extends(p: Partition, x: SubPartition) -> bool:
    return all(
        any(set(xb).issubset(b) for b in p.blocks) for xb in x.blocks
    )


ENUMERABLE_KL = [(2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 2), (3, 3), (3, 4),
                 (4, 2), (4, 3), (5, 2), (6, 2), (7, 2), (8, 2)]


def test_enumerable_kl_under_guard():
    for k, l in ENUMERABLE_KL:
        assert u_count(k, l) <= 10**5


@pytest.mark.parametrize("k,l", ENUMERABLE_KL)
def test_count_extensions_against_enumeration(k, l):
    universe = enumerate_uniform(k, l)
    shapes = []
    for a in range(1, min(l, 3) + 1):
        for sizes in combinations_with_replacement_desc(k, a):
            shapes.append(sizes)
    for sizes in shapes:
        if sum(sizes) > k * l:
            continue
        blocks = []
        nxt = 1
        for s in sizes:
            blocks.append(tuple(range(nxt, nxt + s)))
            nxt += s
        x = SubPartition(blocks)
        got = count_extensions(k, l, sizes)
        oracle = sum(1 for p in universe if _extends(p, x))
        assert got == oracle, (k, l, sizes)
        assert count_extensions(k, l, sizes[::-1]) == got


def combinations_with_replacement_desc(k, a):
    from itertools import combinations_with_replacement

    return [
        tuple(sorted(c, reverse=True))
        for c in combinations_with_replacement(range(2, k + 1), a)
    ]


def _grouping_sum(k, l, sizes):
    """The extension count as a sum over the groupings of the blocks into parts.

    A grouping is a partition of the block indices with every group total at
    most k; with g groups it contributes the multinomial
    (kl - sum sizes)! / ((l - g)! k!^(l - g) prod_groups (k - total)!).
    """
    free = math.factorial(k * l - sum(sizes))
    total = 0
    for grouping in iter_partitions(len(sizes)):
        totals = [sum(sizes[i - 1] for i in g) for g in grouping.blocks]
        g = len(totals)
        if g > l or max(totals, default=0) > k:
            continue
        denom = math.factorial(l - g) * math.factorial(k) ** (l - g)
        denom *= math.prod(math.factorial(k - s) for s in totals)
        assert free % denom == 0
        total += free // denom
    return total


def test_count_extensions_against_the_grouping_sum():
    cases = 0
    for k in range(2, 6):
        for l in range(1, 16 // k + 1):
            for shape, _ in extension_shapes(k, l):
                for sizes in (shape, shape[::-1]):
                    assert count_extensions(k, l, sizes) == _grouping_sum(k, l, sizes), sizes
                    cases += 1
    assert cases == 560


@pytest.mark.parametrize("k, l", [(2, 3), (3, 2), (4, 2), (2, 4)])
def test_formula_shapes_are_the_candidate_shapes(k, l):
    # the shapes formula mode checks are exactly the component-size shapes
    # of the nonempty candidate edge sets of the encoded family; at (4,2)
    # two components can share a part, as in (2,2,2) and (4,2,2)
    u, fam = encode_family_edges(enumerate_uniform(k, l))
    candidates = {
        tuple(sorted(map(len, edges_to_subpartition(ElementSet(u, x)).blocks), reverse=True))
        for x in candidate_counts(fam)
        if x
    }
    shapes = extension_shapes(k, l)
    assert {shape for shape, _ in shapes} == candidates
    assert len(shapes) == len(candidates)
    assert all(ext == count_extensions(k, l, shape) for shape, ext in shapes)


def _extension_shapes_recounted(k, l):
    """The walk with count_extensions run afresh for each shape."""
    shapes = []
    stack = [(size,) for size in range(k, 1, -1)]
    while stack:
        shape = stack.pop()
        ext = count_extensions(k, l, shape) if sum(shape) <= k * l else 0
        if ext:
            shapes.append((shape, ext))
            stack.extend(shape + (size,) for size in range(shape[-1], 1, -1))
    return shapes


@pytest.mark.parametrize("k, l", [(3, 12), (4, 8), (6, 8)])
def test_extension_shapes_match_the_recounted_walk(k, l):
    # each shape places one block onto its prefix's load states
    assert extension_shapes(k, l) == _extension_shapes_recounted(k, l)


# ---------------------------------------------------------------------------
# parts-encoded specs from block-size shapes


def _parts_specs():
    bells = st.integers(0, 6).map(lambda n: f"bell:{n}")
    blocks = st.integers(1, 7).flatmap(
        lambda n: st.integers(1, n).map(lambda l: f"blocks:{n},{l}")
    )
    profiles = st.lists(st.integers(1, 4), min_size=1, max_size=5).filter(lambda p: sum(p) <= 7)
    profiled = profiles.map(lambda p: "profiled:" + ",".join(map(str, sorted(p))))
    return st.one_of(bells, blocks, profiled)


def _shape(u, mask):
    return tuple(sorted((len(u.part_at(e)) for e in ElementSet(u, mask).indices()), reverse=True))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 7))
def test_bell_shapes_count_the_candidates(n):
    shapes, candidates, top = _spread_plan(f"bell:{n}")
    _, fam = load_family(f"bell:{n}")
    scanned = len(candidate_counts(fam))
    assert sum(number for _, _, number in shapes) == scanned == bell(n + 1) - 1
    total = sum(2 ** m.bit_count() for m in fam.masks)
    assert candidates == total == sum(stirling2(n, k) * 2**k for k in range(n + 1))
    assert top == n


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 8).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))))
def test_blocks_shapes_count_the_candidates(nl):
    n, l = nl
    shapes, candidates, top = _spread_plan(f"blocks:{n},{l}")
    _, fam = load_family(f"blocks:{n},{l}")
    assert sum(number for _, _, number in shapes) == len(candidate_counts(fam))
    assert candidates == sum(2 ** m.bit_count() for m in fam.masks) == stirling2(n, l) * 2**l
    assert top == l


@settings(max_examples=60, deadline=None)
@given(_parts_specs())
def test_candidates_of_one_shape_share_its_count(spec):
    # the lemma of parts_shapes: all X of one shape share one count, and X
    # lies in a member exactly when that count is positive
    shapes, _, _ = _spread_plan(spec)
    u, fam = load_family(spec)
    seen: dict[tuple[int, ...], list[int]] = {}
    for mask, cnt in candidate_counts(fam).items():
        seen.setdefault(_shape(u, mask), []).append(cnt)
    assert {shape: set(c) for shape, c in seen.items()} == {
        shape: {cnt} for shape, cnt, _ in shapes
    }
    # every set of pairwise-disjoint blocks of a walked shape is a candidate:
    # the blocks of a partition of [n + 1] that miss n + 1 are each such set once
    n = fam.universe.n
    disjoint = Counter(
        tuple(sorted((len(b) for b in p.blocks if n + 1 not in b), reverse=True))
        for p in iter_partitions(n + 1)
    )
    assert all(len(seen[shape]) == number == disjoint[shape] for shape, _, number in shapes)


def test_count_extensions_examples():
    assert count_extensions(2, 3, [2]) == 3 == u_count(2, 2)
    assert count_extensions(3, 3, []) == u_count(3, 3)
    got = count_extensions(2, 10, [2])
    assert got == u_count(2, 9) == 34459425
    ratio = Fraction(got, u_count(2, 10))
    assert ratio == Fraction(1, 19)
    assert ratio <= Fraction(9, 10)


def test_count_extensions_domain_errors():
    with pytest.raises(DomainError, match=r"\[2, 2\]"):
        count_extensions(2, 3, [3])
    with pytest.raises(DomainError, match=r"\[2, 2\]"):
        count_extensions(2, 3, [1])
    with pytest.raises(DomainError, match="total size 6"):
        count_extensions(2, 2, [2, 2, 2])


def test_extension_bound_beyond_nine_blocks():
    # (9/l)^m bound from the closed form where l > 9
    for l in (10, 12, 19):
        for shape in ([2], [2, 2], [3], [3, 2]):
            m = sum(shape) - len(shape)
            if 3 * m > 3 * l:
                continue
            assert Fraction(count_extensions(3, l, shape), u_count(3, l)) <= Fraction(9, l) ** m


def test_partial_intersection_implies_edge_intersection():
    for k, l, t in [(2, 3, 2), (3, 2, 2), (3, 2, 3)]:
        universe = enumerate_uniform(k, l)
        u, fam = encode_family_edges(universe)
        enc = dict(zip(universe, fam.masks))
        thresh = math.comb(t, 2)
        for i, p in enumerate(universe):
            for q in universe[i + 1 :]:
                if partially_t_intersect(p, q, t):
                    assert (enc[p] & enc[q]).bit_count() >= thresh


def test_edge_intersection_converse_fails_somewhere():
    # some pair shares C(t,2) edges without partially t-intersecting (t=3)
    universe = enumerate_uniform(3, 3)
    u, fam = encode_family_edges(universe)
    enc = dict(zip(universe, fam.masks))
    t = 3
    thresh = math.comb(t, 2)
    found = None
    for i, p in enumerate(universe):
        for q in universe[i + 1 :]:
            if (enc[p] & enc[q]).bit_count() >= thresh and not partially_t_intersect(
                p, q, t
            ):
                found = (p, q)
                break
        if found:
            break
    assert found is not None


def test_observation_single_block_weight():
    # over edge sets E inside a legal encoding with |E| = C(t,2):
    # weight(X(E)) = t-1 iff X(E) is a single t-block
    for k, l, t in [(3, 2, 3), (2, 3, 2), (4, 2, 3)]:
        ec = math.comb(t, 2)
        universe = enumerate_uniform(k, l)
        u = EdgesUniverse(k * l)
        seen = set()
        for p in universe:
            edges = encode_edges(p, u).indices()
            for combo in combinations(edges, ec):
                if combo in seen:
                    continue
                seen.add(combo)
                x = edges_to_subpartition(ElementSet.from_indices(u, combo))
                single_t_block = x.num_blocks == 1 and len(x.blocks[0]) == t
                assert (x.weight == t - 1) == single_t_block


def test_observation_weight_lower_bound():
    # |E| = C(t,2)+s inside a legal encoding: weight >= t-1+s/k
    k, l, t = 3, 2, 3
    u = EdgesUniverse(k * l)
    ec = math.comb(t, 2)
    for p in enumerate_uniform(k, l):
        edges = encode_edges(p, u).indices()
        for size in range(ec, len(edges) + 1):
            s = size - ec
            for combo in combinations(edges, size):
                x = edges_to_subpartition(ElementSet.from_indices(u, combo))
                assert Fraction(x.weight) >= t - 1 + Fraction(s, k)

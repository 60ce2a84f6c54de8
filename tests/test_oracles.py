"""Brute-force differential oracles for the optimized search routines.

Each test recomputes a quantity from its bare definition over a small
universe (all subsets, all sub-families) and compares with the library
path, so the two sides stay independent.
"""

import random
from fractions import Fraction
from itertools import combinations

import mpmath
from hypothesis import given, settings, strategies as st

from conftest import enumerate_uniform, family_of
from partspread.exact import ExactPow
from partspread.extremal import PREDICATES, _adjacency, _max_clique_masks, _shape_orbits
from partspread.partitions import (
    Profile,
    enumerate_into_blocks,
    enumerate_partitions,
    enumerate_profiled,
)
from partspread.setfam import ElementSet, PlainUniverse, SetFamily, covering_number
from partspread.spread import (
    _pack_disjoint,
    find_sunflower,
    is_r_spread,
    spread_factor,
    weak_spread,
)


def _random_family(rnd, n, count, max_size=4):
    members = set()
    while len(members) < count:
        size = rnd.randint(1, max_size)
        members.add(frozenset(rnd.sample(range(n), size)))
    return family_of(n, *members)


def _count_containing(f, xmask):
    return sum(1 for m in f.masks if m & xmask == xmask)


def test_spread_factor_against_full_subset_scan():
    rnd = random.Random(101)
    for _ in range(30):
        n = rnd.randint(3, 7)
        f = _random_family(rnd, n, rnd.randint(1, 6), max_size=min(4, n))
        # oracle: minimum over every nonempty subset of the whole universe
        best = None
        for size in range(1, n + 1):
            for combo in combinations(range(n), size):
                xmask = sum(1 << i for i in combo)
                cnt = _count_containing(f, xmask)
                if cnt == 0:
                    continue  # empty restrictions satisfy every threshold
                val = ExactPow(Fraction(f.size, cnt), Fraction(1, size))
                if best is None or val < best:
                    best = val
        rep = spread_factor(f)
        if best is None:
            assert rep.r_star.infinite
        else:
            assert rep.r_star == best


def test_is_r_spread_against_definition():
    rnd = random.Random(55)
    for _ in range(30):
        n = rnd.randint(3, 6)
        f = _random_family(rnd, n, rnd.randint(1, 6), max_size=min(4, n))
        for r in (Fraction(3, 2), 2, Fraction(5, 2), 4):
            truth = True
            for size in range(1, n + 1):
                for combo in combinations(range(n), size):
                    xmask = sum(1 << i for i in combo)
                    cnt = _count_containing(f, xmask)
                    if cnt * Fraction(r) ** size > f.size:
                        truth = False
            assert is_r_spread(f, r)[0] == truth


def test_weak_spread_against_full_scan():
    rnd = random.Random(77)
    for _ in range(20):
        n = rnd.randint(3, 6)
        f = _random_family(rnd, n, rnd.randint(2, 6), max_size=min(4, n))
        t = rnd.randint(1, 2)
        if f.max_size() < t:
            continue
        # oracle: best T over all t-subsets of the universe, then minimize
        best_t, best_cnt = None, -1
        for combo in combinations(range(n), t):
            xmask = sum(1 << i for i in combo)
            cnt = _count_containing(f, xmask)
            if cnt > best_cnt:
                best_t, best_cnt = xmask, cnt
        best_r = None
        for size in range(t + 1, n + 1):
            for combo in combinations(range(n), size):
                umask = sum(1 << i for i in combo)
                cnt = _count_containing(f, umask)
                if cnt == 0:
                    continue
                val = ExactPow(Fraction(best_cnt, cnt), Fraction(1, size - t))
                if best_r is None or val < best_r:
                    best_r = val
        t_set, r, _ = weak_spread(f, t)
        assert _count_containing(f, t_set.mask) == best_cnt
        if best_r is None:
            assert r.infinite
        else:
            assert r == best_r


def _is_sunflower(masks):
    core = masks[0]
    for m in masks[1:]:
        core &= m
    for i in range(len(masks)):
        for j in range(i + 1, len(masks)):
            if masks[i] & masks[j] != core:
                return False
    return True


def test_find_sunflower_against_subset_scan():
    rnd = random.Random(31)
    for _ in range(25):
        n = rnd.randint(4, 7)
        f = _random_family(rnd, n, rnd.randint(2, 7), max_size=3)
        for l in (2, 3, 4):
            exists = any(
                _is_sunflower(list(combo)) for combo in combinations(f.masks, l)
            ) if f.size >= l else False
            got = find_sunflower(f, l)
            assert (got is not None) == exists
            if got is not None:
                core, petals = got
                assert _is_sunflower([p.mask for p in petals])
                inter = petals[0].mask
                for p in petals[1:]:
                    inter &= p.mask
                assert inter == core.mask


def _recursive_pack_disjoint(residues, need):
    """The recursive depth-first packing the loop in `_pack_disjoint` replaced."""
    order = sorted(range(len(residues)), key=lambda i: (residues[i][0].bit_count(), i))

    def go(pos, used, acc):
        if len(acc) == need:
            return acc
        if len(order) - pos < need - len(acc):
            return None
        for idx in range(pos, len(order)):
            rm, original = residues[order[idx]]
            if rm & used == 0:
                got = go(idx + 1, used | rm, acc + [original])
                if got is not None:
                    return got
        return None

    return go(0, 0, [])


def test_pack_disjoint_against_recursive_search():
    # the same indices in the same depth-first order, found or not
    rnd = random.Random(23)
    for _ in range(3000):
        width = rnd.randint(1, 10)
        residues = [
            (rnd.getrandbits(width) & rnd.getrandbits(width), rnd.randrange(100))
            for _ in range(rnd.randint(0, 10))
        ]
        need = rnd.randint(0, 5)
        assert _pack_disjoint(residues, need) == _recursive_pack_disjoint(residues, need)
    singletons = [(1 << i, i) for i in range(1200)]
    assert _pack_disjoint(singletons, 1100) == list(range(1100))  # no recursion limit


def test_covering_number_against_subset_scan():
    rnd = random.Random(13)
    for _ in range(25):
        n = rnd.randint(3, 7)
        f = _random_family(rnd, n, rnd.randint(1, 6), max_size=min(3, n))
        best = None
        for size in range(1, n + 1):
            for combo in combinations(range(n), size):
                cmask = sum(1 << i for i in combo)
                if all(m & cmask for m in f.masks):
                    best = combo
                    break
            if best is not None:
                break
        tau, witness = covering_number(f)
        assert tau == len(best)
        assert tuple(witness.indices()) == best  # lexicographically least


def _random_graph(rnd, n):
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rnd.random() < 0.5:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return adj


def test_max_clique_against_subset_scan():
    rnd = random.Random(400)
    for _ in range(20):
        n = rnd.randint(4, 11)
        adj = _random_graph(rnd, n)
        best = 0
        for size in range(n, 0, -1):
            found = False
            for combo in combinations(range(n), size):
                if all(
                    (adj[a] >> b) & 1 for a, b in combinations(combo, 2)
                ):
                    found = True
                    break
            if found:
                best = size
                break
        vertices, _, maxima = _max_clique_masks(adj, n)
        assert maxima is None  # no cap: the plain search collects nothing
        assert len(vertices) == best
        for a, b in combinations(vertices, 2):
            assert (adj[a] >> b) & 1


def test_enumerate_maximum_cliques_against_subset_scan():
    rnd = random.Random(88)
    # edges 0-3, 0-4, 1-2, 1-3, 2-3, 2-4: the search meets two maximal edges,
    # more than cap 1, before the one triangle, which it must still report
    graphs = [[0b11000, 0b01100, 0b11010, 0b00111, 0b00101]]
    graphs += [_random_graph(rnd, rnd.randint(3, 9)) for _ in range(15)]
    for adj in graphs:
        n = len(adj)
        size = len(_max_clique_masks(adj, n)[0])
        truth = {
            combo
            for combo in combinations(range(n), size)
            if all((adj[a] >> b) & 1 for a, b in combinations(combo, 2))
        }
        _, _, got = _max_clique_masks(adj, n, 10**4)
        assert got is not None and set(got) == truth and len(got) == len(truth)
        _, _, capped = _max_clique_masks(adj, n, 0)
        assert capped is None  # cap exceeded reports unknown
        _, _, at_cap = _max_clique_masks(adj, n, len(truth))
        assert at_cap is not None and set(at_cap) == truth
        if len(truth) > 1:
            assert _max_clique_masks(adj, n, len(truth) - 1)[2] is None


# a graph on n <= 12 vertices: bit k of the integer is the k-th vertex pair
graph_st = st.integers(0, 12).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, (1 << n * (n - 1) // 2) - 1))
)


@settings(max_examples=200, deadline=None)
@given(graph_st, st.integers(0, 8))
def test_capped_search_matches_plain_search(graph, cap):
    n, edges = graph
    adj = [0] * n
    for k, (i, j) in enumerate(combinations(range(n), 2)):
        if edges >> k & 1:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    plain = _max_clique_masks(adj, n)
    capped = _max_clique_masks(adj, n, cap)
    every = _max_clique_masks(adj, n, 10**4)[2]  # n <= 12: at most 924 maxima
    assert capped[0] == plain[0]
    assert capped[1] >= plain[1]  # tied bounds branch too
    assert tuple(plain[0]) in every
    # None exactly when the maxima outnumber the cap, even after smaller
    # sizes overflowed it earlier in the search
    assert capped[2] == (every if len(every) <= cap else None)


def _recursive_max_clique_masks(adj, n, cap=None, orbits=None):
    """The search `_max_clique_masks` ran before its one loop: a recursive
    `expand` per node and a separate root loop over the orbits."""
    best = []
    nodes = 0
    ties = [()] if cap else None
    keep = [~(row | 1 << v) for v, row in enumerate(adj)]

    def expand(cand, current):
        nonlocal best, nodes, ties
        nodes += 1
        order = []
        color = 0
        rest = cand
        while rest:
            color += 1
            avail = rest
            while avail:
                low = avail & -avail
                v = low.bit_length() - 1
                avail &= keep[v]
                rest ^= low
                order.append((v, color))
        for v, color in reversed(order):
            if len(current) + color < len(best) + (ties is None):
                return
            current.append(v)
            nxt = cand & adj[v]
            if nxt:
                expand(nxt, current)
            elif len(current) > len(best):
                best = list(current)
                ties = None if cap is None else [tuple(sorted(best))]
            elif ties is not None and len(current) == len(best):
                ties.append(tuple(sorted(current)))
            if ties is not None and len(ties) > cap:
                ties = None
            current.pop()
            cand ^= 1 << v

    cand = (1 << n) - 1
    if orbits is None and n:
        expand(cand, [])
    elif orbits:
        nodes = 1
        for v, orbit in orbits:
            nxt = cand & adj[v]
            if nxt:
                expand(nxt, [v])
            elif not best:
                best = [v]
            cand &= ~orbit
    return sorted(best), nodes, None if ties is None else sorted(ties)


def test_clique_loop_against_recursive_search():
    # the same (vertices, nodes, maxima) for every cap, and for a random
    # grouping of the vertices passed as orbits, on graphs of every density
    rnd = random.Random(2311)
    for _ in range(800):
        n = rnd.randrange(28)
        density = rnd.random()
        adj = [0] * n
        for i, j in combinations(range(n), 2):
            if rnd.random() < density:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
        for cap in (None, 0, 1, 3, 10**4):
            assert _max_clique_masks(adj, n, cap) == _recursive_max_clique_masks(adj, n, cap)
        vertices = rnd.sample(range(n), n)
        orbits = []
        while vertices:
            size = rnd.randint(1, len(vertices))
            group, vertices = vertices[:size], vertices[size:]
            orbits.append((rnd.choice(group), sum(1 << v for v in group)))
        got = _max_clique_masks(adj, n, orbits=orbits)
        assert got == _recursive_max_clique_masks(adj, n, orbits=orbits)


def _pairwise_adjacency(universe, predicate, t):
    """The compatibility graph from one predicate call per pair."""
    pred = PREDICATES[predicate]
    adj = [0] * len(universe)
    for i, j in combinations(range(len(universe)), 2):
        if pred(universe[i], universe[j], t):
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return adj


def _kernel_cases():
    """(universe, ground set size) pairs small enough to test pairwise."""
    cases = [(enumerate_partitions(n), n) for n in range(7)]
    cases += [(enumerate_into_blocks(n, l), n) for n in range(1, 6) for l in range(1, n + 1)]
    cases += [(enumerate_uniform(k, l), k * l) for k, l in ((2, 1), (2, 2), (2, 3), (2, 4))]
    cases += [(enumerate_uniform(3, 2), 6), (enumerate_uniform(3, 3), 9)]
    cases += [(enumerate_profiled(Profile(s)), sum(s)) for s in ((1, 2, 3), (1, 1, 2, 2))]
    return cases


def test_adjacency_kernel_against_pairwise_predicates():
    # t runs from the least accepted value to one above the largest block
    # (and block count), so the complete and the empty graph both occur
    for universe, n in _kernel_cases():
        for predicate, least in (("t-intersect", 0), ("partially-t-intersect", 1)):
            for t in range(least, n + 2):
                got = _adjacency(universe, predicate, t)
                assert got == _pairwise_adjacency(universe, predicate, t), (n, predicate, t)
    full = enumerate_partitions(4)
    complete = [(1 << 15) - 1 - (1 << v) for v in range(15)]
    assert _adjacency(full, "t-intersect", 0) == complete
    assert _adjacency(full, "partially-t-intersect", 1) == complete
    assert _adjacency(full, "t-intersect", 5) == [0] * 15
    assert _adjacency(full, "partially-t-intersect", 5) == [0] * 15


def _closed_universes():
    """Universes closed under relabelling: every bell n <= 6, every blocks
    n <= 7, every profile of n <= 7, and the uniform (k,l) up to (6,2) and
    (2,5).  The other uniform universes within the vertex guard are left
    out for time: the plain search on (3,3) runs for about a minute."""
    cases = [enumerate_partitions(n) for n in range(7)]
    cases += [enumerate_into_blocks(n, l) for n in range(1, 8) for l in range(1, n + 1)]
    shapes = {p.profile() for n in range(1, 8) for p in enumerate_partitions(n)}
    cases += [enumerate_profiled(shape) for shape in sorted(shapes, key=lambda s: s.sizes)]
    cases += [enumerate_uniform(k, l) for k, l in ((2, 4), (2, 5), (4, 2), (5, 2), (6, 2))]
    return cases


def test_orbital_root_against_plain_search():
    # the size equals the plain search's and the witness is a clique, for
    # every t from the least accepted to one above the largest block
    for universe in _closed_universes():
        orbits = _shape_orbits(universe)
        assert orbits is not None
        for predicate, least in (("t-intersect", 0), ("partially-t-intersect", 1)):
            for t in range(least, universe[0].n + 2):
                adj = _adjacency(universe, predicate, t)
                plain, _, _ = _max_clique_masks(adj, len(universe))
                orbital, _, _ = _max_clique_masks(adj, len(universe), orbits=orbits)
                assert len(orbital) == len(plain), (universe[0], predicate, t)
                assert all(adj[a] >> b & 1 for a, b in combinations(orbital, 2))


B6 = enumerate_partitions(6)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(0, len(B6) - 1), unique=True, max_size=40),
    st.sampled_from(sorted(PREDICATES)),
    st.integers(0, 7),
)
def test_adjacency_kernel_on_random_sub_universes(picks, predicate, t):
    universe = [B6[i] for i in picks]
    t = max(t, 1) if predicate == "partially-t-intersect" else t
    assert _adjacency(universe, predicate, t) == _pairwise_adjacency(universe, predicate, t)


def test_exactpow_total_order_against_mpmath():
    mpmath.mp.dps = 60
    rnd = random.Random(9)
    values = []
    for _ in range(40):
        base = Fraction(rnd.randint(1, 400), rnd.randint(1, 50))
        exp = Fraction(rnd.randint(1, 9), rnd.randint(1, 9))
        values.append(ExactPow(base, exp))
    refs = [
        mpmath.power(mpmath.mpf(v.base.numerator) / v.base.denominator,
                     mpmath.mpf(v.exponent.numerator) / v.exponent.denominator)
        for v in values
    ]
    for i in range(len(values)):
        for j in range(len(values)):
            diff = refs[i] - refs[j]
            if abs(diff) > mpmath.mpf("1e-40"):
                assert (values[i] < values[j]) == (diff < 0), (i, j)

"""Set encodings of partitions, and the count of partitions extending a subpartition.

Two encodings are used.  Parts encoding: each block of a partition becomes
one universe element, so a partition is the set of its blocks.  Edge
encoding: universe elements are the unordered pairs of [n], and a partition
maps to all pairs lying inside a common block (in graph terms, a disjoint
union of cliques).
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import combinations
from typing import Callable, Iterator, Sequence

from .errors import DomainError, IntegrityError
from .partitions import (
    Partition,
    Profile,
    bell,
    count_profiled,
    require_profiled,
    stirling2,
    u_count,
)
from .setfam import EdgesUniverse, ElementSet, PartsUniverse, SetFamily
from . import guards


def encode_parts(p: Partition, u: PartsUniverse) -> ElementSet:
    """One universe element per block; the set size is the block count."""
    if u.kind != "parts" or u.n != p.n:
        raise DomainError("partition does not match the parts universe")
    mask = 0
    for b in p.blocks:
        mask |= 1 << u.index_of(b)
    return ElementSet(u, mask)


def encode_edges(p: Partition, u: EdgesUniverse) -> ElementSet:
    """All within-block pairs; size is sum over blocks of C(|block|, 2)."""
    if u.kind != "edges" or u.n != p.n:
        raise DomainError("partition does not match the edge universe")
    mask = 0
    for b in p.blocks:
        for pair in combinations(b, 2):
            mask |= 1 << u.index_of(pair)
    return ElementSet(u, mask)


def _place(k: int, states: dict, size: int) -> Counter:
    """The load states after one more block of `size` goes into a part."""
    placed: Counter[tuple[int, ...]] = Counter()
    for loads, ways in states.items():
        for v in range(k - size + 1):
            if loads[v]:
                nxt = list(loads)
                nxt[v], nxt[v + size] = nxt[v] - 1, nxt[v + size] + 1
                placed[tuple(nxt)] += ways * loads[v]
    return placed


def _unlabelled(k: int, l: int, fixed: int, states: dict) -> int:
    """The partitions the placements of `states` (blocks of total size fixed) extend to."""
    fill = math.factorial(k * l - fixed)
    labelled = sum(
        ways * fill // math.prod(math.factorial(k - v) ** c for v, c in enumerate(loads))
        for loads, ways in states.items()
    )
    total, rem = divmod(labelled, math.factorial(l))
    if rem:
        raise IntegrityError("the labelled extension count is not a multiple of l!")
    return total


def count_extensions(k: int, l: int, sizes: Sequence[int]) -> int:
    """Number of partitions of [k*l] into l k-blocks extending a subpartition
    whose blocks have the given sizes.

    A partition extends the subpartition when every block of it lies inside
    some part; two blocks may share a part when their sizes fit.  The blocks
    go one at a time into l labelled parts of capacity k; a state counts the
    parts at each load 0..k and maps to its number of placements.  A final
    state with c_v parts at load v has (kl - sum sizes)! / prod_v
    ((k - v)!)^(c_v) fillings, and dividing the sum by l! unlabels the parts.
    Validated against the grouping sum and enumeration in the tests.
    """
    if k < 1 or l < 1:
        raise DomainError("need k >= 1 and l >= 1")
    if any(not 2 <= s <= k for s in sizes):
        raise DomainError(f"block sizes must lie in [2, {k}]")
    fixed = sum(sizes)
    if fixed > k * l:
        raise DomainError(f"blocks of total size {fixed} do not fit in [{k * l}]")
    states = {(l,) + (0,) * k: 1}
    for s in sizes:
        states = _place(k, states, s)
    return _unlabelled(k, l, fixed, states)


# ---------------------------------------------------------------------------
# shape walks


def _walk_shapes(low: int, top: int, root, grow) -> Iterator[tuple[tuple[int, ...], object]]:
    """(shape, state) for each nonempty non-increasing tuple of sizes in
    [low, top] that `grow` keeps.

    A depth-first loop over an explicit stack, each shape before those it
    prefixes and smaller last sizes first.  grow(state, shape) is the state
    of shape from the state of its prefix (root for the empty one), or None
    for a shape that no member extends; such a shape prefixes none that one
    does, so it is not grown.
    """
    stack: list[tuple[tuple[int, ...], object]] = [((), root)]
    while stack:
        shape, state = stack.pop()
        if shape:
            yield shape, state
        for size in range(shape[-1] if shape else top, low - 1, -1):
            child = grow(state, shape + (size,))
            if child is not None:
                stack.append((shape + (size,), child))


def extension_shapes(k: int, l: int) -> list[tuple[tuple[int, ...], int]]:
    """(shape, count_extensions(k, l, shape)) of each block-size multiset (a
    non-increasing tuple, sizes in [2, k]) that some uniform (k,l) partition
    extends, in `_walk_shapes` order.

    Each shape carries the load states of `count_extensions`, so a shape
    places one block onto the states of its prefix; a shape with no
    placement is one no partition extends.
    """

    def grow(state, shape):
        states, fixed = state
        placed = _place(k, states, shape[-1])
        return (placed, fixed + shape[-1]) if placed else None

    root = ({(l,) + (0,) * k: 1}, 0)
    return [
        (shape, _unlabelled(k, l, fixed, states))
        for shape, (states, fixed) in _walk_shapes(2, k, root, grow)
    ]


def parts_shapes(
    n: int, count: Callable[[tuple[int, ...]], int]
) -> list[tuple[tuple[int, ...], int, int]]:
    """(shape, count, number) of the candidate sets of a parts-encoded family
    of partitions of [n], one triple per shape, in `_walk_shapes` order.

    A candidate is a nonempty set X of blocks lying in some member; its shape
    is the non-increasing tuple of its block sizes.  count(shape) must be
    |F(X)| for the sets of pairwise-disjoint blocks X of that shape:
    B_(n-m) for all partitions of [n], S(n - m, L - s) for those with L
    blocks, and `count_profiled` of the profile less the shape (0 when the
    shape is not part of it) for one profile, with m = sum(shape) and
    s = len(shape).  number is how many sets have the shape:
    n! / ((n - m)! prod b_i! prod mult!), as the blocks are taken in order
    and equal sizes in any order.

    Lemma.  All X of one shape share one count, and X lies in a member
    exactly when that count is positive.  Proof: a member holds X when X's
    blocks are among its blocks, so taking them away maps the members
    holding X one to one onto the partitions of the n - m elements outside
    X that keep the family's form less X: any partition, L - s blocks, or
    the profile less X's sizes.  How many there are depends on m, s and the
    sizes alone, that is on the shape, and X lies in a member exactly when
    one member holds it, that is when the count is positive.  Blocks that
    are not pairwise disjoint lie in no member, so the candidates are the
    sets of pairwise-disjoint blocks whose shape has a positive count.  A
    shape of count 0 prefixes only shapes of count 0, since a member that
    holds a set holds each of its subsets, so the walk does not grow it.
    """

    def grow(state, shape):
        m, number, _ = state
        size = shape[-1]
        cnt = count(shape) if m + size <= n else 0
        if not cnt:
            return None
        # the new block among the n - m free elements, in any order among its equal sizes
        return m + size, number * math.comb(n - m, size) // shape.count(size), cnt

    walk = _walk_shapes(1, n, (0, 1, 0), grow)
    return [(shape, cnt, number) for shape, (_, number, cnt) in walk]


def spec_candidates(kind: str, values: Sequence[int]):
    """(shapes, candidates, top) of the family that a spec kind and its
    integers name (the profile's sizes for profiled), without enumerating
    it; None for integers its enumeration refuses before it enumerates.

    The family's enumeration guard is asked first.  shapes is the
    `parts_shapes` walk of bell:N, blocks:N,L and profiled:K1,... (None for
    kl:K,L and ct:K,L,T), candidates the sum of 2^|A| over the members A,
    and top the largest member size.  The members of kl and ct have
    L C(K, 2) edges each, and ct has C(KL - T, K - T) u(K, L - 1) of them.
    """
    if kind == "bell" and len(values) == 1 and values[0] >= 0:
        (n,) = values
        guards.require("enum_max_n", n, "n")

        def count(shape):
            return bell(n - sum(shape))
    elif kind == "blocks" and len(values) == 2 and 1 <= values[1] <= values[0]:
        n, l = values
        guards.require("enum_max_n", n, "n")

        def count(shape):
            return stirling2(n - sum(shape), l - len(shape)) if len(shape) <= l else 0
    elif kind == "profiled":
        profile = Profile(values)
        require_profiled(profile)
        n = profile.n

        def count(shape):
            left = Counter(profile.sizes)
            left.subtract(shape)
            if min(left.values()) < 0:
                return 0
            return count_profiled(Profile(sorted(left.elements())))
    elif kind in ("kl", "ct") and len(values) == 2 + (kind == "ct"):
        k, l, t = (*values, 1)[:3]
        if k < 1 or l < 1 or k * l < 2 or not 1 <= t <= k:
            return None
        require_profiled(Profile.uniform(k, l))
        members = u_count(k, l)
        if kind == "ct":
            members = math.comb(k * l - t, k - t) * count_profiled(Profile((k,) * (l - 1)))
        edges = l * math.comb(k, 2)
        return None, members * 2**edges, edges
    else:
        return None
    shapes = parts_shapes(n, count)
    candidates = count(()) + sum(cnt * number for _, cnt, number in shapes)
    return shapes, candidates, max((len(shape) for shape, _, _ in shapes), default=0)


# ---------------------------------------------------------------------------
# family builders


def _encode_family(partitions: Sequence[Partition], u, make_universe, encode):
    if not partitions:
        raise DomainError("cannot encode an empty list of partitions")
    if u is None:
        u = make_universe(partitions[0].n)
    return u, SetFamily(u, [encode(p, u).mask for p in partitions])


def encode_family_parts(
    partitions: Sequence[Partition], u: PartsUniverse | None = None
) -> tuple[PartsUniverse, SetFamily]:
    """Parts-encode a list of partitions, over a fresh lazy universe unless u is given."""
    return _encode_family(partitions, u, PartsUniverse, encode_parts)


def encode_family_edges(
    partitions: Sequence[Partition], u: EdgesUniverse | None = None
) -> tuple[EdgesUniverse, SetFamily]:
    """Edge-encode a list of partitions, over the full pair universe unless u is given."""
    return _encode_family(partitions, u, EdgesUniverse, encode_edges)

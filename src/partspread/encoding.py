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
from typing import Sequence

from .errors import DomainError, IntegrityError
from .partitions import Partition
from .setfam import EdgesUniverse, ElementSet, PartsUniverse, SetFamily


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
        placed: Counter[tuple[int, ...]] = Counter()
        for loads, ways in states.items():
            for v in range(k - s + 1):
                if loads[v]:
                    nxt = list(loads)
                    nxt[v], nxt[v + s] = nxt[v] - 1, nxt[v + s] + 1
                    placed[tuple(nxt)] += ways * loads[v]
        states = placed
    fill = math.factorial(k * l - fixed)
    labelled = sum(
        ways * fill // math.prod(math.factorial(k - v) ** c for v, c in enumerate(loads))
        for loads, ways in states.items()
    )
    total, rem = divmod(labelled, math.factorial(l))
    if rem:
        raise IntegrityError("the labelled extension count is not a multiple of l!")
    return total


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

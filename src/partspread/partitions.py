"""Set partitions of [n]: canonical form, enumeration, counting, intersection.

Ground sets are always 1-based intervals [n] = {1, ..., n}.  A partition is
kept in canonical form: each block sorted ascending, blocks sorted by their
minimum element.  Two partitions are equal iff their canonical forms agree.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import combinations
from typing import Iterable, Iterator

from .errors import DomainError
from . import guards


class Partition:
    """A partition of [n] into disjoint nonempty blocks, canonically ordered."""

    __slots__ = ("n", "blocks")

    def __init__(self, blocks: Iterable[Iterable[int]], n: int | None = None):
        blocks = [tuple(sorted(b)) for b in blocks]
        seen: set[int] = set()
        total = 0
        for b in blocks:
            if not b:
                raise DomainError("empty block")
            total += len(b)
            seen.update(b)
        if len(seen) != total:
            raise DomainError("blocks are not pairwise disjoint")
        if n is None:
            n = total
        if seen != set(range(1, n + 1)):
            raise DomainError(f"blocks do not cover [{n}] exactly")
        blocks.sort(key=lambda b: b[0])
        self.n = n
        self.blocks = tuple(blocks)

    @classmethod
    def _trusted(cls, n: int, blocks: tuple[tuple[int, ...], ...]) -> "Partition":
        """Build from blocks already known to be canonical (enumeration path)."""
        p = object.__new__(cls)
        p.n = n
        p.blocks = blocks
        return p

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def profile(self) -> "Profile":
        # sorted block lengths of a valid partition need no re-validation
        p = object.__new__(Profile)
        p.sizes = tuple(sorted(map(len, self.blocks)))
        return p

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Partition)
            and self.n == other.n
            and self.blocks == other.blocks
        )

    def __hash__(self) -> int:
        return hash((self.n, self.blocks))

    def __repr__(self) -> str:
        body = "|".join(",".join(str(e) for e in b) for b in self.blocks)
        return f"Partition[{body}]"


class Profile:
    """A non-decreasing sequence of positive block sizes."""

    __slots__ = ("sizes",)

    def __init__(self, sizes: Iterable[int]):
        sizes = tuple(sizes)
        if not all(isinstance(s, int) and s >= 1 for s in sizes):
            raise DomainError("profile sizes must be positive integers")
        if any(a > b for a, b in zip(sizes, sizes[1:])):
            raise DomainError("profile sizes must be non-decreasing")
        self.sizes = sizes

    @classmethod
    def uniform(cls, k: int, l: int) -> "Profile":
        """The profile of partitions of [k*l] into l blocks of size k."""
        if k < 1 or l < 1:
            raise DomainError("uniform profile needs k >= 1 and l >= 1")
        return cls((k,) * l)

    @property
    def n(self) -> int:
        return sum(self.sizes)

    @property
    def num_blocks(self) -> int:
        return len(self.sizes)

    def __eq__(self, other) -> bool:
        return isinstance(other, Profile) and self.sizes == other.sizes

    def __hash__(self) -> int:
        return hash(self.sizes)

    def __repr__(self) -> str:
        return f"Profile{self.sizes}"


# ---------------------------------------------------------------------------
# counting


# grown in place together: _BELLS[n] = B_n, and _BELL_ROW is row len(_BELLS) - 1
# of the Bell triangle, which starts with the last Bell number and ends with the next
_BELLS = [1]
_BELL_ROW = [1]


def bell(n: int) -> int:
    """The n-th Bell number from the Bell triangle (Aitken's array), cached.

    Each row starts with the last entry of the row before, and each further
    entry adds the entry above-left to its left neighbour; row n starts with B_n.
    """
    if n < 0:
        raise DomainError("bell(n) needs n >= 0")
    while len(_BELLS) <= n:
        carry = _BELL_ROW[-1]
        for i, entry in enumerate(_BELL_ROW):
            _BELL_ROW[i], carry = carry, carry + entry
        _BELL_ROW.append(carry)
        _BELLS.append(_BELL_ROW[0])
    return _BELLS[n]


def stirling2(n: int, l: int) -> int:
    """Stirling number of the second kind: partitions of [n] into l blocks.

    Inclusion-exclusion over the blocks left empty, with 0^0 = 1:
    S(n, l) = sum_(i=0..l) (-1)^i C(l, i) (l - i)^n / l!.
    """
    if n < 0 or l < 0:
        raise DomainError("stirling2 needs n >= 0 and l >= 0")
    if l > n:
        return 0
    total = sum((-1) ** i * math.comb(l, i) * (l - i) ** n for i in range(l + 1))
    return total // math.factorial(l)


def tilde_bell(n: int) -> int:
    """Partitions of [n] with every block of size at least 2: those sharing
    no block with the partition into singletons."""
    if n < 0:
        raise DomainError("tilde_bell(n) needs n >= 0")
    return count_derangements(Partition._trusted(n, tuple((e,) for e in range(1, n + 1))))


def count_profiled(p: Profile) -> int:
    """Number of partitions whose multiset of block sizes equals the profile.

    n! / prod_s ((s!)^m_s m_s!) where m_s counts the blocks of size s; the
    m_s! stops equal-size blocks from being ordered.
    """
    return math.factorial(p.n) // math.prod(
        math.factorial(s) ** m * math.factorial(m) for s, m in Counter(p.sizes).items()
    )


def u_count(k: int, l: int) -> int:
    """Number of partitions of [k*l] into l blocks of size k."""
    return count_profiled(Profile.uniform(k, l))


def count_derangements(p: Partition) -> int:
    """Partitions of [n] sharing no block with p, by inclusion-exclusion.

    The partitions holding a set S of p's blocks are those of the other
    n - |union S| elements, so the count sums (-1)^|S| B(n - |union S|).  One
    subset-sum pass over the blocks gives the signed count of the S covering j.
    """
    signed = [1] + [0] * p.n
    for size in map(len, p.blocks):
        for j in range(p.n - size, -1, -1):
            signed[j + size] -= signed[j]
    return sum(c * bell(p.n - j) for j, c in enumerate(signed))


# ---------------------------------------------------------------------------
# enumeration


def _canonical_blocks(
    n: int, lo: int, hi: int
) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Canonical blocks of the partitions of [n] with lo..hi blocks, RGS order.

    Grows each partition from its prefix: element e joins block 0..k-1 or
    opens block k, so children come out in lexicographic order of their
    growth strings.  A branch is cut as soon as its final block count cannot
    land in [lo, hi].  Siblings share their unchanged block tuples.
    """
    guards.require("enum_max_n", n, "n")
    if n == 0:
        if lo <= 0 <= hi:
            yield ()
        return
    stack: list[tuple[tuple[tuple[int, ...], ...], int]] = [((), 1)]
    while stack:
        blocks, e = stack.pop()
        k = len(blocks)
        children = []
        if k + n - e >= lo:  # joining keeps k blocks, n - e elements may still open
            children = [
                blocks[:i] + (blocks[i] + (e,),) + blocks[i + 1 :] for i in range(k)
            ]
        if k < hi:
            children.append(blocks + ((e,),))
        if e == n:
            yield from children
        else:
            stack.extend((c, e + 1) for c in reversed(children))


def iter_partitions(n: int) -> Iterator[Partition]:
    """All partitions of [n] in canonical (RGS-lexicographic) order."""
    if n < 0:
        raise DomainError("iter_partitions needs n >= 0")
    for blocks in _canonical_blocks(n, 0, n):
        yield Partition._trusted(n, blocks)


def enumerate_partitions(n: int) -> list[Partition]:
    """All partitions of [n] as a list; length equals bell(n)."""
    return list(iter_partitions(n))


def enumerate_into_blocks(n: int, l: int) -> list[Partition]:
    """All partitions of [n] with exactly l blocks; length stirling2(n, l)."""
    if l < 1 or l > n:
        raise DomainError(f"need 1 <= l <= n, got l={l}, n={n}")
    return [Partition._trusted(n, b) for b in _canonical_blocks(n, l, l)]


def _gen_profiled(
    elems: tuple[int, ...], sizes: tuple[int, ...]
) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Blocks over elems with the given size multiset, minima increasing.

    A depth-first loop over an explicit stack: the least free element opens
    the next block, with each distinct size left in profile order and the
    block's other elements in combinations order.
    """
    stack = [((), elems, sizes)]
    while stack:
        blocks, elems, sizes = stack.pop()
        if not elems:
            yield blocks
            continue
        first, rest = elems[0], elems[1:]
        children = []
        tried: set[int] = set()
        for i, size in enumerate(sizes):
            if size in tried:
                continue
            tried.add(size)
            remaining_sizes = sizes[:i] + sizes[i + 1 :]
            for others in combinations(rest, size - 1):
                chosen = set(others)
                remaining = tuple(e for e in rest if e not in chosen)
                children.append((blocks + ((first,) + others,), remaining, remaining_sizes))
        stack.extend(reversed(children))


def require_profiled(p: Profile) -> None:
    """Refuse to enumerate a profile above profiled_enum_max partitions."""
    guards.require(
        "profiled_enum_max", count_profiled(p), f"partitions of profile {p.sizes}"
    )


def enumerate_profiled(p: Profile) -> list[Partition]:
    """All partitions of [sum(sizes)] whose block sizes match the profile."""
    require_profiled(p)
    n = p.n
    elems = tuple(range(1, n + 1))
    return [Partition._trusted(n, bl) for bl in _gen_profiled(elems, p.sizes)]


# ---------------------------------------------------------------------------
# intersection predicates


def t_intersect(p: Partition, q: Partition, t: int) -> bool:
    """True iff p and q have at least t blocks in common (as sets)."""
    if p.n != q.n:
        raise DomainError("partitions over different ground sets")
    if t < 0:
        raise DomainError("t_intersect needs t >= 0")
    if t == 0:
        return True
    shared = set(p.blocks).intersection(q.blocks)
    return len(shared) >= t


def partially_t_intersect(p: Partition, q: Partition, t: int) -> bool:
    """True iff some block of p meets some block of q in >= t elements."""
    if p.n != q.n:
        raise DomainError("partitions over different ground sets")
    if t < 1:
        raise DomainError("partially_t_intersect needs t >= 1")
    qsets = [set(b) for b in q.blocks]
    return any(len(qs.intersection(b)) >= t for b in p.blocks for qs in qsets)

"""Set families over indexed universes, with restriction/star operators.

Members are dense bitmasks over universe indices 0..N-1, so the restriction,
avoidance and star operators are single AND/OR-mask passes.  Three universe
kinds exist: "parts" (elements are blocks of [n], registered lazily in
first-seen order), "edges" (elements are the C(n,2) unordered pairs of [n],
with a closed-form index), and "plain" (bare indices, used when families are
loaded from text).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator

from .errors import DomainError
from . import guards


class PartsUniverse:
    """Universe whose elements are blocks (nonempty subsets of [n]).

    The index map grows as new blocks are observed; indices are stable and
    assigned in first-seen order.
    """

    kind = "parts"

    def __init__(self, n: int):
        self.n = n
        self._index: dict[frozenset[int], int] = {}
        self._parts: list[frozenset[int]] = []

    @property
    def size(self) -> int:
        return len(self._parts)

    def index_of(self, part: Iterable[int]) -> int:
        key = frozenset(part)
        got = self._index.get(key)
        if got is None:
            # only valid blocks are registered, so a known block needs no check
            if not key or not all(1 <= e <= self.n for e in key):
                raise DomainError(f"block {sorted(key)} is not a nonempty subset of [{self.n}]")
            got = len(self._parts)
            self._index[key] = got
            self._parts.append(key)
        return got

    def part_at(self, idx: int) -> frozenset[int]:
        return self._parts[idx]

    def label(self, idx: int) -> str:
        return "{" + ",".join(str(e) for e in sorted(self._parts[idx])) + "}"


class EdgesUniverse:
    """Universe whose elements are the unordered pairs of [n].

    Pair {i, j} with i < j (1-based) has index C(j-1, 2) + (i-1), so indices
    are stable and order-independent.
    """

    kind = "edges"

    def __init__(self, n: int):
        if n < 2:
            raise DomainError("edge universe needs n >= 2")
        self.n = n
        self.size = n * (n - 1) // 2

    def index_of(self, pair: Iterable[int]) -> int:
        i, j = sorted(pair)
        if not (1 <= i < j <= self.n):
            raise DomainError(f"({i},{j}) is not a pair inside [{self.n}]")
        return (j - 1) * (j - 2) // 2 + (i - 1)

    def pair_at(self, idx: int) -> tuple[int, int]:
        if not 0 <= idx < self.size:
            raise DomainError(f"edge index {idx} out of range")
        j = 2
        while (j * (j - 1)) // 2 <= idx:
            j += 1
        i = idx - (j - 1) * (j - 2) // 2 + 1
        return (i, j)

    def label(self, idx: int) -> str:
        i, j = self.pair_at(idx)
        return f"({i},{j})"

    def __eq__(self, other) -> bool:
        return isinstance(other, EdgesUniverse) and self.n == other.n

    def __hash__(self) -> int:
        return hash(("edges", self.n))


class PlainUniverse:
    """Universe of bare indices 0..N-1, for files and synthetic families."""

    kind = "plain"

    def __init__(self, size: int):
        if size < 0:
            raise DomainError("universe size must be nonnegative")
        self.size = size

    def label(self, idx: int) -> str:
        return str(idx)

    def __eq__(self, other) -> bool:
        return isinstance(other, PlainUniverse) and self.size == other.size

    def __hash__(self) -> int:
        return hash(("plain", self.size))


def mask_indices(mask: int) -> list[int]:
    """Indices of the set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def holders(features: Iterable[Iterable]) -> dict:
    """Feature index: each feature -> bitmask of the items that list it."""
    index: dict = {}
    for i, fs in enumerate(features):
        bit = 1 << i
        for f in fs:
            index[f] = index.get(f, 0) | bit
    return index


class ElementSet:
    """An immutable subset of a universe, stored as a bitmask."""

    __slots__ = ("universe", "mask")

    def __init__(self, universe, mask: int = 0):
        self.universe = universe
        self.mask = mask

    @classmethod
    def from_indices(cls, universe, indices: Iterable[int]) -> "ElementSet":
        mask = 0
        for i in indices:
            if i < 0:
                raise DomainError(f"negative element index {i}")
            mask |= 1 << i
        es = cls(universe, mask)
        es._check_range()
        return es

    def _check_range(self) -> None:
        if self.mask and self.mask.bit_length() > self.universe.size:
            raise DomainError("element index beyond universe size")

    @property
    def size(self) -> int:
        return self.mask.bit_count()

    def indices(self) -> list[int]:
        return mask_indices(self.mask)

    def __contains__(self, idx: int) -> bool:
        return (self.mask >> idx) & 1 == 1

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ElementSet)
            and self.universe == other.universe
            and self.mask == other.mask
        )

    def __hash__(self) -> int:
        return hash(self.mask)

    def __repr__(self) -> str:
        labels = ",".join(self.universe.label(i) for i in self.indices())
        return f"ElementSet{{{labels}}}"


class SetFamily:
    """A deduplicated collection of ElementSets over one universe."""

    __slots__ = ("universe", "masks")

    def __init__(self, universe, masks: Iterable[int]):
        seen: set[int] = set()
        kept: list[int] = []
        for m in masks:
            if m not in seen:
                seen.add(m)
                kept.append(m)
        self.universe = universe
        self.masks = tuple(kept)

    @property
    def size(self) -> int:
        return len(self.masks)

    def average_size(self) -> Fraction:
        """Mean member size; at most the size of the largest member."""
        if not self.masks:
            raise DomainError("average size of an empty family")
        return Fraction(sum(m.bit_count() for m in self.masks), len(self.masks))

    def max_size(self) -> int:
        return max((m.bit_count() for m in self.masks), default=0)

    def members(self) -> Iterator[ElementSet]:
        for m in self.masks:
            yield ElementSet(self.universe, m)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SetFamily)
            and self.universe == other.universe
            and set(self.masks) == set(other.masks)
        )

    def __hash__(self) -> int:
        return hash(frozenset(self.masks))

    def __repr__(self) -> str:
        return f"SetFamily(|F|={self.size}, N={self.universe.size})"


def _check_same(f: SetFamily, x: ElementSet) -> None:
    if f.universe != x.universe:
        raise DomainError("family and set live over different universes")


def restrict(f: SetFamily, x: ElementSet) -> SetFamily:
    """F(X) = {A \\ X : A in F, X subset of A}."""
    _check_same(f, x)
    xm = x.mask
    return SetFamily(f.universe, (m & ~xm for m in f.masks if m & xm == xm))


def avoid(f: SetFamily, x: ElementSet) -> SetFamily:
    """F(X-bar) = members of F disjoint from X."""
    _check_same(f, x)
    xm = x.mask
    return SetFamily(f.universe, (m for m in f.masks if m & xm == 0))


def stars(f: SetFamily, s: Iterable[ElementSet]) -> SetFamily:
    """F[S] over all S in s: members containing at least one S."""
    smasks = []
    for es in s:
        _check_same(f, es)
        smasks.append(es.mask)
    return SetFamily(
        f.universe,
        (m for m in f.masks if any(m & sm == sm for sm in smasks)),
    )


def star_count(f: SetFamily, x: ElementSet) -> int:
    """|F[X]| without building the family."""
    _check_same(f, x)
    xm = x.mask
    return sum(1 for m in f.masks if m & xm == xm)


# ---------------------------------------------------------------------------
# covering number


def _cover_exists(masks: list[int], min_elem: int, budget: int) -> bool:
    """Can `masks` be hit by <= budget elements, all with index >= min_elem?

    A depth-first loop over an explicit stack of (members left, budget left,
    untried branch elements).  Fail-first: a node branches on the uncovered
    member with fewest allowed elements, in index order.
    """
    avail = ~((1 << min_elem) - 1) if min_elem else -1
    stack = []
    while True:
        if not masks:
            return True
        if budget:
            best = None
            best_cnt = None
            for m in masks:
                opts = m & avail
                c = opts.bit_count()
                if best_cnt is None or c < best_cnt:
                    best, best_cnt = opts, c
                    if c <= 1:  # a member with no allowed element is a dead end
                        break
            if best:
                stack.append((masks, budget - 1, iter(mask_indices(best))))
        while stack:  # the next untried branch of the deepest node with one
            parent, budget, branches = stack[-1]
            e = next(branches, None)
            if e is not None:
                masks = [m for m in parent if not (m >> e) & 1]
                break
            stack.pop()
        else:
            return False


def covering_number(f: SetFamily) -> tuple[int, ElementSet]:
    """Exact minimum hitting-set size with the lexicographically least witness."""
    if f.size == 0:
        raise DomainError("covering number of an empty family is undefined")
    if any(m == 0 for m in f.masks):
        raise DomainError("family contains the empty set; no cover can hit it")
    n_guard = guards.current().cover_universe_max
    if f.universe.size > n_guard:
        guards.require(
            "cover_family_max", f.size, f"universe {f.universe.size} > {n_guard} and family size"
        )
    masks = list(f.masks)
    tau = 1
    while not _cover_exists(masks, 0, tau):
        tau += 1
    # lexicographically smallest witness of size tau, built element by element
    chosen: list[int] = []
    uncovered = masks
    nxt = 0
    while uncovered:
        budget = tau - len(chosen)
        union = 0
        for m in uncovered:
            union |= m
        union &= ~((1 << nxt) - 1) if nxt else -1
        for e in mask_indices(union):
            rest = [m for m in uncovered if not (m >> e) & 1]
            if _cover_exists(rest, e + 1, budget - 1):
                chosen.append(e)
                uncovered = rest
                nxt = e + 1
                break
        else:  # pragma: no cover - tau feasibility guarantees a choice
            raise AssertionError("witness construction failed")
    return tau, ElementSet.from_indices(f.universe, chosen)


# ---------------------------------------------------------------------------
# text serialization


def family_to_text(f: SetFamily) -> str:
    """Line format: 'N <universe-size>' then one member per line of indices."""
    lines = [f"N {f.universe.size}"]
    for m in f.masks:
        lines.append(" ".join(str(i) for i in mask_indices(m)))
    return "\n".join(lines) + "\n"


def family_from_text(text: str, universe=None) -> SetFamily:
    lines = text.splitlines()
    if not lines or not lines[0].startswith("N "):
        raise DomainError("family text must start with 'N <universe-size>'")
    try:
        size = int(lines[0][2:])
        rows = [[int(tok) for tok in line.split()] for line in lines[1:]]
    except ValueError:
        raise DomainError("family text holds a token that is not an integer") from None
    if universe is None:
        universe = PlainUniverse(size)
    elif universe.size != size:
        raise DomainError(
            f"universe size {universe.size} does not match header {size}"
        )
    masks = []
    for row in rows:
        mask = 0
        for i in row:
            if not 0 <= i < size:
                raise DomainError(f"index {i} outside universe of size {size}")
            mask |= 1 << i
        masks.append(mask)
    return SetFamily(universe, masks)

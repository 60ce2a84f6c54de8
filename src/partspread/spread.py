"""Spreadness metrics, maximal violators, spread subfamilies, sunflowers.

A family F is r-spread when |F(X)| <= r^(-|X|) |F| for every set X.  Only
nonempty subsets of members matter (any other X has F(X) empty), so the
candidate space is the union of member power sets.  All comparisons clear
denominators and compare integer powers; no decision is made in floating
point.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Iterator, Optional

from .errors import DomainError, PreconditionError
from .exact import ExactPow, as_fraction
from .setfam import ElementSet, SetFamily, holders, mask_indices, restrict
from . import guards


def candidate_counts(f: SetFamily) -> dict[int, int]:
    """Map each nonempty submask of a member to |F[X]|, the members containing it.

    Refused above the spread_candidate_max limit before the map is built.
    """
    total = sum(2 ** m.bit_count() for m in f.masks)
    guards.require("spread_candidate_max", total, "candidate sets")
    counts: dict[int, int] = {}
    for m in f.masks:
        sub = m
        while sub:
            counts[sub] = counts.get(sub, 0) + 1
            sub = (sub - 1) & m
    return counts


def _least_ratio(
    levels: dict[int, int], top: int, skip: int = 0
) -> tuple[Optional[ExactPow], Optional[int]]:
    """min over sizes s > skip of (top/levels[s])^(1/(s - skip)) and the s
    taking it; ties keep the smaller s.  levels maps each size to its largest
    count, from either level source."""
    best: Optional[ExactPow] = None
    best_s = None
    for s in sorted(levels):
        if s > skip:
            value = ExactPow(Fraction(top, levels[s]), Fraction(1, s - skip))
            if best is None or value < best:
                best, best_s = value, s
    return best, best_s


def _scan_levels(counts: dict[int, int]):
    """(levels, least, scanned) from a `candidate_counts` map: levels maps
    each candidate size to its largest count, least(s) is the least mask of
    size s with that count, and scanned is the number of candidates."""
    summary: dict[int, tuple[int, int]] = {}
    for mask, cnt in counts.items():
        s = mask.bit_count()
        best = summary.get(s)
        if best is None or cnt > best[0] or (cnt == best[0] and mask < best[1]):
            summary[s] = (cnt, mask)
    return {s: cnt for s, (cnt, _) in summary.items()}, lambda s: summary[s][1], len(counts)


def _shape_levels(f: SetFamily, shapes):
    """(levels, least, scanned) as in `_scan_levels`, from the (shape, count,
    number) walk of a parts-encoded f (`encoding.parts_shapes`); only least
    reads the members.  Refused above spread_candidate_max on the sum of
    2^|A| over members A, |F| + sum of count * number, first."""
    total = f.size + sum(cnt * number for _, cnt, number in shapes)
    guards.require("spread_candidate_max", total, "candidate sets")
    levels: dict[int, int] = {}
    for shape, cnt, _ in shapes:
        if cnt > levels.get(len(shape), 0):
            levels[len(shape)] = cnt
    scanned = sum(number for _, _, number in shapes)
    return levels, lambda s: _least_subset(f, shapes, s, levels[s]), scanned


def _levels(f: SetFamily, shapes):
    """The level source of f: the shape walk when given, else the scan."""
    return _scan_levels(candidate_counts(f)) if shapes is None else _shape_levels(f, shapes)


def _least_subset(f: SetFamily, shapes, s: int, least: int) -> int:
    """Least s-subset of a member of a parts-encoded f whose shape (its block
    sizes) has a count of at least `least` in f's shape walk.

    By the lemma of `encoding.parts_shapes` the s-subsets of members are the
    candidates of size s, and each has the count of its shape.  Within one
    member, the least subset of a given shape takes, for each size c, the
    lowest-indexed blocks of size c: for any other subset Y of that shape,
    the highest element where Y and this choice differ is in Y, because each
    block of size c the choice takes and Y does not lies below each block of
    size c that Y takes and the choice does not.  When every shape of size s
    qualifies, the least subset of a member is its s lowest bits.
    """
    level = [cnt for shape, cnt, _ in shapes if len(shape) == s]
    targets = [Counter(shape) for shape, cnt, _ in shapes if len(shape) == s and cnt >= least]
    members = [m for m in f.masks if m.bit_count() >= s]
    if len(targets) == len(level):
        return min(_lowest_bits(m, s) for m in members)
    of_size: dict[int, int] = {}
    for e in range(f.universe.size):
        size = len(f.universe.part_at(e))
        of_size[size] = of_size.get(size, 0) | 1 << e
    best = None
    for m in members:
        for need in targets:
            x = 0
            for size, k in need.items():
                held = m & of_size.get(size, 0)
                if held.bit_count() < k:
                    break
                x |= _lowest_bits(held, k)
            else:
                if best is None or x < best:
                    best = x
    return best


def _lowest_bits(mask: int, k: int) -> int:
    """The k lowest set bits of a mask with at least k set bits."""
    if mask.bit_count() == k:
        return mask
    low = 0
    for _ in range(k):
        bit = mask & -mask
        low, mask = low | bit, mask ^ bit
    return low


def _violator(masks, index, alive: int, x: int, r: Fraction) -> Optional[int]:
    """Least mask X with |F(X)| r^|X| > |F| at the smallest such size.

    F is the members of `masks` at the bits of `alive` less the elements of x
    (one pass over the binary digits of alive, which mask_indices would shift
    once per bit).  `index()` returns the `holders` index of `masks`; it is
    called at most once, and only for a counted search.  With r = p/q, a set X
    of size s violates exactly when |F(X)| exceeds floor[s] = |F| q^s // p^s.
    For r <= 1 nothing violates.  For r > 1 floor does not rise with s, so the
    sizes with floor[s] > 0 are 1..deep; above deep every s-subset of a member
    violates, and the least one of a member is its s lowest bits.  Sizes
    1..deep are searched by `_counted_violator`.  Refused above
    spread_candidate_max on the sum of 2^|A| over members A of F first.
    """
    members = [m & ~x for m, bit in zip(masks, bin(alive)[:1:-1]) if bit == "1"]
    total = sum(2 ** m.bit_count() for m in members)
    guards.require("spread_candidate_max", total, "candidate sets")
    p, q = r.numerator, r.denominator
    top = max((m.bit_count() for m in members), default=0)
    if p <= q or top == 0:
        return None
    floor = [len(members) * q**s // p**s for s in range(top + 1)]
    deep = 0
    while deep < top and floor[deep + 1]:
        deep += 1
    least = _counted_violator(index(), alive, x, floor, deep)
    if least is not None:
        return least
    if deep < top:
        return min(_lowest_bits(m, deep + 1) for m in members if m.bit_count() > deep)
    return None


def _counted_violator(
    index: dict, alive: int, x: int, floor: list[int], deep: int
) -> Optional[int]:
    """Least X with |F(X)| > floor[s], s = |X|, at the smallest such s in 1..deep.

    F is as in `_violator`.  A depth-first search adds elements outside x in
    increasing index order.  Each carries the bitmask of the members of F
    containing it (its index entry and `alive`), so |F(X)| of a set grown by
    one element is one AND and one bit count.  A set is grown only while
    more than floor[deep] members contain it: |F(X)| only falls as X grows
    and floor[deep] is the least threshold, so nothing pruned can violate.
    No set grows past the least violating size found so far.
    """
    keep = floor[deep]
    least: Optional[int] = None  # the least violator found so far, of size stop
    stop = deep

    def grow(y: int, s: int, ext: list[tuple[int, int, int]]) -> None:
        nonlocal least, stop
        for j, (bit, held, cnt) in enumerate(ext, 1):
            z = y | bit
            if cnt > floor[s] and (least is None or s < stop or z < least):
                least, stop = z, s
            if s < stop:
                sub = []
                for bit2, held2, _ in ext[j:]:
                    both = held & held2
                    c = both.bit_count()
                    if c > keep:
                        sub.append((bit2, both, c))
                if sub:
                    grow(z, s + 1, sub)

    grow(0, 1, [
        (1 << e, held, held.bit_count())
        for e, held in ((e, held & alive) for e, held in sorted(index.items()))
        if held.bit_count() > keep and not x >> e & 1
    ])
    return least


@dataclass
class SpreadReport:
    """Best spread factor of a family: the family is r-spread iff r <= r_star."""

    r_star: ExactPow
    witness: Optional[ElementSet]
    scanned: int

    def __repr__(self) -> str:
        return (
            f"SpreadReport(r_star={float(self.r_star):.6g}, "
            f"witness={self.witness}, scanned={self.scanned})"
        )


def spread_factor(f: SetFamily, shapes=None) -> SpreadReport:
    """max r such that f is r-spread: min over X of (|F|/|F(X)|)^(1/|X|).

    The witness is the least mask at the first minimizing size.  With
    `shapes`, the (shape, count, number) walk of a parts-encoded f
    (`encoding.parts_shapes`), the level maxima and the candidate count come
    from the shapes and only the witness from the members; without it,
    from the `candidate_counts` scan.
    """
    if f.size == 0:
        raise DomainError("spread factor of an empty family")
    levels, least, scanned = _levels(f, shapes)
    best, s = _least_ratio(levels, f.size)
    if best is None:
        return SpreadReport(ExactPow.infinity(), None, 0)
    return SpreadReport(best, ElementSet(f.universe, least(s)), scanned)


def is_r_spread(f: SetFamily, r, shapes=None) -> tuple[bool, Optional[ElementSet]]:
    """Exact test of |F(X)| * r^|X| <= |F| for all X; returns a violator if any.

    The violator is the least mask of the smallest violating size.  With
    r = p/q, a set X of size s violates exactly when |F(X)| > |F| q^s // p^s;
    only sets contained in more members than the least such threshold are
    searched, which is exact because |F(X)| only falls as X grows.  With
    `shapes` (as in spread_factor) the smallest violating size comes from
    the shapes and the violator from the members.  Refused above
    spread_candidate_max on the candidate count before any search.
    """
    if f.size == 0:
        raise DomainError("spreadness of an empty family")
    r = as_fraction(r)
    if r <= 0:
        raise DomainError("is_r_spread needs r > 0")
    if shapes is None:
        index = partial(holders, map(mask_indices, f.masks))
        mask = _violator(f.masks, index, (1 << f.size) - 1, 0, r)
    else:
        mask = None
        levels, _, _ = _shape_levels(f, shapes)
        p, q = r.numerator, r.denominator
        for s in sorted(levels):
            floor = f.size * q**s // p**s
            if levels[s] > floor:
                mask = _least_subset(f, shapes, s, floor + 1)
                break
    if mask is None:
        return True, None
    return False, ElementSet(f.universe, mask)


def weak_spread(
    a: SetFamily, t: int, shapes=None
) -> tuple[ElementSet, ExactPow, Optional[ElementSet]]:
    """Best weak (r, t)-spreadness data of a family.

    Picks the t-set T maximizing |a(T)| (ties to the least mask) and returns the
    largest r such that |a(U)| <= r^(-s) |a(T)| for every (t+s)-set U with
    s >= 1, together with the minimizing U.  `shapes` is as in spread_factor.
    """
    if t < 0:
        raise DomainError("weak_spread needs t >= 0")
    if a.size == 0:
        raise DomainError("weak_spread of an empty family")
    if a.max_size() < t:
        raise DomainError(f"no member has size >= t = {t}")
    levels, least, _ = _levels(a, shapes)
    t_count, best_t = (levels[t], least(t)) if t else (a.size, 0)
    best, s = _least_ratio(levels, t_count, t)
    if best is None:
        return ElementSet(a.universe, best_t), ExactPow.infinity(), None
    return ElementSet(a.universe, best_t), best, ElementSet(a.universe, least(s))


def peel_violators(f: SetFamily, r: Fraction) -> Iterator[tuple[int, int]]:
    """Yield (S_i, star bits) for F^0 = f and F^(i+1) = F^i minus F^i[S_i], r > 1.

    F^i and its star are bitmasks of f's members over one `holders` index.
    S_i grows from the empty set by the least e maximizing |F^i(X + e)| >=
    r^(-|X + e|) |F^i|, one AND of `held` (members containing X) and e's entry;
    when none qualifies, the violator `_violator` finds for F^i(X) (under its
    guard) is absorbed, so S_i meets the threshold and leaves F^i(S_i) r-spread.
    """
    index = holders(map(mask_indices, f.masks))
    entries = sorted(index.items())
    p, q = r.numerator, r.denominator
    alive = (1 << f.size) - 1
    while alive:
        size, held, x = alive.bit_count(), alive, 0
        while True:
            s = x.bit_count() + 1
            need = -(-size * q**s // p**s)  # least |F(X + e)| keeping the threshold
            best_e, best_cnt = None, need - 1
            for e, holds in entries:
                cnt = (held & holds).bit_count()
                if cnt > best_cnt and not x >> e & 1:
                    best_cnt = cnt
                    best_e = e
            if best_e is not None:
                x |= 1 << best_e
                held &= index[best_e]
                continue
            viol = _violator(f.masks, lambda: index, held, x, r)
            if viol is None:
                break
            x |= viol
            for e in mask_indices(viol):
                held &= index[e]
        yield x, held
        alive &= ~held


def find_max_violating(f: SetFamily, r) -> ElementSet:
    """S_0 of `peel_violators`: a set X with |F(X)| >= r^(-|X|) |F| leaving F(X) r-spread."""
    if f.size == 0:
        raise DomainError("find_max_violating of an empty family")
    r = as_fraction(r)
    if r <= 1:
        raise DomainError("find_max_violating needs r > 1")
    return ElementSet(f.universe, next(peel_violators(f, r))[0])


def find_spread_subfamily(f: SetFamily, alpha) -> tuple[ElementSet, SetFamily]:
    """An alpha-spread restriction F(X) of a k-uniform family with |F| > alpha^k.

    Takes the largest X violating alpha-spreadness (ties to the least mask),
    from one scan of `candidate_counts`; with no violator the family itself
    is returned with X empty.
    """
    if f.size == 0:
        raise PreconditionError("empty family")
    sizes = {m.bit_count() for m in f.masks}
    if len(sizes) != 1:
        raise PreconditionError("family is not uniform")
    k = sizes.pop()
    alpha = as_fraction(alpha)
    if alpha <= 0:
        raise DomainError("find_spread_subfamily needs alpha > 0")
    if not Fraction(f.size) > alpha**k:
        raise PreconditionError(
            f"|F| = {f.size} does not exceed alpha^k = {alpha}**{k}"
        )
    p, q = alpha.numerator, alpha.denominator
    violators = [
        mask for mask, cnt in candidate_counts(f).items()
        if cnt * p ** mask.bit_count() > f.size * q ** mask.bit_count()
    ]
    if not violators:
        return ElementSet(f.universe, 0), f
    x = ElementSet(f.universe, min(violators, key=lambda m: (-m.bit_count(), m)))
    return x, restrict(f, x)


def _pack_disjoint(residues: list[tuple[int, int]], need: int) -> Optional[list[int]]:
    """Indices of `need` pairwise-disjoint residues, or None; exact DFS in one
    loop over an explicit stack, one level per residue taken, smallest first."""
    order = sorted(residues, key=lambda r: r[0].bit_count())  # ties keep their order
    stack: list[tuple[int, int]] = []  # (position after the residue taken, used before it)
    pos, used = 0, 0
    while len(stack) < need:
        while pos < len(order) and order[pos][0] & used:
            pos += 1
        if len(order) - pos >= need - len(stack):
            stack.append((pos + 1, used))
            pos, used = pos + 1, used | order[pos][0]
        elif stack:  # too few residues left: back to the level above
            pos, used = stack.pop()
        else:
            return None
    return [order[p - 1][1] for p, _ in stack]


def find_sunflower(f: SetFamily, l: int) -> Optional[tuple[ElementSet, list[ElementSet]]]:
    """l member sets whose pairwise intersections all equal the common core.

    The core of any sunflower with l >= 2 petals is the intersection of some
    member pair, so scanning all pairwise intersections as candidate cores is
    exhaustive; None is returned only after that scan completes.
    """
    if l < 1:
        raise DomainError("find_sunflower needs l >= 1")
    guards.require("sunflower_family_max", f.size, "family size")
    if f.size < l:
        return None
    if l == 1:
        m = f.masks[0]
        return ElementSet(f.universe, m), [ElementSet(f.universe, m)]
    cores: set[int] = set()
    masks = f.masks
    for i in range(len(masks)):
        for j in range(i + 1, len(masks)):
            cores.add(masks[i] & masks[j])
    for core in sorted(cores, key=lambda m: (m.bit_count(), m)):
        residues = [
            (m & ~core, pos) for pos, m in enumerate(masks) if m & core == core
        ]
        if len(residues) < l:
            continue
        got = _pack_disjoint(residues, l)
        if got is not None:
            petals = [ElementSet(f.universe, masks[pos]) for pos in sorted(got)]
            return ElementSet(f.universe, core), petals
    return None

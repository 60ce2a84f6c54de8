"""Canonical extremal constructions and an exact maximum-clique oracle.

The oracle builds the compatibility graph of an enumerated partition family
under a pairwise predicate (sharing t blocks, or having blocks that meet in
t elements) from an index of shared blocks, and finds an exact maximum
clique by branch and bound with a greedy-coloring upper bound, one loop
over an explicit stack of nodes.  Both predicates are invariant under
relabelling [n], whose orbits are the shapes (sorted block sizes).  So when
no uniqueness count is asked and the universe is checked to be closed under
relabelling, the root of that loop branches once per shape orbit (orbital
branching, Ostrowski et al., Math. Program. 126, 2011) instead of once per
vertex.  Canonical families are the conjectured-extremal constructions;
their sizes have closed forms that the generated families are checked
against.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from . import guards
from .errors import DomainError, IntegrityError
from .partitions import (
    Partition,
    Profile,
    bell,
    count_profiled,
    enumerate_into_blocks,
    enumerate_partitions,
    enumerate_profiled,
    partially_t_intersect,
    stirling2,
    t_intersect,
    u_count,
)
from .report import FAIL, INFO, PASS, SKIPPED, Record
from .setfam import holders, mask_indices


# ---------------------------------------------------------------------------
# canonical families


def _default_anchors(sizes: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Consecutive initial segments: X_1 = {1..k_1}, X_2 = next k_2, ..."""
    anchors = []
    nxt = 1
    for k in sizes:
        anchors.append(tuple(range(nxt, nxt + k)))
        nxt += k
    return tuple(anchors)


def has_block_containing(p: Partition, t_set: frozenset[int]) -> bool:
    """Some block of p contains every element of t_set."""
    return any(t_set.issubset(b) for b in p.blocks)


def canonical_family(
    setting: str,
    n: int = 0,
    l: int = 0,
    t: int = 0,
    profile: Optional[Profile] = None,
    t_set: Optional[tuple[int, ...]] = None,
) -> tuple[list[Partition], list[Partition]]:
    """(universe, members) of one of the conjectured-extremal constructions:
    the partitions enumerated and those of them kept.

    setting "bell": partitions of [n] with t fixed singleton blocks.
    setting "blocks": partitions of [n] into l blocks, t of them fixed singletons.
    setting "profiled": partitions with a given profile containing fixed
        anchor blocks X_1..X_t (sizes matching the first t profile entries).
    setting "partial": profiled partitions with some block containing a fixed
        t-set T (t_set, or {1..t} without one).

    The anchor blocks are consecutive initial segments of [n], the first of
    size k_1 starting at 1.  The number of members matches the closed form:
    bell -> B_(n-t); blocks -> S(n-t, l-t); partial over uniform (k,l) ->
    C(kl-t, k-t) * u(k, l-1).  Only the partial setting takes an anchor set T.
    """
    if t_set is not None and setting != "partial":
        raise DomainError(f"the {setting} setting takes no anchor T-set")
    if setting == "partial":
        if profile is None:
            raise DomainError("partial setting needs a profile")
        t_set = t_set or tuple(range(1, t + 1))
        t = len(t_set)
        if t < 1 or len(set(t_set)) != t:
            raise DomainError("anchor T must be a nonempty set")
        if any(e < 1 or e > profile.n for e in t_set):
            raise DomainError(f"anchor T must sit inside [{profile.n}]")
        if t > max(profile.sizes):
            raise DomainError("anchor T larger than every block")
        tf = frozenset(t_set)
        universe = enumerate_profiled(profile)
        members = [p for p in universe if has_block_containing(p, tf)]
        expected = _partial_expected(profile, t)
    else:
        # (universe, anchor block sizes, closed form); the closed form is
        # computed after the enumeration so that its guard refuses first
        _require_fixed_singletons(setting, n, l, t)
        if setting == "bell":
            universe = enumerate_partitions(n)
            sizes, expected = [1] * t, bell(n - t)
        elif setting == "blocks":
            universe = enumerate_into_blocks(n, l)
            sizes, expected = [1] * t, stirling2(n - t, l - t)
        elif setting == "profiled":
            if profile is None or not 0 <= t <= profile.num_blocks:
                raise DomainError("profiled setting needs a profile and 0 <= t <= l")
            universe = enumerate_profiled(profile)
            sizes, expected = profile.sizes[:t], count_profiled(Profile(profile.sizes[t:]))
        else:
            raise DomainError(f"unknown canonical setting {setting!r}")
        # blocks are ordered by their least element and the anchors are
        # consecutive segments from 1, so p holds the anchors iff they are
        # its first t blocks
        anchors = _default_anchors(sizes)
        members = [p for p in universe if p.blocks[:t] == anchors]
    if expected is not None and len(members) != expected:
        raise IntegrityError(
            f"canonical family size {len(members)} != closed form {expected}"
        )
    return universe, members


def _require_fixed_singletons(setting: str, n: int, l: int, t: int) -> None:
    """Refuse t fixed singleton blocks that a bell or blocks universe cannot hold."""
    if setting == "bell" and not 0 <= t <= n:
        raise DomainError("need 0 <= t <= n")
    if setting == "blocks" and not 0 <= t <= l <= n:
        raise DomainError("need 0 <= t <= l <= n")


def _partial_expected(profile: Profile, t: int) -> Optional[int]:
    sizes = profile.sizes
    if len(set(sizes)) == 1:
        k, l = sizes[0], len(sizes)
        return math.comb(k * l - t, k - t) * (u_count(k, l - 1) if l > 1 else 1)
    return None  # non-uniform profiles: no closed form asserted


# ---------------------------------------------------------------------------
# exact maximum clique oracle


@dataclass
class OracleResult:
    max_size: int
    witness: list[Partition]
    nodes: int
    all_maximum: Optional[list[tuple[int, ...]]] = None  # vertex index tuples


def _max_clique_masks(
    adj: list[int],
    n: int,
    cap: Optional[int] = None,
    orbits: Optional[Sequence[tuple[int, int]]] = None,
) -> tuple[list[int], int, Optional[list[tuple[int, ...]]]]:
    """Exact maximum clique over adjacency bitmasks: (vertices, nodes, maxima).

    One loop runs every node from an explicit stack, so the clique depth has
    no recursion limit.  A node is a candidate set and a list of branches
    (vertex, color bound, bits dropped from the candidates after it): its
    candidates colored greedily, color classes being independent sets taken
    lowest vertex first, and branched on in reverse coloring order.  Without
    a cap a branch whose bound cannot beat the best size ends its node, and
    maxima is None.  With a cap, branches whose bound ties the best size are
    searched too, so the same pass collects every clique of the best size
    (sorted vertex tuples); a strictly larger clique restarts the list.
    More than cap ties set it to None, and the search prunes as without a
    cap until the next improvement; every clique of a larger size is found
    after the first one, so a final list that is not None holds every
    maximum clique.  The witness is the same with or without a cap.  A node
    counts when it is entered, the root when it has a branch.

    orbits, for a search without a cap, lists (representative, member mask)
    pairs that partition the vertices into orbits of a graph automorphism
    group.  The root then has one branch per orbit, in the order given and
    never pruned (bound n + 1): it takes the representative and drops the
    whole orbit.  A maximum clique whose first orbit met is i maps onto one
    holding the representative of i and no vertex of an earlier orbit, so
    the size is exact; the witness may differ from the plain search's.
    """
    best: list[int] = []
    nodes = 1 if n else 0
    ties = [()] if cap else None  # the empty clique is the maximum of no vertices
    # keep[v] clears v and its neighbours from a color class being built
    keep = [~(row | 1 << v) for v, row in enumerate(adj)]
    current: list[int] = []  # the clique of the active node
    stack: list[tuple[int, list[tuple[int, int, int]]]] = []  # the nodes above it
    cand = (1 << n) - 1
    branches = None if orbits is None else [(v, n + 1, orbit) for v, orbit in reversed(orbits)]
    while True:
        if branches is None:  # a node just entered: colors nondecreasing
            branches = []
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
                    branches.append((v, color, low))
        if branches:
            v, color, drop = branches.pop()
            # while collecting, a bound that ties the best size still branches
            if len(current) + color >= len(best) + (ties is None):
                current.append(v)
                nxt = cand & adj[v]
                cand &= ~drop
                if nxt:
                    stack.append((cand, branches))
                    cand, branches = nxt, None
                    nodes += 1
                    continue
                if len(current) > len(best):
                    best = list(current)
                    ties = None if cap is None else [tuple(sorted(best))]
                elif ties is not None and len(current) == len(best):
                    ties.append(tuple(sorted(current)))
                if ties is not None and len(ties) > cap:
                    ties = None
                current.pop()
                continue
        # the node is done, or the rest of it pruned: back to its parent
        if not stack:
            return sorted(best), nodes, None if ties is None else sorted(ties)
        cand, branches = stack.pop()
        current.pop()


PREDICATES: dict[str, Callable[[Partition, Partition, int], bool]] = {
    "t-intersect": t_intersect,
    "partially-t-intersect": partially_t_intersect,
}

# the least t each predicate accepts
_LEAST_T = {"t-intersect": 0, "partially-t-intersect": 1}


def _in_at_least(masks: Sequence[int], need: int) -> int:
    """Bitmask of the items set in at least `need` >= 1 of the masks.

    A bit-sliced counter: seen[j] holds the items met in more than j masks.
    """
    if need > len(masks):
        return 0
    seen = [0] * need
    for m in masks:
        for j in range(need - 1, 0, -1):
            seen[j] |= seen[j - 1] & m
        seen[0] |= m
    return seen[-1]


def _adjacency(universe: Sequence[Partition], predicate: str, t: int) -> list[int]:
    """Rows of the compatibility graph, built from a shared-feature index.

    t-intersect: a row holds the partitions sharing at least t blocks; for
    t <= 0 the graph is complete.  partially-t-intersect: each distinct
    block is first matched with the distinct blocks it meets in at least t
    elements (its elements are the features), and a row is the union of
    the holders of the blocks matched by the partition's blocks.
    """
    n = len(universe)
    if predicate == "t-intersect" and t <= 0:
        return [((1 << n) - 1) ^ (1 << v) for v in range(n)]
    held_by = holders(p.blocks for p in universe)
    if predicate == "t-intersect":
        rows = [_in_at_least([held_by[b] for b in p.blocks], t) for p in universe]
    else:
        blocks = list(held_by)
        elements = holders(blocks)
        reach = {}  # block -> the partitions holding a block it meets in >= t elements
        for b in blocks:
            met = _in_at_least([elements[e] for e in b], t)
            reach[b] = _in_at_least([held_by[blocks[j]] for j in mask_indices(met)], 1)
        rows = [_in_at_least([reach[b] for b in p.blocks], 1) for p in universe]
    return [row & ~(1 << v) for v, row in enumerate(rows)]


def _shape_orbits(universe: Sequence[Partition]) -> Optional[list[tuple[int, int]]]:
    """(least index, index mask) of each shape class of the universe, largest
    class first and ties in order of first appearance, when the universe is
    closed under relabelling [n]; None when it is not.

    A shape is the sorted block sizes.  The orbits of S_n on the partitions
    of [n] are the shapes, so the universe is closed when its partitions are
    distinct and each shape class holds all count_profiled(shape) of them.
    """
    classes: dict[Profile, list[int]] = {}
    for i, p in enumerate(universe):
        classes.setdefault(p.profile(), []).append(i)
    if len(set(universe)) != len(universe) or any(
        len(members) != count_profiled(shape) for shape, members in classes.items()
    ):
        return None
    ordered = sorted(classes.values(), key=len, reverse=True)  # stable on ties
    return [(members[0], sum(1 << i for i in members)) for members in ordered]


def require_oracle(predicate: str, t: int, vertices: int) -> None:
    """Refuse an oracle run before its graph is built: an unknown predicate,
    a t below the least the predicate accepts, or more vertices than
    clique_vertex_max.  A caller that knows the size of its universe in
    closed form asks before enumerating it."""
    if predicate not in PREDICATES:
        raise DomainError(f"unknown predicate {predicate!r}")
    if t < _LEAST_T[predicate]:
        raise DomainError(f"{predicate.replace('-', '_')} needs t >= {_LEAST_T[predicate]}")
    guards.require("clique_vertex_max", vertices, "vertices")


def max_compatible_family(
    universe: Sequence[Partition],
    predicate: str,
    t: int,
    enumerate_all: bool = False,
) -> OracleResult:
    """Exact largest pairwise-compatible subfamily of the enumerated universe.

    Both predicates are invariant under relabelling [n].  So without
    enumerate_all, a universe closed under relabelling has its search root
    branch once per shape orbit (_shape_orbits); with enumerate_all, or on a
    universe that is not closed, the root is colored as every other node.
    """
    if len({p.n for p in universe}) > 1:
        raise DomainError("partitions over different ground sets")
    n = len(universe)
    require_oracle(predicate, t, n)
    adj = _adjacency(universe, predicate, t)
    if enumerate_all:
        cap, orbits = guards.current().clique_unique_max, None
    else:
        cap, orbits = None, _shape_orbits(universe)
    vertices, nodes, all_max = _max_clique_masks(adj, n, cap, orbits)
    witness = [universe[i] for i in vertices]
    return OracleResult(len(vertices), witness, nodes, all_max)


# ---------------------------------------------------------------------------
# conjecture instances


def _conjecture_step(
    k: int, l: int, t: int, enumerate_all: bool
) -> tuple[list[Partition], Optional[OracleResult], int]:
    """(universe, oracle result or None at t = 1, canonical size) for partial
    t-intersection on uniform (k,l) partitions.

    The canonical family is checked to be a clique, and an oracle below its
    size is an integrity error.  At t = 1 any two partitions partially
    intersect, so no oracle runs.
    """
    if t > k:
        raise DomainError("need t <= k: no block can contain the anchor set")
    guards.require("clique_vertex_max", u_count(k, l), f"u({k},{l})")
    universe, canon = canonical_family("partial", t=t, profile=Profile.uniform(k, l))
    _assert_clique(canon, "partially-t-intersect", t)
    canon_size = len(canon)
    if t == 1:
        return universe, None, canon_size
    result = max_compatible_family(universe, "partially-t-intersect", t, enumerate_all)
    if result.max_size < canon_size:
        raise IntegrityError(
            "oracle below the canonical clique size; the canonical family "
            "is itself compatible"
        )
    return universe, result, canon_size


def check_conjecture_instance(k: int, l: int, t: int) -> list[Record]:
    """Oracle maximum for partial t-intersection on uniform (k,l) partitions
    versus the canonical family size, with a witness-uniqueness check when
    all maximum cliques are enumerable."""
    universe, result, canon_size = _conjecture_step(k, l, t, enumerate_all=True)
    params = {"k": k, "l": l, "t": t}
    if result is None:
        return [
            Record.make("conjecture", params, len(universe), canon_size, "-", SKIPPED),
            Record.make(
                "conjecture-note",
                {"k": k, "l": l},
                "-",
                "-",
                "any two partitions partially 1-intersect",
                INFO,
            ),
        ]
    equal = result.max_size == canon_size
    margin = result.max_size - canon_size
    recs = [
        Record.make(
            "conjecture", params, result.max_size, canon_size, margin, PASS if equal else FAIL
        )
    ]
    if result.all_maximum is not None and equal:
        unique = all(
            _meet_has_block_of(t, [universe[i] for i in w]) for w in result.all_maximum
        )
        params["maximum_cliques"] = len(result.all_maximum)
        margin, verdict = "-", PASS if unique else FAIL
    else:
        margin, verdict = "uniqueness unverified", SKIPPED
    recs.append(Record.make("conjecture-uniqueness", params, "-", "-", margin, verdict))
    return recs


def _meet_has_block_of(t: int, fam: Sequence[Partition]) -> bool:
    """Some block of the meet (common refinement) of fam has at least t elements.

    Each element is labelled by its block index in every member; the blocks of
    the meet are the label classes.  A clique of size |C^T| is then a
    canonical family: its members all hold a t-set T of such a block in one
    block, so it lies in C^T and, having its size, equals it.
    """
    labels: dict[int, tuple[int, ...]] = {e: () for e in range(1, fam[0].n + 1)}
    for p in fam:
        for i, b in enumerate(p.blocks):
            for e in b:
                labels[e] += (i,)
    return max(Counter(labels.values()).values()) >= t


def _assert_clique(fam: Sequence[Partition], predicate: str, t: int) -> None:
    pred = PREDICATES[predicate]
    for i in range(len(fam)):
        for j in range(i + 1, len(fam)):
            if not pred(fam[i], fam[j], t):
                raise IntegrityError(
                    f"canonical family is not a clique under {predicate} t={t}"
                )


# ---------------------------------------------------------------------------
# instance catalog


def run_catalog(text: str) -> list[Record]:
    """Run oracle instances listed one per line: `setting k l t n [expected]`.

    Settings: `partial` (partial t-intersection on uniform (k,l) partitions,
    compared against the canonical family), `bell` (t-intersection on all
    partitions of [n]) and `blocks` (t-intersection on l-block partitions of
    [n]).  Unused fields are written as `-`.  With an expected value the
    record passes/fails against it; without one the observed value is
    recorded informationally (at desk scale the bell/blocks hypotheses fail
    and the oracle may exceed the canonical size).
    """
    records: list[Record] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) not in (5, 6):
            raise DomainError(
                f"catalog line {lineno}: expected 'setting k l t n [expected]'"
            )
        setting = fields[0]
        try:
            k, l, t, n = (None if f == "-" else int(f) for f in fields[1:5])
            expected = int(fields[5]) if len(fields) == 6 else None
        except ValueError:
            raise DomainError(f"catalog line {lineno}: fields must be integers or '-'") from None
        if None in {"partial": (k, l, t), "bell": (t, n), "blocks": (l, t, n)}.get(setting, ()):
            raise DomainError(f"catalog line {lineno}: a field the {setting} setting uses is '-'")
        if setting == "partial":
            # the catalog prints only the sizes: no uniqueness search
            universe, res, reference = _conjecture_step(k, l, t, enumerate_all=False)
            observed = len(universe) if res is None else res.max_size
        elif setting in ("bell", "blocks"):
            # refused before the universe is enumerated, as `extremal oracle`
            # refuses: the t range, the enumeration guard on n, then the
            # oracle's guard on the closed-form size
            _require_fixed_singletons(setting, n, l or 0, t)
            guards.require("enum_max_n", n, "n")
            require_oracle("t-intersect", t, bell(n) if setting == "bell" else stirling2(n, l))
            universe, members = canonical_family(setting, n=n, l=l or 0, t=t)
            observed = max_compatible_family(universe, "t-intersect", t).max_size
            reference = len(members)
        else:
            raise DomainError(f"catalog line {lineno}: unknown setting {setting!r}")
        if expected is None:
            verdict = INFO
        else:
            verdict = PASS if observed == expected else FAIL
        records.append(
            Record.make(
                "catalog",
                {"setting": setting, "k": k, "l": l, "t": t, "n": n},
                observed,
                expected if expected is not None else reference,
                observed - (expected if expected is not None else reference),
                verdict,
            )
        )
    return records

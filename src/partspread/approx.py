"""Greedy spread-approximation peeling and the core-reduction machinery.

The peeling loop repeatedly extracts a maximal threshold set S_i from the
current family, peels off the star of S_i, and stops once the extracted set
is larger than the size cap q (or the family is exhausted).  What remains is
the remainder F'; the extracted cores form the low-uniformity approximation.
Verification of the guaranteed properties is a separate pass so that
out-of-gate exploratory runs stay possible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional

from . import guards
from .bounds import exceeds_log2
from .errors import DomainError, IntegrityError, PreconditionError, ResourceLimitError
from .exact import ExactPow, as_fraction
from .report import FAIL, GATED, INFO, PASS, SKIPPED, Record
from .setfam import ElementSet, SetFamily, mask_indices, restrict, star_count, stars
from .spread import (
    candidate_counts,
    is_r_spread,
    peel_violators,
    spread_factor,
    weak_spread,
)


@dataclass
class PeelStep:
    core: ElementSet
    family_size: int  # |F^i| before peeling
    threshold: Fraction  # r^(-|core|) |F^i|
    peeled: int  # |F^i[S_i]|


@dataclass
class ApproxResult:
    family: SetFamily  # the family peeled, at spread r and core size cap q
    r: Fraction
    q: int
    cores: list[ElementSet]
    core_families: list[SetFamily]
    remainder: SetFamily
    trace: list[PeelStep]
    oversized_core: Optional[ElementSet]  # the S_m that stopped the loop, if any

    def records(self) -> list[Record]:
        out = []
        for i, step in enumerate(self.trace):
            out.append(
                Record.make(
                    "peel-step",
                    {"i": i + 1, "core": _set_text(step.core), "size": step.core.size},
                    step.family_size,
                    step.threshold,
                    step.peeled,
                    INFO,
                )
            )
        out.append(
            Record.make(
                "peel-remainder",
                {"steps": len(self.trace)},
                self.remainder.size,
                "-",
                "-",
                INFO,
            )
        )
        return out


def _set_text(es: ElementSet) -> str:
    return "{" + " ".join(str(i) for i in es.indices()) + "}"


def spread_approximate(f: SetFamily, r, q: int) -> ApproxResult:
    """Peel threshold stars until the extracted core would exceed size q.

    Loop: S_i = maximal set with |F^i(S_i)| >= r^(-|S_i|) |F^i|; stop when
    |S_i| > q or F^i is empty, else peel F^(i+1) = F^i minus F^i[S_i].
    Deterministic given the greedy violator rule; always terminates because
    every peel removes at least one member.
    """
    r = as_fraction(r)
    if f.size == 0:
        raise DomainError("spread_approximate needs a nonempty family")
    if r <= 1:
        raise DomainError("spread_approximate needs r > 1")
    if q < 1:
        raise DomainError("spread_approximate needs q >= 1")
    cores: list[ElementSet] = []
    peeled: list[int] = []
    trace: list[PeelStep] = []
    oversized: Optional[ElementSet] = None
    alive = (1 << f.size) - 1
    for x, held in peel_violators(f, r):
        s_i = ElementSet(f.universe, x)
        if s_i.size > q:
            oversized = s_i
            break
        size = alive.bit_count()
        cores.append(s_i)
        peeled.append(held)
        trace.append(PeelStep(s_i, size, Fraction(size) / r**s_i.size, held.bit_count()))
        alive &= ~held
    fams = [SetFamily(f.universe, [f.masks[i] for i in mask_indices(b)]) for b in peeled + [alive]]
    return ApproxResult(f, r, q, cores, fams[:-1], fams[-1], trace, oversized)


def verify_approx(res: ApproxResult, a: SetFamily, r0, t: int) -> list[Record]:
    """Check every guaranteed property of a peeling run, all exactly, as records.

    The run is checked at the family, r and q it was peeled with, against
    the ambient family a.  Conclusions and hypothesis gates are evaluated
    independently: when the gates fail the conclusions may still hold and
    both facts are reported.
    """
    f, r, q = res.family, res.r, res.q
    r0 = as_fraction(r0)
    if r0 <= 0:
        raise DomainError("verify_approx needs r0 > 0")
    if t < 1:
        raise DomainError("verify_approx needs t >= 1")
    # integrity: cores + remainder partition the input family
    peeled_masks: list[int] = []
    for fam in res.core_families:
        peeled_masks.extend(fam.masks)
    rebuilt = peeled_masks + list(res.remainder.masks)
    if len(rebuilt) != len(set(rebuilt)) or set(rebuilt) != set(f.masks):
        raise IntegrityError("result cores/remainder do not partition the family")
    recs: list[Record] = []

    remainder_set = set(res.remainder.masks)
    covered_masks = set(stars(a, res.cores).masks)
    coverage_ok = all(m in covered_masks for m in f.masks if m not in remainder_set)
    recs.append(
        Record.make(
            "approx-coverage",
            {"cores": len(res.cores)},
            f.size - res.remainder.size,
            len(covered_masks),
            "-",
            PASS if coverage_ok else FAIL,
        )
    )

    for i, (core, fam) in enumerate(zip(res.cores, res.core_families)):
        ok, witness = is_r_spread(restrict(fam, core), r)
        recs.append(
            Record.make(
                "approx-core-spread",
                {"i": i + 1, "core": _set_text(core)},
                fam.size,
                r,
                "-" if witness is None else _set_text(witness),
                PASS if ok else FAIL,
            )
        )

    k_max = f.max_size()
    gate_spread = None
    if k_max >= 1:
        gate_spread = exceeds_log2(r / 2**12, 2 * k_max)
    gate_r_2q = r >= 2 * q
    gate_r0 = r0 > r
    try:
        gate_ambient, _ = is_r_spread(a, r0)
    except ResourceLimitError:
        gate_ambient = None
    gates_hold = bool(gate_spread) and gate_r_2q and gate_r0

    # the remainder bound presumes an r0-spread ambient family, and the
    # t-intersection of the cores presumes all gates; where the hypotheses
    # fail the facts are still reported, only without a hard failure
    remainder_rhs = (r / r0) ** (q + 1) * a.size
    remainder_ok = Fraction(res.remainder.size) <= remainder_rhs
    recs.append(
        Record.make(
            "approx-remainder",
            {"q": q},
            res.remainder.size,
            remainder_rhs,
            remainder_rhs - res.remainder.size,
            PASS if remainder_ok else (FAIL if gate_ambient else INFO),
        )
    )

    pairwise_ok = _is_t_intersecting([c.mask for c in res.cores], t)
    recs.append(
        Record.make(
            "approx-cores-t-intersect",
            {"t": t, "cores": len(res.cores)},
            "-",
            "-",
            "-",
            PASS if pairwise_ok else (FAIL if gates_hold else INFO),
        )
    )

    # a gate that does not hold is a reported fact, not a failed check
    for name, val in (
        ("gate-r-vs-log", gate_spread),
        ("gate-r-vs-2q", gate_r_2q),
        ("gate-r0-vs-r", gate_r0),
        ("gate-ambient-r0-spread", gate_ambient),
    ):
        recs.append(
            Record.make(
                "approx-gate",
                {"gate": name, "r": r, "r0": r0, "q": q, "k": k_max},
                "-",
                "-",
                "-",
                SKIPPED if val is None else (PASS if val else GATED),
            )
        )

    conservation = sum(fam.size for fam in res.core_families) + res.remainder.size
    recs.append(
        Record.make(
            "approx-conservation",
            {},
            conservation,
            f.size,
            conservation - f.size,
            PASS if conservation == f.size else FAIL,
        )
    )

    return recs


# ---------------------------------------------------------------------------
# t-intersecting minimization and the reduction sequence


def _canonical_member_order(fam: SetFamily) -> list[int]:
    return sorted(fam.masks, key=lambda m: (m.bit_count(), mask_indices(m)))


def _is_t_intersecting(masks: list[int], t: int) -> bool:
    """Pairwise |A & B| >= t, member-with-itself included (sizes >= t)."""
    for i, m in enumerate(masks):
        if m.bit_count() < t:
            return False
        for m2 in masks[i + 1 :]:
            if (m & m2).bit_count() < t:
                return False
    return True


def _submasks_of_size(mask: int, size: int) -> list[int]:
    """Submasks with `size` bits, in lexicographic order of their index tuples."""
    return [sum(1 << i for i in c) for c in combinations(mask_indices(mask), size)]


def minimize_t_intersecting(s: SetFamily, t: int, p: int) -> SetFamily:
    """Shrink members to proper subsets while keeping the family t-intersecting.

    Deterministic replacement: members in canonical order, candidate subsets
    by increasing size then lexicographic, replace on the first subset that
    still t-intersects every other member, dedupe, repeat to a fixpoint.  At
    the fixpoint every proper subset X of a member fails against some member
    (|X ∩ T'| < t), and star coverage never shrank.
    """
    if t < 1:
        raise DomainError("minimize_t_intersecting needs t >= 1")
    masks = list(s.masks)
    if any(m.bit_count() > p for m in masks):
        raise PreconditionError(f"some member exceeds the size cap p = {p}")
    if not _is_t_intersecting(masks, t):
        raise PreconditionError("family is not t-intersecting")
    changed = True
    while changed:
        changed = False
        for m in _canonical_member_order(SetFamily(s.universe, masks)):
            if m not in masks:
                continue
            others = [o for o in masks if o != m]
            replacement = None
            for size in range(t, m.bit_count()):
                for x in _submasks_of_size(m, size):
                    if all((x & o).bit_count() >= t for o in others):
                        replacement = x
                        break
                if replacement is not None:
                    break
            if replacement is not None:
                masks = others + [replacement] if replacement not in others else others
                changed = True
        # loop again until a full pass makes no replacement
    return SetFamily(s.universe, masks)


def _forbidden_restriction_exists(fam: SetFamily, bound: int) -> tuple[Optional[bool], int]:
    """Search for G ⊆ fam(X) with |G| > 1 and spread factor > bound.

    Returns (found, scanned); found is None when the scan would exceed the
    subfamily_scan_max or the candidate limit (reported as skipped by the
    caller).
    """
    if fam.size <= 1:
        return False, 0
    total = 0
    try:
        counts = candidate_counts(fam)
        x_candidates = [0] + sorted(counts)
        for x in x_candidates:
            total += 2 ** (counts[x] if x else fam.size)
            guards.require("subfamily_scan_max", total, "subfamily/restriction pairs")
    except ResourceLimitError:
        return None, total
    scanned = 0
    for x in x_candidates:
        residues = [m & ~x for m in fam.masks if m & x == x]
        if len(residues) < 2:
            continue
        for size in range(2, len(residues) + 1):
            for combo in combinations(residues, size):
                scanned += 1
                g = SetFamily(fam.universe, combo)
                if g.size < 2:
                    continue
                rep = spread_factor(g)
                if rep.r_star > bound:
                    return True, scanned
    return False, scanned


def reduction_sequence(
    a: SetFamily,
    s: SetFamily,
    q: int,
    t: int,
    r=None,
) -> tuple[list[tuple[SetFamily, SetFamily]], list[Record]]:
    """Build the nested families T_0, W_0, T_1, ... and check their properties.

    W_i collects the size-(q-i) members of T_i and T_(i+1) re-minimizes the
    rest under the cap q-i-1.  The records check, per level: (i) size caps,
    (ii) star-coverage inclusion, (iii) absence of a >(q-i-t+1)-spread
    restricted subfamily with more than one member (skipped above the
    subfamily_scan_max limit), (iv) |W_i| <= (6(q-i))^(q-i-t), and (v) the
    handoff bound |A[T_(i-1) minus W_(i-1)]| <= (q/r) |A[T]| when T_i first
    becomes a single t-set.  r defaults to the weak-spreadness factor of the ambient
    family.
    """
    if a.size == 0:
        raise PreconditionError("ambient family is empty")
    if any(m.bit_count() > q for m in s.masks):
        raise PreconditionError(f"some member exceeds q = {q}")
    if not _is_t_intersecting(list(s.masks), t):
        raise PreconditionError("family is not t-intersecting")

    t_best, r_weak, _ = weak_spread(a, t)
    r_cmp = r_weak if r is None else ExactPow.coerce(r)
    a_t_count = star_count(a, t_best)

    recs: list[Record] = []
    levels: list[tuple[SetFamily, SetFamily]] = []
    t_i = minimize_t_intersecting(s, t, q)
    for i in range(0, q - t + 1):
        w_i = SetFamily(t_i.universe, (m for m in t_i.masks if m.bit_count() == q - i))
        levels.append((t_i, w_i))

        max_sz = t_i.max_size()
        recs.append(
            Record.make(
                "reduction-size-cap",
                {"i": i},
                max_sz,
                q - i,
                (q - i) - max_sz,
                PASS if max_sz <= q - i else FAIL,
            )
        )

        found, scanned = _forbidden_restriction_exists(t_i, q - i - t + 1)
        recs.append(
            Record.make(
                "reduction-no-spread-subfamily",
                {"i": i, "bound": q - i - t + 1, "scanned": scanned},
                "-",
                "-",
                "-",
                SKIPPED if found is None else (PASS if not found else FAIL),
            )
        )

        w_bound = (6 * (q - i)) ** (q - i - t)
        recs.append(
            Record.make(
                "reduction-w-size",
                {"i": i},
                w_i.size,
                w_bound,
                w_bound - w_i.size,
                PASS if w_i.size <= w_bound else FAIL,
            )
        )

        rest = SetFamily(t_i.universe, (m for m in t_i.masks if m.bit_count() != q - i))
        t_next = minimize_t_intersecting(rest, t, q - i - 1)

        # (ii) A[T_i] ⊆ A[T_(i+1)] ∪ A[W_i]
        lhs_fam = stars(a, t_i.members())
        rhs_masks = set(stars(a, t_next.members()).masks)
        rhs_masks.update(stars(a, w_i.members()).masks)
        cover_ok = all(m in rhs_masks for m in lhs_fam.masks)
        recs.append(
            Record.make(
                "reduction-star-coverage",
                {"i": i + 1},
                lhs_fam.size,
                len(rhs_masks),
                "-",
                PASS if cover_ok else FAIL,
            )
        )

        # (v) handoff bound when T_(i+1) first collapses to a single t-set
        next_single = t_next.size == 1 and t_next.max_size() == t
        cur_single = t_i.size == 1 and t_i.max_size() == t
        if next_single and not cur_single:
            lhs = stars(a, rest.members()).size
            # lhs <= (q/r) |A[T]|  <=>  r <= q*|A[T]| / lhs
            if lhs == 0:
                ok = True
                rhs_txt = "0"
            else:
                cap = Fraction(q * a_t_count, lhs)
                ok = r_cmp <= ExactPow(cap)
                rhs_txt = f"{q}*{a_t_count}/r"
            recs.append(
                Record.make(
                    "reduction-handoff",
                    {"i": i + 1, "aT": a_t_count},
                    lhs,
                    rhs_txt,
                    "-",
                    PASS if ok else FAIL,
                )
            )
        t_i = t_next
    return levels, recs


# ---------------------------------------------------------------------------
# dominance check


def check_dominance(a: SetFamily, s: SetFamily, t: int, eps, r=None) -> list[Record]:
    """Compare |A[S]| against eps * |A[T]| for the best t-set T, as records.

    A family with a common t-subset is reported trivial (the comparison is
    not claimed there).  The hypothesis gate eps*r >= 24q, with q the size of
    the largest member of S, is evaluated separately from the conclusion;
    gate failure never masks the counts.
    """
    if s.size == 0:
        raise PreconditionError("core family is empty")
    if not _is_t_intersecting(list(s.masks), t):
        raise PreconditionError("family is not t-intersecting")
    eps = as_fraction(eps)
    if eps <= 0:
        raise DomainError("check_dominance needs eps > 0")
    common = s.masks[0]
    for m in s.masks:
        common &= m
    trivial = common.bit_count() >= t

    if t < 1:
        raise DomainError("check_dominance needs t >= 1")
    if t > a.max_size():
        raise DomainError(f"no member of the ambient family has size >= {t}")
    best, r_val, _ = weak_spread(a, t)
    at_count = star_count(a, best)
    lhs = stars(a, s.members()).size

    if trivial:
        # the comparison is not claimed for a family with a common t-set;
        # the counts are still reported
        return [
            Record.make(
                "dominance",
                {"t": t, "trivial": True, "T": _set_text(best)},
                lhs,
                at_count,
                "-",
                SKIPPED,
            )
        ]

    q = max(m.bit_count() for m in s.masks)
    if r is not None:
        r_val = ExactPow.coerce(r)
    # eps * r >= 24 q  <=>  r >= 24 q / eps
    gate = r_val >= ExactPow(Fraction(24 * q) / eps)
    rhs = eps * at_count
    return [
        Record.make(
            "dominance",
            {"t": t, "eps": eps, "T": _set_text(best)},
            lhs,
            rhs,
            rhs - lhs,
            PASS if lhs <= rhs else (FAIL if gate else INFO),
        ),
        Record.make(
            "dominance-gate",
            {"q": q, "eps": eps},
            "eps*r",
            24 * q,
            "-",
            PASS if gate else GATED,
        ),
    ]

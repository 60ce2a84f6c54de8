"""Numeric verification of the quantitative counting lemmas and bounds.

Every check emits exact lhs/rhs values and a verdict that is reproducible
bit for bit.  Wherever a transcendental (ln, log2, e) enters an inequality
it is replaced by a rational bound in the direction that makes "pass"
harder, so a pass certifies the inequality; order-only comparisons against
log2 are exact power comparisons (bounds.compare_powers).
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from typing import Iterator, Sequence

from .bounds import at_least_log2, e_enclosure, ln_enclosure, log2_enclosure, round_up_dyadic
from .encoding import encode_family_edges, encode_family_parts, extension_shapes
from .errors import DomainError, PreconditionError
from .exact import ExactPow, as_fraction
from .extremal import canonical_family, has_block_containing
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
    u_count,
)
from .report import FAIL, FINDING, GATED, INFO, VACUOUS, CheckReport
from .setfam import SetFamily
from .spread import is_r_spread, spread_factor, weak_spread
from . import guards


# ---------------------------------------------------------------------------
# Bell numbers


def check_bell_ratio(n_max: int) -> CheckReport:
    """B_(n+1)/B_n >= n / (2 ln n) for 2 <= n <= n_max.

    Verified as 2 * B_(n+1) * L(n) >= n * B_n with L(n) a rational lower
    bound on ln n (so a pass implies the true inequality); margin is the
    ratio slack lhs/rhs - 1.
    """
    if n_max < 2:
        raise DomainError("check_bell_ratio needs n_max >= 2")
    rep = CheckReport("bell-ratio", {"n_max": n_max})
    for n in range(2, n_max + 1):
        ln_lo = ln_enclosure(Fraction(n))[0]
        rep.compare({"n": n}, 2 * bell(n + 1) * ln_lo, n * bell(n))
    return rep


def check_dobinski(n: int, s_max: int) -> CheckReport:
    """Partial sums of (1/e) sum_s s^n / s! against the exact Bell number.

    The sum is an exact rational and e is enclosed rationally, so the
    reported relative error is an upper bound over the whole enclosure.
    """
    if n < 0 or s_max < n:
        raise DomainError("check_dobinski needs 0 <= n <= s_max")
    rep = CheckReport("dobinski", {"n": n, "s_max": s_max})
    total = Fraction(0)
    for s in range(0, s_max + 1):
        total += Fraction(s**n, math.factorial(s))
    e_lo, e_hi = e_enclosure()
    b = bell(n)
    lo, hi = total / e_hi, total / e_lo
    rel = max(abs(lo - b), abs(hi - b)) / b
    rep.check({"n": n, "s_max": s_max}, lo, b, rel, rel <= Fraction(1, 10**9))
    return rep


def check_no_singleton_bound(s_max: int) -> CheckReport:
    """tB_s against (1/2) prod_(i=2..s-1) (1 - 2ln(i+1)/(i+1)) (1 - (2i+2)/3^i) B_s.

    Logs are replaced by rational lower bounds, and after each step the
    product is rounded up to a dyadic rational (bounds.round_up_dyadic), so
    that it does not grow without bound.  Both only enlarge the right-hand
    side, so a pass certifies the printed product bound.  Any violation is
    recorded as a finding rather than a failure: the counts on the left are
    exact, where the paper's no-singleton recurrence is not.  The counts run
    through tB_s = B_(s-1) - tB_(s-1) from tB_1 = 0.
    """
    if s_max < 2:
        raise DomainError("check_no_singleton_bound needs s_max >= 2")
    rep = CheckReport("no-singleton-bound", {"s_max": s_max})
    product = Fraction(1)
    count = 0  # tB_1
    for s in range(2, s_max + 1):
        count = bell(s - 1) - count
        rep.compare({"s": s}, count, Fraction(1, 2) * product * bell(s), miss=FINDING)
        # extend the product with the i = s factor for the next step
        ln_lo = ln_enclosure(Fraction(s + 1))[0]
        product = round_up_dyadic(
            product * (1 - 2 * ln_lo / (s + 1)) * (1 - Fraction(2 * s + 2, 3**s))
        )
    return rep


def check_stirling_growth(l_max: int, n_cap: int) -> CheckReport:
    """S(n, l) >= n^2 S(n-1, l-1) on every gated point with 2 <= l <= l_max.

    The gate n >= 1 + 2 l log2(n) is decided exactly as 2^(n-1) >= n^(2l);
    points failing the gate are reported as gated and excluded.  When every
    point is gated, no inequality is checked and the report is vacuous.
    """
    if l_max < 2 or n_cap < l_max:
        raise DomainError("check_stirling_growth needs 2 <= l_max <= n_cap")
    rep = CheckReport("stirling-growth", {"l_max": l_max, "n_cap": n_cap})
    for l in range(2, l_max + 1):
        for n in range(l, n_cap + 1):
            if at_least_log2(Fraction(n - 1, 2 * l), n):
                rep.compare({"l": l, "n": n}, stirling2(n, l), n * n * stirling2(n - 1, l - 1))
            else:
                rep.add({"l": l, "n": n}, "-", "-", "-", GATED)
    if rep.verdict == VACUOUS:
        rep.notes.append("every point fails the gate: no inequality was checked")
    return rep


# ---------------------------------------------------------------------------
# encoded spreadness


def _profiled_star_counts(sizes: Sequence[int], j: int) -> Iterator[tuple[int, int]]:
    """(printed, corrected) counts of the partitions containing fixed parts of
    sizes k_1..k_i, for i = j, j + 1, ..., len(sizes).

    printed is n_i! / prod_(m > i) k_m!, n_i the free elements: the free
    blocks ordered.  corrected leaves them unordered, which is count_profiled
    of their sizes.  Fixing one more part, of size k, divides printed by
    C(n_i, k), and corrected also multiplies by the free parts of size k.
    """
    free = sizes[j:]
    left = Counter(free)  # free parts of each size
    n = sum(free)
    printed = math.factorial(n) // math.prod(math.factorial(k) for k in free)
    corrected = count_profiled(Profile(free))
    for k in free:
        yield printed, corrected
        ways = math.comb(n, k)
        printed //= ways
        corrected = corrected * left[k] // ways
        left[k] -= 1
        n -= k
    yield printed, corrected


def check_encoded_spreadness(
    kind: str,
    n: int | None = None,
    l: int | None = None,
    t: int | None = None,
    k: int | None = None,
    profile: Profile | None = None,
    mode: str = "both",
    s_max: int | None = None,
) -> CheckReport:
    """Spreadness of the encoded partition families, directly and by formula.

    Direct mode computes spread_factor / weak_spread of the actual encoded
    family and compares with the claimed threshold at these parameters;
    formula mode verifies the underlying count-ratio inequalities with exact
    big-integer arithmetic.  Parameter gates are reported separately: a
    threshold comparison at parameters outside the gates is informational.
    """
    if kind == "bell":
        return _spreadness_bell(n, t, mode)
    if kind == "blocks":
        return _spreadness_blocks(n, l, t, mode)
    if kind == "profiled":
        return _spreadness_profiled(profile, t, s_max, mode)
    if kind == "kl-edges":
        return _spreadness_kl_edges(k, l, mode)
    raise DomainError(f"unknown spreadness setting {kind!r}")


def _weak_spread_point(
    rep: CheckReport, params: dict, fam: SetFamily, t: int, threshold, asserted: bool
) -> None:
    """Direct weak spreadness of fam at t against threshold (None: no threshold)."""
    _, rweak, _ = weak_spread(fam, t)
    holds = threshold is not None and rweak >= ExactPow(threshold)
    rep.check(params, f"{float(rweak):.6g}", threshold, "-", holds, asserted)


def _spreadness_bell(n, t, mode) -> CheckReport:
    """The parts-encoded Bell family against r = n / (6 ln n).

    The threshold is n / (6 ln_lo) rounded up to a dyadic
    (bounds.round_up_dyadic), an upper bound of n / (6 ln n), so a pass
    certifies.  The ratio chain B_n / B_(n-s) >= threshold^s compares with a
    running power rounded up after each step, so rhs_s >= threshold^s.
    """
    if n is None or n < 1:
        raise DomainError("bell setting needs n >= 1")
    rep = CheckReport("encoded-spreadness-bell", {"n": n, "t": t, "mode": mode})
    threshold = None
    if n >= 2:
        threshold = round_up_dyadic(Fraction(n) / (6 * ln_enclosure(Fraction(n))[0]))
    else:
        rep.notes.append("no threshold at n=1: ln 1 = 0 leaves n / (6 ln n) undefined")
    gate = n >= 50
    if mode in ("direct", "both"):
        _, fam = encode_family_parts(enumerate_partitions(n))
        rstar = spread_factor(fam).r_star
        if threshold:
            ok = rep.check(
                {"n": n, "claim": "r0-spread", "gate_n_ge_50": gate},
                f"{float(rstar):.6g}",
                threshold,
                "-",
                rstar >= ExactPow(threshold),
                gate,
            )
            if not gate:
                rep.notes.append(
                    f"threshold claimed only for n >= 50; at n={n} the "
                    f"comparison is informational "
                    f"({'holds' if ok else 'does not hold'})"
                )
        if t is not None and t >= 1:
            # the weak-spread threshold is n / (12 ln n)
            _weak_spread_point(
                rep, {"n": n, "t": t, "claim": "weak-spread"}, fam, t,
                threshold / 2 if threshold else None, gate and t <= n // 2,
            )
    if mode in ("formula", "both") and threshold:
        rhs = Fraction(1)
        for s in range(1, n + 1):
            rhs = round_up_dyadic(rhs * threshold)
            rep.compare(
                {"n": n, "s": s, "claim": "ratio-chain"},
                Fraction(bell(n), bell(n - s)), rhs, asserted=gate,
            )
        if mode == "formula" and not gate:
            rep.notes.append(f"ratio chain claimed only for n >= 50; at n={n} it is informational")
    return rep


def _spreadness_blocks(n, l, t, mode) -> CheckReport:
    if n is None or l is None or t is None:
        raise DomainError("blocks setting needs n, l, t")
    if not 1 <= t <= l - 1 or l > n:
        raise DomainError("blocks setting needs 1 <= t < l <= n")
    rep = CheckReport("encoded-spreadness-blocks", {"n": n, "l": l, "t": t, "mode": mode})
    gate = rep.gate(
        "t<=l-2,n>=2l*log2(n),n>=48",
        t <= l - 2 and at_least_log2(Fraction(n, 2 * l), n) and n >= 48,
    )
    threshold = Fraction(n * n, 2)
    if mode in ("direct", "both"):
        _, fam = encode_family_parts(enumerate_into_blocks(n, l))
        _weak_spread_point(rep, {"claim": "weak-spread"}, fam, t, threshold, gate)
    if mode in ("formula", "both"):
        top = stirling2(n - t, l - t)
        for s in range(1, l - t):
            rep.compare(
                {"s": s, "claim": "stirling-chain"},
                Fraction(top, stirling2(n - t - s, l - t - s)),
                threshold**s,
                asserted=gate,
            )
        # endpoint s = l - t: 2^(n-l+1) >= n^4
        rep.compare({"s": l - t, "claim": "endpoint"}, 2 ** (n - l + 1), n**4, asserted=gate)
    return rep


def _spreadness_profiled(profile, t, s_max, mode) -> CheckReport:
    if profile is None or t is None:
        raise DomainError("profiled setting needs a profile and t")
    sizes = profile.sizes
    l = len(sizes)
    if not 1 <= t < l:
        raise DomainError("profiled setting needs 1 <= t < l")
    if s_max is not None and s_max < 1:
        raise DomainError("profiled setting needs s_max >= 1")
    rep = CheckReport(
        "encoded-spreadness-profiled",
        {"l": l, "t": t, "mode": mode, "profile": "uniform" if len(set(sizes)) == 1 else "mixed"},
    )
    gate = rep.gate("t<=l/2,k_(t+1)>=2", t <= l // 2 and sizes[t] >= 2)
    if mode in ("direct", "both"):
        _, fam = encode_family_parts(enumerate_profiled(profile))
        _weak_spread_point(rep, {"claim": "weak-spread"}, fam, t, Fraction(l * l, 12), gate)
    if mode in ("formula", "both"):
        cap = l - t if s_max is None else min(s_max, l - t)
        stars = _profiled_star_counts(sizes, t)
        a_t = next(stars)
        for s, a_ts in zip(range(1, cap + 1), stars):
            rhs = Fraction(l, 12) ** (2 * s)
            # the printed formula is the one the chain asserts; the
            # multiplicity-corrected variant is reported alongside, and a
            # miss there is a finding, not a failure
            for variant, c, miss in (("printed", 0, FAIL), ("corrected", 1, FINDING)):
                rep.compare(
                    {"s": s, "variant": variant},
                    Fraction(a_t[c], a_ts[c]),
                    rhs,
                    asserted=gate,
                    miss=miss,
                )
    return rep


def _spreadness_kl_edges(k, l, mode) -> CheckReport:
    if k is None or l is None or k < 2 or l < 1:
        raise DomainError("kl-edges setting needs k >= 2 and l >= 1")
    rep = CheckReport("encoded-spreadness-kl-edges", {"k": k, "l": l, "mode": mode})
    rep.gate("k>=3", k >= 3)
    asserted = l > 9
    if not asserted:
        rep.notes.append(f"l = {l} <= 9 makes (9/l)^m >= 1: the bound is vacuous")
    # each bound has a linear variant, claimed for m <= kl/3, and a cube-root
    # variant, claimed for every m; power is the exponent of the count ratio
    if mode in ("direct", "both"):
        # every member has l * C(k, 2) edges: refuse the scan before enumerating
        candidates = u_count(k, l) * 2 ** (l * math.comb(k, 2))
        guards.require("spread_candidate_max", candidates, "candidate sets")
        universe = enumerate_profiled(Profile.uniform(k, l))
        _, fam = encode_family_edges(universe)
        factor = spread_factor(fam)
        rstar = factor.r_star
        threshold = ExactPow(Fraction(l, 9), Fraction(2, 3 * k))
        rep.check(
            {"claim": "spread"}, f"{float(rstar):.6g}", f"(l/9)^(2/{3 * k})", "-",
            rstar >= threshold,
        )
        # |F(E)| l^m <= 9^m |F|: |F(E)| and m = sum(|c| - 1) depend only on the
        # component sizes of E, and the candidates' shapes are the walked ones
        weights = [(ext, sum(shape) - len(shape)) for shape, ext in extension_shapes(k, l)]
        for claim, power, lhs_text in (
            ("extension-bound", 1, "min |F|9^m / (|F(E)| l^m)"),
            ("extension-bound-cube", 3, "min (|F|/|F(E)|)^3 9^m / l^m"),
        ):
            worst = min(
                (
                    Fraction(fam.size**power * 9**m, ext**power * l**m)
                    for ext, m in weights
                    if power == 3 or 3 * m <= k * l
                ),
                default=None,
            )
            rep.check(
                {"claim": claim, "candidates": factor.scanned},
                lhs_text,
                1,
                worst - 1 if worst is not None else "-",
                worst is None or worst >= 1,
                asserted,
            )
    if mode in ("formula", "both"):
        u_full = u_count(k, l)
        for shape, ext in extension_shapes(k, l):
            m_x = sum(shape) - len(shape)
            for claim, power, rhs in (
                ("ratio", 1, Fraction(9, l) ** m_x),
                ("ratio-cube", 3, f"(9/l)^({m_x}/3)"),
            ):
                if power == 1 and 3 * m_x > k * l:
                    continue
                # |F(X)|^power l^m <= |F|^power 9^m
                lhs_x = ext**power * l**m_x
                rhs_x = u_full**power * 9**m_x
                rep.check(
                    {"shape": "+".join(map(str, shape)), "m": m_x, "claim": claim},
                    Fraction(ext, u_full),
                    rhs,
                    Fraction(rhs_x, lhs_x) - 1 if lhs_x else "-",
                    lhs_x <= rhs_x,
                    asserted,
                )
    if rep.verdict == VACUOUS:
        rep.notes.append("every bound point is info: no inequality was checked")
    return rep


# ---------------------------------------------------------------------------
# random-subset containment


def check_random_containment(
    f: SetFamily, r, m: int, delta, trials: int, seed: int
) -> CheckReport:
    """Monte Carlo estimate of Pr[some member inside an (m*delta)-random subset]
    against 1 - (5 / log2(r*delta))^m * ||F||.

    The family must be r-spread (verified first).  Trial t draws its
    subset W from its own counter-based stream, the raw outputs of
    Philox4x64-10 keyed by [seed, 0] from counter [0, 0, 0, t] on, so runs
    are reproducible and order-independent.  With m*delta = num/den, the
    outputs are read as w-bit words, w = 32 (low half first) when
    den <= 2^32 and 64 otherwise; a word x is dropped when
    (x * den) mod 2^w < (2^w - den) mod den, and the i-th word kept puts
    element i in W when x < ceil(num * 2^w / den).  So the inclusion
    probability is exactly m*delta.  The verdict compares the estimate
    minus three binomial standard errors against the bound, all in exact
    rationals; a nonpositive bound is reported as vacuous.  The seed must
    fit a signed 64-bit integer, so that the key seed mod 2^64 names one
    seed.  W is the subset numpy's Generator draws from the same stream
    (see sampler.hit_count); the sampler itself needs no numpy.
    """
    if not -(2**63) <= seed < 2**63:
        raise DomainError(f"seed {seed} is outside [-2^63, 2^63)")
    r = as_fraction(r)
    delta = as_fraction(delta)
    p = m * delta
    if not 0 < p <= 1:
        raise PreconditionError("need 0 < m*delta <= 1")
    if trials < 10**4:
        raise PreconditionError("need trials >= 10^4")
    num, den = p.numerator, p.denominator
    if den >= 2**63:
        raise DomainError("m*delta denominator too large for integer sampling")
    ok, _ = is_r_spread(f, r)
    if not ok:
        raise PreconditionError(f"family is not {r}-spread")
    rep = CheckReport(
        "random-containment",
        {"r": r, "m": m, "delta": delta, "trials": trials, "seed": seed},
    )

    rd = r * delta
    bound = None
    if rd > 1:
        log_hi = log2_enclosure(rd)[1]
        bound = 1 - (5 / log_hi) ** m * f.average_size()

    # imported here: only this command draws, and every other command would
    # pay for compiling the sampler at import
    from .sampler import hit_count

    masks = f.masks
    estimate = Fraction(hit_count(masks, f.universe.size, num, den, trials, seed), trials)

    if all(mk.bit_count() == 1 for mk in masks):
        closed = containment_closed_form(f, m, delta)
        rep.add({"claim": "closed-form"}, estimate, closed, estimate - closed, INFO)

    stderr_sq = estimate * (1 - estimate) / trials
    params = {
        "claim": "containment", "estimate": float(estimate), "stderr": float(stderr_sq) ** 0.5
    }
    if bound is None or bound <= 0:
        rep.add(params, estimate, "undefined" if bound is None else bound, "-", VACUOUS)
    else:
        margin = estimate - bound
        rep.check(params, estimate, bound, margin, margin >= 0 and margin * margin >= 9 * stderr_sq)
    return rep


def containment_closed_form(f: SetFamily, m: int, delta) -> Fraction:
    """Exact containment probability for a family of distinct singletons."""
    if not all(mk.bit_count() == 1 for mk in f.masks):
        raise DomainError("closed form applies to singleton families only")
    p = m * as_fraction(delta)
    return 1 - (1 - p) ** f.size


# ---------------------------------------------------------------------------
# non-intersecting counts


def check_nonintersect_count(
    k: int, l: int, t: int, t_set: Sequence[int], y: Partition
) -> CheckReport:
    """Members of the canonical partial family avoiding partial t-intersection
    with an outside partition Y, against l^(-2k^2) u(k, l)."""
    if t < 2:
        raise DomainError("check_nonintersect_count needs t >= 2")
    tf = frozenset(t_set)
    if len(tf) != t:
        raise DomainError("t_set must have exactly t distinct elements")
    if y.n != k * l or y.profile() != Profile.uniform(k, l):
        raise DomainError("Y must be a uniform (k,l)-partition")
    if has_block_containing(y, tf):
        raise PreconditionError("Y lies in the canonical family C^T")
    _, canonical = canonical_family("partial", profile=Profile.uniform(k, l), t_set=tuple(t_set))
    size = len(canonical)
    count = sum(1 for p in canonical if not partially_t_intersect(p, y, t))
    u_full = u_count(k, l)
    rep = CheckReport(
        "nonintersect-count",
        {"k": k, "l": l, "t": t, "T": "{" + ",".join(map(str, sorted(tf))) + "}"},
    )
    # count >= l^(-2k^2) u  <=>  count * l^(2k^2) >= u
    lhs = count * l ** (2 * k * k)
    rep.check(
        {"Y": repr(y), "count": count, "of": size},
        Fraction(count),
        Fraction(u_full, l ** (2 * k * k)),
        Fraction(lhs - u_full, l ** (2 * k * k)),
        lhs >= u_full,
    )
    rep.notes.append(
        f"count is {count}/{size} of the canonical family"
    )
    return rep

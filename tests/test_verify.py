import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from conftest import edges_to_subpartition, enumerate_uniform, family_of, select
from partspread.errors import DomainError, PreconditionError
from partspread.bounds import ln_enclosure
from partspread.exact import ExactPow
from partspread.partitions import (
    Partition,
    Profile,
    bell,
    count_profiled,
    enumerate_partitions,
    tilde_bell,
)
from partspread import sampler, verify
from partspread.encoding import encode_family_edges, encode_family_parts
from partspread.report import CheckReport, fmt, records_to_table
from partspread.setfam import ElementSet, PlainUniverse, SetFamily
from partspread.spread import candidate_counts
from partspread.verify import (
    check_bell_ratio,
    check_dobinski,
    check_encoded_spreadness,
    check_no_singleton_bound,
    check_nonintersect_count,
    check_stirling_growth,
    check_random_containment,
    containment_closed_form,
)


@given(st.lists(st.integers(1, 9), min_size=1, max_size=40), st.integers(0, 40))
def test_profiled_star_count_matches_reference(sizes, j):
    # the running quotients against one division per block (printed: the free
    # blocks ordered) and count_profiled of the free sizes (corrected)
    sizes = sorted(sizes)
    j = min(j, len(sizes))
    expected = []
    for i in range(j, len(sizes) + 1):
        free = sizes[i:]
        printed = math.factorial(sum(free))
        for k in free:
            printed //= math.factorial(k)
        expected.append((printed, count_profiled(Profile(free))))
    assert list(verify._profiled_star_counts(sizes, j)) == expected


def test_bell_ratio_small_points():
    rep = check_bell_ratio(10)
    assert rep.verdict == "pass"
    # n=2: B_3/B_2 = 5/2 against 2/(2 ln 2) ~ 1.4427
    first = rep.points[0]
    assert first.params == "n=2"
    assert first.verdict == "pass"
    assert Fraction(bell(3), bell(2)) == Fraction(5, 2)
    with pytest.raises(DomainError):
        check_bell_ratio(1)


def test_compare_records_lhs_at_least_rhs():
    rep = CheckReport("c", {})
    assert rep.compare({"i": 0}, 3, 2) is True
    assert rep.compare({"i": 1}, Fraction(1, 2), 1, asserted=False) is False
    assert rep.compare({"i": 2}, 2, 3, miss="finding") is False
    assert [(p.lhs, p.rhs, p.margin, p.verdict) for p in rep.points] == [
        ("3", "2", "1/2", "pass"),
        ("1/2", "1", "-1/2", "info"),
        ("2", "3", "-1/3", "finding"),
    ]


@pytest.mark.parametrize(
    "verdicts, overall",
    [
        ((), "vacuous"),
        (("pass", "info", "gated"), "pass"),
        (("pass", "vacuous"), "vacuous"),
        (("pass", "finding"), "finding"),
        (("vacuous", "finding"), "finding"),
        (("finding", "fail", "vacuous"), "fail"),
        (("pass",), "pass"),
        (("info", "gated"), "vacuous"),
    ],
)
def test_finalize_takes_the_worst_point(verdicts, overall):
    rep = CheckReport("c", {})
    for v in verdicts:
        rep.add({}, "-", "-", "-", v)
    assert rep.verdict == overall


def test_gates_assert_nothing():
    rep = CheckReport("c", {})
    assert rep.gate("g", True) is True
    assert rep.check({"i": 0}, 2, 1, "-", True, asserted=False) is True
    assert rep.check({"i": 1}, 1, 2, "-", False, asserted=False) is False
    # a pass gate and only info points: nothing was asserted
    assert rep.verdict == "vacuous"
    assert [r.verdict for r in rep.records()] == ["vacuous", "pass", "info", "info"]
    # one asserted pass point keeps the head pass, whatever the gates read
    rep = CheckReport("c", {})
    rep.gate("g", False)
    rep.check({}, 2, 1, "-", True)
    assert rep.verdict == "pass"


def test_head_is_read_from_the_points():
    rep = CheckReport("c", {})
    assert rep.verdict == "vacuous"
    rep.check({}, 2, 1, "-", True)
    assert rep.verdict == "pass"
    rep.check({}, 1, 2, "-", False)
    assert rep.verdict == "fail"
    assert [r.verdict for r in rep.records()] == ["fail", "pass", "fail"]


def test_dobinski_examples():
    assert check_dobinski(0, 60).verdict == "pass"
    assert check_dobinski(10, 80).verdict == "pass"
    assert check_dobinski(20, 120).verdict == "pass"
    with pytest.raises(DomainError):
        check_dobinski(5, 3)


def test_dobinski_short_sum_fails_tolerance():
    # with too few terms the partial sum misses the Bell number
    rep = check_dobinski(12, 12)
    assert rep.verdict == "fail"


def test_no_singleton_bound():
    rep = check_no_singleton_bound(20)
    assert rep.verdict in ("pass", "finding")
    s2 = [p for p in rep.points if p.params == "s=2"][0]
    assert s2.lhs == "1" and s2.rhs == "1"  # zero margin at the base case
    assert s2.verdict == "pass"


def test_no_singleton_rounding_keeps_every_verdict():
    # the reference keeps the product exact; the check rounds it up each step
    rep = check_no_singleton_bound(100)
    assert [p.lhs for p in rep.points] == [str(tilde_bell(s)) for s in range(2, 101)]
    product, want = Fraction(1), []
    for s in range(2, 101):
        want.append("pass" if tilde_bell(s) >= Fraction(1, 2) * product * bell(s) else "finding")
        ln_lo = ln_enclosure(Fraction(s + 1))[0]
        product *= (1 - 2 * ln_lo / (s + 1)) * (1 - Fraction(2 * s + 2, 3**s))
    assert [p.verdict for p in rep.points] == want
    assert rep.verdict == "pass"
    assert len(records_to_table(rep.records()).encode()) < 100_000


def test_stirling_growth_examples():
    rep = check_stirling_growth(2, 30)
    by_params = {p.params: p for p in rep.points}
    assert by_params["l=2,n=10"].verdict == "gated"
    assert by_params["l=2,n=23"].verdict == "pass"
    assert by_params["l=2,n=23"].lhs == "4194303"
    assert by_params["l=2,n=23"].rhs == "529"
    assert rep.verdict == "pass"


def test_stirling_growth_all_gated_is_vacuous():
    # 2^(n-1) >= n^4, the gate at l = 2, first holds at n = 18
    for l_max, n_cap in ((2, 2), (2, 17), (3, 3)):
        rep = check_stirling_growth(l_max, n_cap)
        assert {p.verdict for p in rep.points} == {"gated"}
        assert rep.verdict == "vacuous"
        assert rep.notes == ["every point fails the gate: no inequality was checked"]
    rep = check_stirling_growth(2, 18)
    assert rep.verdict == "pass" and rep.notes == []


def test_stirling_growth_sweep_l3():
    rep = check_stirling_growth(3, 60)
    assert rep.verdict == "pass"


def test_spreadness_bell_direct():
    rep = check_encoded_spreadness("bell", n=5, mode="direct")
    point = [p for p in rep.points if "r0-spread" in p.params][0]
    assert point.verdict == "info"  # n=5 is below the n >= 50 gate
    assert rep.notes  # informational note mentions the gate
    assert rep.verdict == "vacuous"  # no point is asserted


def test_spreadness_bell_n1_asserts_nothing():
    # ln 1 = 0 leaves no threshold, so there is no point at all, and a note says so
    rep = check_encoded_spreadness("bell", n=1)
    assert rep.points == [] and rep.verdict == "vacuous"
    assert rep.notes == ["no threshold at n=1: ln 1 = 0 leaves n / (6 ln n) undefined"]


def test_spreadness_bell_formula():
    rep = check_encoded_spreadness("bell", n=30, mode="formula")
    # all points informational below the gate: nothing is asserted, and a note says so
    assert rep.verdict == "vacuous"
    assert {p.verdict for p in rep.points} == {"info"}
    assert rep.notes == ["ratio chain claimed only for n >= 50; at n=30 it is informational"]
    # both modes keep the one direct-mode note
    rep = check_encoded_spreadness("bell", n=5, mode="both")
    assert len(rep.notes) == 1 and rep.notes[0].startswith("threshold claimed only")
    assert check_encoded_spreadness("bell", n=50, mode="formula").notes == []


def test_bell_rounding_keeps_every_verdict():
    # the reference keeps the power exact.  The check rounds the threshold up
    # once and the running power up at each step after the first (which is
    # exact), so its excess over threshold^s is s - 1 roundings of at most
    # 2^-127 each, and over (n / (6 ln_lo))^s, where the threshold's own
    # rounding is raised to the s-th power, 2s - 1 of them
    ulp = Fraction(1, 2**127)
    for n in list(range(2, 81)) + [150]:
        rep = check_encoded_spreadness("bell", n=n, mode="formula")
        exact = Fraction(n) / (6 * ln_enclosure(Fraction(n))[0])
        threshold = Fraction(rep.points[0].rhs)
        assert [p.params for p in rep.points] == [
            f"n={n},s={s},claim=ratio-chain" for s in range(1, n + 1)
        ]
        power, rounded_power = Fraction(1), Fraction(1)
        for s, p in enumerate(rep.points, 1):
            power *= exact
            rounded_power *= threshold
            lhs, rhs = Fraction(bell(n), bell(n - s)), Fraction(p.rhs)
            assert p.lhs == fmt(lhs)
            assert power <= rhs < power * (1 + 2 * s * ulp)
            assert rhs < rounded_power * (1 + (s + 1) * ulp)
            assert p.verdict == ("info" if n < 50 else "pass" if lhs >= power else "fail")
    assert rep.verdict == "pass"
    assert len(records_to_table(rep.records()).encode()) < 200_000


def test_bell_rounding_keeps_the_direct_verdicts(monkeypatch):
    # each r* and weak r the report compares, against the threshold before rounding
    seen = []

    def keep(fn, pick):
        def wrapped(*args):
            out = fn(*args)
            seen.append(pick(out))
            return out

        return wrapped

    monkeypatch.setattr(verify, "spread_factor", keep(verify.spread_factor, lambda r: r.r_star))
    monkeypatch.setattr(verify, "weak_spread", keep(verify.weak_spread, lambda r: r[1]))
    for n in range(2, 10):
        seen.clear()
        rep = check_encoded_spreadness("bell", n=n, t=n // 2, mode="direct")
        exact = Fraction(n) / (6 * ln_enclosure(Fraction(n))[0])
        rstar, rweak = seen
        assert [p.verdict for p in rep.points] == ["info", "info"]
        holds = rstar >= ExactPow(exact)
        assert rep.notes == [
            f"threshold claimed only for n >= 50; at n={n} the comparison is "
            f"informational ({'holds' if holds else 'does not hold'})"
        ]
        # the rounded threshold decides both comparisons as the exact one does
        threshold = Fraction(rep.points[0].rhs)
        assert holds == (rstar >= ExactPow(threshold))
        assert (rweak >= ExactPow(exact / 2)) == (rweak >= ExactPow(threshold / 2))


def test_spreadness_blocks():
    rep = check_encoded_spreadness("blocks", n=6, l=4, t=2, mode="both")
    # t = l - 2 fails the gate, so every point is info
    assert [g.verdict for g in rep.gates] == ["gated"]
    assert rep.verdict == "vacuous"
    with pytest.raises(DomainError):
        check_encoded_spreadness("blocks", n=6, l=7, t=1)


def test_spreadness_blocks_formula_inside_gate():
    # n = 48, l = 3, t = 1 satisfies every hypothesis, so the chain and the
    # endpoint are asserted rather than informational
    rep = check_encoded_spreadness("blocks", n=48, l=3, t=1, mode="formula")
    assert rep.verdict == "pass"
    assert [(g.params, g.verdict) for g in rep.gates] == [
        ("gate=t<=l-2,n>=2l*log2(n),n>=48", "pass")
    ]
    asserted = [p for p in rep.points if "claim=" in p.params]
    assert asserted and all(p.verdict == "pass" for p in asserted)


def test_spreadness_bell_formula_inside_gate():
    rep = check_encoded_spreadness("bell", n=50, mode="formula")
    assert rep.verdict == "pass"
    chain = [p for p in rep.points if "ratio-chain" in p.params]
    assert len(chain) == 50
    assert all(p.verdict == "pass" for p in chain)


def test_spreadness_profiled_direct_small():
    rep = check_encoded_spreadness(
        "profiled", profile=Profile((2, 2, 2, 2)), t=1, mode="direct"
    )
    assert rep.verdict in ("pass", "finding")


def test_spreadness_profiled_gated_is_vacuous():
    # t = 3 > l/2 fails the gate: every point is info and the head says so
    rep = check_encoded_spreadness("profiled", profile=Profile((2,) * 5), t=3)
    assert [g.verdict for g in rep.gates] == ["gated"]
    assert {p.verdict for p in rep.points} == {"info"}
    assert rep.verdict == "vacuous"


def test_spreadness_profiled_formula_conventions():
    rep = check_encoded_spreadness(
        "profiled", profile=Profile((2,) * 40), t=5, s_max=20, mode="formula"
    )
    printed = [p for p in rep.points if "variant=printed" in p.params]
    assert printed and all(p.verdict == "pass" for p in printed)
    # the corrected convention may disagree; when it does the head says so
    corrected = [p for p in rep.points if "variant=corrected" in p.params]
    assert corrected and {p.verdict for p in corrected} <= {"pass", "finding"}
    assert rep.verdict == ("finding" if any(p.verdict == "finding" for p in corrected) else "pass")


def test_spreadness_kl_edges():
    rep = check_encoded_spreadness("kl-edges", k=2, l=3, mode="both")
    assert rep.verdict == "pass"
    spread_pt = [p for p in rep.points if "claim=spread" in p.params][0]
    assert spread_pt.verdict == "pass"
    rep = check_encoded_spreadness("kl-edges", k=3, l=2, mode="both")
    assert rep.verdict == "pass"


def _union_find_extension_minima(k, l):
    # the per-candidate reference: each candidate edge set's components by
    # union-find, then min |F|^p 9^m / (|F(E)|^p l^m) for p = 1 and p = 3
    u, fam = encode_family_edges(enumerate_uniform(k, l))
    scan = [
        (cnt, edges_to_subpartition(ElementSet(u, mask)).weight)
        for mask, cnt in candidate_counts(fam).items()
    ]
    return [
        min(
            (
                Fraction(fam.size**power * 9**m, cnt**power * l**m)
                for cnt, m in scan
                if power == 3 or 3 * m <= k * l
            ),
            default=None,
        )
        for power in (1, 3)
    ]


@pytest.mark.parametrize(
    "k, l", [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (3, 1), (3, 2), (4, 1), (5, 1), (6, 1)]
)
def test_kl_edges_extension_bounds_match_the_union_find_scan(k, l):
    # direct mode reads both minima from the shape walk; the margins it
    # prints equal those of the per-candidate scan
    rep = check_encoded_spreadness("kl-edges", k=k, l=l, mode="direct")
    for claim, worst in zip(
        ("extension-bound", "extension-bound-cube"), _union_find_extension_minima(k, l)
    ):
        (point,) = [p for p in rep.points if p.params.startswith(f"claim={claim},")]
        assert point.margin == (fmt(worst - 1) if worst is not None else "-")


def test_spreadness_kl_edges_formula_at_small_l_is_vacuous():
    # l <= 9 makes every bound point info; the k >= 3 gate asserts nothing
    note = "every bound point is info: no inequality was checked"
    for k, l in ((2, 3), (3, 3), (2, 9)):
        rep = check_encoded_spreadness("kl-edges", k=k, l=l, mode="formula")
        assert {p.verdict for p in rep.points} == {"info"}
        assert rep.verdict == "vacuous" and rep.notes[-1] == note
    # a checked point keeps the head pass
    for k, l, mode in ((2, 10, "formula"), (2, 3, "both"), (2, 3, "direct")):
        rep = check_encoded_spreadness("kl-edges", k=k, l=l, mode=mode)
        assert rep.verdict == "pass" and note not in rep.notes


def test_spreadness_unknown_setting():
    with pytest.raises(DomainError):
        check_encoded_spreadness("nope")


def _singleton_family(n: int) -> SetFamily:
    return SetFamily(PlainUniverse(n), [1 << i for i in range(n)])


def test_containment_vacuous_case():
    f = _singleton_family(16)
    rep = check_random_containment(f, 16, 2, Fraction(1, 4), 10**4, 0)
    assert rep.verdict == "vacuous"
    closed = containment_closed_form(f, 2, Fraction(1, 4))
    assert closed == 1 - Fraction(1, 2**16)
    est = Fraction([p for p in rep.points if "closed-form" in p.params][0].lhs)
    sigma_sq = closed * (1 - closed) / 10**4
    assert (est - closed) ** 2 <= 9 * sigma_sq


def test_containment_passing_case():
    f = _singleton_family(4096)
    rep = check_random_containment(f, 4096, 3, Fraction(1, 64), 10**4, 42)
    assert rep.verdict == "pass"
    closed = containment_closed_form(f, 3, Fraction(1, 64))
    est = Fraction([p for p in rep.points if "closed-form" in p.params][0].lhs)
    sigma_sq = closed * (1 - closed) / 10**4
    assert (est - closed) ** 2 <= 9 * sigma_sq


def test_containment_determinism():
    # at m*delta = 1/32 a trial hits with probability 1 - (31/32)^16 ~ 0.40,
    # so the estimate shows which stream was drawn
    f = _singleton_family(16)

    def estimate(seed):
        rep = check_random_containment(f, 16, 1, Fraction(1, 32), 10**4, seed)
        return rep, select(rep.records(), "random-containment", claim="containment")[0].lhs

    a, est_a = estimate(7)
    assert estimate(7)[0].records() == a.records()
    assert est_a == "1967/5000"
    assert estimate(8)[1] == "3977/10000"


def test_containment_preconditions():
    f = _singleton_family(8)
    with pytest.raises(PreconditionError):
        check_random_containment(f, 8, 3, Fraction(1, 2), 10**4, 0)  # m*delta > 1
    with pytest.raises(PreconditionError):
        check_random_containment(f, 8, 2, Fraction(1, 4), 100, 0)  # too few trials
    with pytest.raises(PreconditionError):
        check_random_containment(f, 9, 2, Fraction(1, 4), 10**4, 0)  # not 9-spread


def test_containment_denominator_refused_before_the_scan(monkeypatch):
    # f is not 9-spread, and the sampler cannot draw at the denominator 2^63 + 1
    f = _singleton_family(8)
    scans = []
    scan = verify.is_r_spread
    monkeypatch.setattr(verify, "is_r_spread", lambda *args: scans.append(args) or scan(*args))
    with pytest.raises(DomainError, match="denominator too large"):
        check_random_containment(f, 9, 1, Fraction(1, 2**63 + 1), 10**4, 0)
    assert scans == []


def test_containment_closed_form_domain():
    f = family_of(4, {0, 1})
    with pytest.raises(DomainError):
        containment_closed_form(f, 2, Fraction(1, 4))


def _generator_subsets(n, num, den, trials, seed):
    """Each trial's W by one numpy Generator per trial: the reference the
    stdlib sampler reproduces."""
    import numpy as np
    from numpy.random import Generator, Philox

    for trial in range(trials):
        gen = Generator(Philox(key=[seed, 0], counter=[0, 0, 0, trial]))
        draws = gen.integers(0, den, size=n, dtype=np.uint64)
        yield int.from_bytes(np.packbits(draws < num, bitorder="little").tobytes(), "little")


def _reference_hits(masks, n, num, den, trials, seed):
    return sum(
        any(mk & w == mk for mk in masks) for w in _generator_subsets(n, num, den, trials, seed)
    )


SEEDS = (-(2**63), -1, 0, 2**63 - 1)


@pytest.mark.parametrize("seed", SEEDS)
def test_philox_matches_random_raw(seed):
    # word for word against numpy's Philox4x64-10, in one lane and in many
    from numpy.random import Philox

    keys = sampler._philox_keys(seed)
    for trials in ([0], [1], [2**40], [0, 1, 2**40, 7]):
        lanes = len(trials)
        ones = sampler._packed([1] * lanes)
        mask = sampler._packed([2**64 - 1] * lanes)
        wide_keys = [sampler._packed([k] * lanes) for k in keys]
        ids = sampler._packed(trials)
        for block in range(1, 6):
            outs = sampler._philox(block, ids, ones, mask, wide_keys)
            for i, trial in enumerate(trials):
                raw = Philox(key=[seed, 0], counter=[0, 0, 0, trial]).random_raw(4 * block)
                got = [(c >> (128 * i)) & (2**64 - 1) for c in outs]
                assert got == [int(x) for x in raw[-4:]]


def _sampler_families(n, rng):
    """Singletons, bell:4 parts-encoded in the low 15 elements, and random
    members whose elements span several Philox blocks."""
    families = [[1 << i for i in range(n)]]
    if n >= 15:
        families.append(list(encode_family_parts(enumerate_partitions(4))[1].masks))
    if n > 1:
        families.append(
            [(1 << rng.randrange(n)) | (1 << rng.randrange(n)) | (1 << rng.randrange(n))
             for _ in range(6)]
        )
    return families


# 3 * 2^30 rejects one 32-bit word in four; 2^32 takes words as they come;
# the last two draw 64-bit words, and 2^62 + 12345 rejects one in four
SAMPLER_DENS = (1, 2, 3, 7, 64, 3 * 2**30, 2**32, 3 * 2**40 + 1, 2**62 + 12345)


@pytest.mark.parametrize("n", (1, 15, 36, 37, 4096))
@pytest.mark.parametrize("den", SAMPLER_DENS)
def test_hit_count_matches_generator_draws(monkeypatch, den, n):
    # batches of 8 trials: every run below crosses a batch boundary
    monkeypatch.setattr(sampler, "_LANES", 8)
    rng = random.Random(den * 64 + n)
    trials = 11 if n == 4096 else 40
    for masks in _sampler_families(n, rng):
        for num in sorted({1, max(1, den // 3), max(1, den - 1), den}):
            for seed in SEEDS:
                args = (n, num, den, trials, seed)
                assert sampler.hit_count(masks, *args) == _reference_hits(masks, *args)


def test_hit_count_crosses_a_full_batch():
    # at the shipped batch size, and one word in four rejected
    trials = sampler._LANES + 3
    masks = [0b101, 0b11000, 1 << 36]
    for den, num in ((2, 1), (3 * 2**30, 2**30 + 1)):
        args = (37, num, den, trials, 11)
        assert sampler.hit_count(masks, *args) == _reference_hits(masks, *args)


def test_random_subsets_word_at_the_cut():
    # den = 2^32 takes words as they are: with num the first word of trial 0,
    # that word lies at the cut exactly and leaves element 0 out of W, so the
    # member {0} is missed; with num one more, it is hit
    from numpy.random import Philox

    num = int(Philox(key=[3, 0]).random_raw()) % 2**32
    for below, hits in ((num, 0), (num + 1, 1)):
        args = (4, below, 2**32, 1, 3)
        assert sampler.hit_count([1], *args) == _reference_hits([1], *args) == hits


def _bounded_draw(word: int, den: int, bits: int) -> tuple[bool, int]:
    """(accepted, value) of one bits-wide word in numpy's bounded draw on [0, den),
    in the steps of its C loop (Lemire's method, rng = den - 1)."""
    rng = den - 1
    if rng == 2**bits - 1:  # the full range takes the word as it is
        return True, word
    m = word * (rng + 1)
    leftover = m % 2**bits
    rejected = leftover < rng + 1 and leftover < (2**bits - 1 - rng) % (rng + 1)
    return not rejected, m >> bits


@st.composite
def _word_cases(draw):
    bits = draw(st.sampled_from((32, 64)))
    den = draw(st.integers(1, 2**bits))
    return bits, den, draw(st.integers(0, den)), draw(st.integers(0, 2**bits - 1))


@given(_word_cases())
@example((32, 3 * 2**30, 2**30 + 1, 2**30))  # rejected: a quarter of the words are
@example((32, 2**32, 5, 4))
@example((64, 3 * 2**40 + 1, 2**40, 2**64 - 1))
def test_word_rule_is_the_bounded_draw(case):
    bits, den, num, word = case
    reject_below, cut = sampler._word_rule(num, den, bits)
    accepted, value = _bounded_draw(word, den, bits)
    assert accepted == ((word * den) % 2**bits >= reject_below)
    if accepted:
        assert (word < cut) == (value < num) == ((word * den) >> bits < num)


def test_nonintersect_2_3_2():
    y = Partition([[1, 3], [2, 4], [5, 6]])
    rep = check_nonintersect_count(2, 3, 2, (1, 2), y)
    assert rep.verdict == "pass"
    point = rep.points[0]
    assert "count=2" in point.params
    y_in = Partition([[1, 2], [3, 4], [5, 6]])
    with pytest.raises(PreconditionError):
        check_nonintersect_count(2, 3, 2, (1, 2), y_in)


def test_nonintersect_input_validation():
    with pytest.raises(DomainError):
        check_nonintersect_count(2, 3, 2, (1, 2), Partition([[1, 2, 3], [4, 5, 6]]))
    with pytest.raises(DomainError):
        check_nonintersect_count(2, 3, 1, (1,), Partition([[1, 3], [2, 4], [5, 6]]))


def test_nonintersect_anchor_outside_ground_set():
    # T = {1, 9} is not inside [4]: refused, not counted over an empty family
    with pytest.raises(DomainError, match=r"inside \[4\]"):
        check_nonintersect_count(2, 2, 2, (1, 9), Partition([[1, 3], [2, 4]]))


def test_nonintersect_sweep_2_3_2():
    tf = frozenset({1, 2})
    universe = enumerate_uniform(2, 3)
    outside = [p for p in universe if not any(tf.issubset(b) for b in p.blocks)]
    assert len(outside) == 12
    for y in outside:
        rep = check_nonintersect_count(2, 3, 2, (1, 2), y)
        assert rep.verdict == "pass"

import dataclasses
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from conftest import enumerate_uniform, family_of, ksubsets_family, select
from partspread.approx import (
    ApproxResult,
    PeelStep,
    check_dominance,
    minimize_t_intersecting,
    reduction_sequence,
    spread_approximate,
    verify_approx,
)
from partspread.cli import load_family
from partspread.encoding import encode_family_edges
from partspread import approx, guards, setfam, spread
from partspread.errors import DomainError, IntegrityError, PreconditionError, ResourceLimitError
from partspread.extremal import canonical_family
from partspread.partitions import Profile
from partspread.report import records_to_text
from partspread.setfam import ElementSet, PlainUniverse, SetFamily, restrict, stars
from partspread.spread import find_max_violating, find_spread_subfamily, is_r_spread

GATES = ("gate-r-vs-log", "gate-r-vs-2q", "gate-r0-vs-r")


def verdicts(records, name, **params) -> list[str]:
    return [r.verdict for r in select(records, name, **params)]


def gate_verdicts(records) -> list[str]:
    return [v for g in GATES for v in verdicts(records, "approx-gate", gate=g)]


def test_peeling_star_trace():
    f = family_of(4, {0, 1}, {0, 2}, {0, 3})
    res = spread_approximate(f, 2, 2)
    assert [c.indices() for c in res.cores] == [[0, 1], [0, 2], [0, 3]]
    assert res.remainder.size == 0
    assert [s.peeled for s in res.trace] == [1, 1, 1]
    assert res.oversized_core is None


def test_peeling_stops_on_oversized_core():
    f = family_of(4, {0, 1}, {0, 2}, {0, 3})
    res = spread_approximate(f, 2, 1)
    assert res.cores == []
    assert res.remainder == f
    assert res.oversized_core.size == 2


def test_peeling_single_member():
    f = family_of(5, {1, 2, 4})
    res = spread_approximate(f, Fraction(3, 2), 3)
    assert len(res.cores) == 1
    assert res.cores[0].indices() == [1, 2, 4]
    assert res.remainder.size == 0


def test_peeling_conservation_random():
    rnd = random.Random(77)
    for _ in range(25):
        members = set()
        while len(members) < rnd.randint(2, 12):
            members.add(frozenset(rnd.sample(range(8), rnd.randint(1, 4))))
        f = family_of(8, *members)
        r = rnd.choice([Fraction(3, 2), 2, 3])
        q = rnd.randint(1, 4)
        res = spread_approximate(f, r, q)
        assert sum(fam.size for fam in res.core_families) + res.remainder.size == f.size
        for core, fam in zip(res.cores, res.core_families):
            ok, _ = is_r_spread(restrict(fam, core), r)
            assert ok


def ref_spread_approximate(f: SetFamily, r, q: int) -> ApproxResult:
    """The peel with every F^i rebuilt as a family: S_i by find_max_violating
    on it, its star by `stars`."""
    r = Fraction(r)
    cores, fams, trace = [], [], []
    oversized = None
    cur = f
    while cur.size > 0:
        s_i = find_max_violating(cur, r)
        if s_i.size > q:
            oversized = s_i
            break
        star = stars(cur, [s_i])
        cores.append(s_i)
        fams.append(star)
        trace.append(PeelStep(s_i, cur.size, Fraction(cur.size) / r**s_i.size, star.size))
        star_masks = set(star.masks)
        cur = SetFamily(cur.universe, (m for m in cur.masks if m not in star_masks))
    return ApproxResult(f, r, q, cores, fams, cur, trace, oversized)


def assert_peel_matches_reference(f: SetFamily, r, q: int) -> None:
    got, want = spread_approximate(f, r, q), ref_spread_approximate(f, r, q)
    assert got.cores == want.cores
    assert [fam.masks for fam in got.core_families] == [fam.masks for fam in want.core_families]
    assert got.remainder.masks == want.remainder.masks
    assert got.trace == want.trace
    assert got.oversized_core == want.oversized_core


# members of mixed sizes over 6 elements, r > 1 fractional, integral and above |F|
@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(0, 63), min_size=1, max_size=12),
    st.booleans(),
    st.builds(lambda p, q: Fraction(q + p, q), st.integers(1, 40), st.integers(1, 7)),
    st.data(),
)
def test_peel_matches_reference(masks, with_empty, r, data):
    f = SetFamily(PlainUniverse(6), masks + [0] * with_empty)
    q = data.draw(st.integers(1, max(1, f.max_size())))
    assert_peel_matches_reference(f, r, q)


@pytest.mark.parametrize("spec", ["bell:5", "kl:2,4"])
@pytest.mark.parametrize("r", [Fraction(3, 2), 2, Fraction(5, 2), 4])
def test_peel_matches_reference_encoded(spec, r):
    _, f = load_family(spec)
    for q in range(1, f.max_size() + 1):
        assert_peel_matches_reference(f, r, q)


def absorb_at_x() -> SetFamily:
    """At r = 3, growth takes {0} (in 9 of the 19 members), and then no
    element lies in the ceil(19/9) = 3 members of F({0}) that size 2 needs;
    F({0}) is not 3-spread ({1, 2} lies in 2 of its 9 members), so that
    violator is absorbed at X = {0}."""
    core = [{1, 2, 3}, {1, 2, 4}, {5}, {6}, {7}, {8}, {9}, {5, 6}, {7, 8}]
    return family_of(20, *[m | {0} for m in core], *[{e} for e in range(10, 20)])


@pytest.mark.parametrize(
    "call",
    [
        lambda: find_max_violating(absorb_at_x(), 3),
        lambda: is_r_spread(absorb_at_x(), 3),
    ],
    ids=["find_max_violating", "is_r_spread"],
)
def test_one_member_index_per_call(call):
    build = mock.Mock(wraps=setfam.holders)
    with mock.patch.object(spread, "holders", build):
        call()
    assert build.call_count == 1


def test_refused_search_builds_no_index():
    # the candidate guard comes before the index, so a refusal pays for neither
    build = mock.Mock(wraps=setfam.holders)
    with mock.patch.object(spread, "holders", build), guards.limited(spread_candidate_max=1):
        with pytest.raises(ResourceLimitError, match="candidate sets=88 exceeds"):
            is_r_spread(absorb_at_x(), 3)
        with pytest.raises(ResourceLimitError, match="candidate sets=40 exceeds"):
            find_spread_subfamily(ksubsets_family(5, 2), 3)
    assert build.call_count == 0


def test_peel_builds_one_index():
    # one index for the whole peel, with no rebuild per step or per absorb
    build = mock.Mock(wraps=setfam.holders)
    with mock.patch.object(spread, "holders", build):
        res = spread_approximate(absorb_at_x(), 3, 4)
    assert build.call_count == 1
    assert res.cores[0].indices() == [0, 1, 2, 3] and len(res.trace) >= 2


def test_absorb_guard_counts_the_restriction():
    # the absorb at X = {0} searches F({0}): 2^|A - X| summed over its 9 members
    f = absorb_at_x()
    c = sum(2 ** (m & ~1).bit_count() for m in f.masks if m & 1)
    assert c == 34
    with guards.limited(spread_candidate_max=c - 1):
        with pytest.raises(ResourceLimitError) as exc:
            find_max_violating(f, 3)
    assert str(exc.value) == "SPREAD_CANDIDATE_MAX: candidate sets=34 exceeds the guard 33"
    with guards.limited(spread_candidate_max=c):
        assert find_max_violating(f, 3).indices() == [0, 1, 2, 3]


def test_verify_approx_conclusions():
    f = family_of(4, {0, 1}, {0, 2}, {0, 3})
    res = spread_approximate(f, 2, 2)
    recs = verify_approx(res, f, 4, 1)
    assert verdicts(recs, "approx-coverage") == ["pass"]
    assert verdicts(recs, "approx-core-spread") == ["pass"] * 3
    assert verdicts(recs, "approx-remainder") == ["pass"]  # empty remainder passes trivially
    assert verdicts(recs, "approx-conservation") == ["pass"]
    assert verdicts(recs, "approx-cores-t-intersect") == ["pass"]  # cores share element 0
    # r = 2 is far below the spreadness gate and below 2q = 4
    assert gate_verdicts(recs) == ["gated", "gated", "pass"]
    # an ambient family that misses peeled members does not cover them
    recs = verify_approx(res, family_of(4, {0, 1}), 4, 1)
    assert verdicts(recs, "approx-coverage") == ["fail"]


def test_verify_approx_gates_hold_case():
    # one singleton member: k = 1 so the gate is r > 2^12; q = 1, r0 > r
    f = family_of(3, {1})
    r = 2**13
    res = spread_approximate(f, r, 1)
    recs = verify_approx(res, f, 2**14, 1)
    assert gate_verdicts(recs) == ["pass"] * 3
    for name in (
        "approx-cores-t-intersect",
        "approx-coverage",
        "approx-core-spread",
        "approx-remainder",
        "approx-conservation",
    ):
        assert verdicts(recs, name) == ["pass"]


def test_verify_approx_integrity():
    f = family_of(4, {0, 1}, {0, 2})
    res = spread_approximate(f, 2, 2)
    corrupted = dataclasses.replace(res, remainder=family_of(4, {1, 2}))
    with pytest.raises(IntegrityError):
        verify_approx(corrupted, f, 4, 1)


def test_peeling_canonical_partial_family_inside_ambient():
    # edge-encoded canonical family inside the full uniform family
    universe, members = canonical_family("partial", t=2, profile=Profile.uniform(2, 4))
    u, ambient = encode_family_edges(universe)
    sub_masks = {m for p, m in zip(universe, ambient.masks) if p in set(members)}
    f = SetFamily(u, [m for m in ambient.masks if m in sub_masks])
    assert f.size == 15
    t_edge = u.index_of((1, 2))
    res = spread_approximate(f, 2, 4)
    assert res.remainder.size == 0
    for core in res.cores:
        assert t_edge in core
    recs = verify_approx(res, ambient, 4, 1)
    assert verdicts(recs, "approx-coverage") == ["pass"]
    assert set(verdicts(recs, "approx-core-spread")) == {"pass"}
    assert verdicts(recs, "approx-conservation") == ["pass"]
    # every core contains the anchor edge
    assert verdicts(recs, "approx-cores-t-intersect") == ["pass"]


def test_minimize_examples():
    u = PlainUniverse(4)
    s = family_of(4, {0, 1}, {0, 2})
    out = minimize_t_intersecting(s, 1, 2)
    assert list(out.masks) == [0b0001]
    tri = family_of(4, {0, 1}, {1, 2}, {0, 2})
    assert set(minimize_t_intersecting(tri, 1, 2).masks) == set(tri.masks)
    single = family_of(4, {0, 1})
    assert minimize_t_intersecting(single, 2, 3).masks == single.masks
    with pytest.raises(PreconditionError):
        minimize_t_intersecting(family_of(4, {0}, {1}), 1, 2)
    with pytest.raises(PreconditionError):
        minimize_t_intersecting(family_of(4, {0, 1, 2}), 1, 2)


def test_minimize_fixpoint_property():
    rnd = random.Random(13)
    for _ in range(20):
        base = {rnd.randrange(3)}  # common element keeps things 1-intersecting
        members = set()
        while len(members) < rnd.randint(2, 6):
            members.add(
                frozenset(base | {rnd.randrange(8) for _ in range(rnd.randint(0, 3))})
            )
        s = family_of(8, *members)
        t = 1
        out = minimize_t_intersecting(s, t, 8)
        masks = list(out.masks)
        # for every member and proper subset X, some member T' has |X ∩ T'| < t;
        # checking maximal proper subsets suffices (intersections only shrink),
        # and subsets below size t are broken by the member itself
        for m in masks:
            for i in range(8):
                if not (m >> i) & 1:
                    continue
                x = m & ~(1 << i)
                if x.bit_count() < t:
                    continue
                assert any((x & o).bit_count() < t for o in masks)
        # star coverage never shrinks
        amb = ksubsets_family(8, 3)
        from partspread.setfam import stars

        before = stars(amb, s.members())
        after = stars(amb, out.members())
        assert set(before.masks).issubset(set(after.masks))


def test_reduction_sequence_trivial():
    u = PlainUniverse(3)
    s = family_of(3, {0})
    a = ksubsets_family(3, 2)
    levels, recs = reduction_sequence(a, s, 1, 1)
    (t0, w0) = levels[0]
    assert t0.masks == (0b001,)
    assert w0.masks == (0b001,)
    assert all(r.verdict != "fail" for r in recs)


def test_reduction_sequence_triangle():
    tri = family_of(4, {0, 1}, {1, 2}, {0, 2})
    a = ksubsets_family(4, 2)
    levels, recs = reduction_sequence(a, tri, 2, 1)
    (t0, w0), (t1, w1) = levels
    assert set(t0.masks) == set(tri.masks)
    assert set(w0.masks) == set(tri.masks)
    assert t1.size == 0
    assert all(r.verdict != "fail" for r in recs)
    (w_rec,) = select(recs, "reduction-w-size", i=0)
    assert w_rec.lhs == "3" and w_rec.rhs == "12"


def test_reduction_sequence_after_minimize():
    # {{0,1},{0,2},{0,3},{0}} is not minimization-stable; after minimize it
    # becomes {{0}} and the sequence is the trivial one
    fam = family_of(4, {0, 1}, {0, 2}, {0, 3}, {0})
    out = minimize_t_intersecting(fam, 1, 2)
    assert list(out.masks) == [0b0001]
    a = ksubsets_family(4, 2)
    levels, recs = reduction_sequence(a, out, 2, 1)
    assert all(r.verdict != "fail" for r in recs)


def test_reduction_sequence_multilevel():
    # all 4-subsets of [5] are 2-intersecting; minimization and the level
    # construction exercise several nontrivial steps
    u = PlainUniverse(5)
    full = (1 << 5) - 1
    s = SetFamily(u, [full & ~(1 << i) for i in range(5)])
    a = ksubsets_family(5, 4)
    levels, recs = reduction_sequence(a, s, 4, 2)
    assert all(r.verdict != "fail" for r in recs)
    assert len(levels) == 3  # i = 0, 1, 2
    for i, (t_i, w_i) in enumerate(levels):
        assert all(m.bit_count() <= 4 - i for m in t_i.masks)
        assert all(m.bit_count() == 4 - i for m in w_i.masks)


def test_forbidden_restriction_detector():
    from partspread.approx import _forbidden_restriction_exists

    # two disjoint pairs restricted at X = {} are 2^(1/2)-spread > 1
    fam = family_of(4, {0, 1}, {2, 3})
    found, _ = _forbidden_restriction_exists(fam, 1)
    assert found is True
    # a single-member family has no qualifying subfamily
    found, _ = _forbidden_restriction_exists(family_of(4, {0, 1}), 1)
    assert found is False
    # guard exhaustion reports None (skipped)
    big = ksubsets_family(10, 5)
    with guards.limited(subfamily_scan_max=10):
        found, _ = _forbidden_restriction_exists(big, 2)
    assert found is None


def test_candidate_guard_skips_scans():
    from partspread.approx import _forbidden_restriction_exists

    with guards.limited(spread_candidate_max=10):
        # 6 pairs have 24 candidate sets: the reduction scan is skipped, not run
        assert _forbidden_restriction_exists(ksubsets_family(4, 2), 1) == (None, 0)
        # the ambient r0-spreadness gate is skipped; the small core checks still run
        f = family_of(5, {0, 1}, {0, 2})
        res = spread_approximate(f, 2, 2)
        recs = verify_approx(res, ksubsets_family(5, 2), 4, 1)
        assert verdicts(recs, "approx-gate", gate="gate-ambient-r0-spread") == ["skipped"]
        with pytest.raises(ResourceLimitError, match="SPREAD_CANDIDATE_MAX"):
            check_dominance(ksubsets_family(5, 2), family_of(5, {0, 1}), 1, 1)


def test_reduction_sequence_preconditions():
    a = ksubsets_family(4, 2)
    with pytest.raises(PreconditionError):
        reduction_sequence(a, family_of(4, {0}, {1}), 2, 1)
    with pytest.raises(PreconditionError):
        reduction_sequence(a, family_of(4, {0, 1, 2}), 2, 1)
    with pytest.raises(PreconditionError):
        reduction_sequence(SetFamily(PlainUniverse(4), []), family_of(4, {0}), 1, 1)


EMPTY_S_RECORDS = {
    (2, 1): """\
reduction-size-cap	i=0	0	2	2	pass
reduction-no-spread-subfamily	i=0,bound=2,scanned=0	-	-	-	pass
reduction-w-size	i=0	0	12	12	pass
reduction-star-coverage	i=1	0	0	-	pass
reduction-size-cap	i=1	0	1	1	pass
reduction-no-spread-subfamily	i=1,bound=1,scanned=0	-	-	-	pass
reduction-w-size	i=1	0	1	1	pass
reduction-star-coverage	i=2	0	0	-	pass
""",
    (3, 1): """\
reduction-size-cap	i=0	0	3	3	pass
reduction-no-spread-subfamily	i=0,bound=3,scanned=0	-	-	-	pass
reduction-w-size	i=0	0	324	324	pass
reduction-star-coverage	i=1	0	0	-	pass
reduction-size-cap	i=1	0	2	2	pass
reduction-no-spread-subfamily	i=1,bound=2,scanned=0	-	-	-	pass
reduction-w-size	i=1	0	12	12	pass
reduction-star-coverage	i=2	0	0	-	pass
reduction-size-cap	i=2	0	1	1	pass
reduction-no-spread-subfamily	i=2,bound=1,scanned=0	-	-	-	pass
reduction-w-size	i=2	0	1	1	pass
reduction-star-coverage	i=3	0	0	-	pass
""",
    (3, 2): """\
reduction-size-cap	i=0	0	3	3	pass
reduction-no-spread-subfamily	i=0,bound=2,scanned=0	-	-	-	pass
reduction-w-size	i=0	0	18	18	pass
reduction-star-coverage	i=1	0	0	-	pass
reduction-size-cap	i=1	0	2	2	pass
reduction-no-spread-subfamily	i=1,bound=1,scanned=0	-	-	-	pass
reduction-w-size	i=1	0	1	1	pass
reduction-star-coverage	i=2	0	0	-	pass
""",
}


@pytest.mark.parametrize("q,t", sorted(EMPTY_S_RECORDS))
def test_reduction_sequence_empty_family(q, t):
    a = ksubsets_family(5, 3)
    levels, recs = reduction_sequence(a, SetFamily(a.universe, []), q, t)
    assert [(t_i.size, w_i.size) for t_i, w_i in levels] == [(0, 0)] * (q - t + 1)
    assert records_to_text(recs) == EMPTY_S_RECORDS[q, t]


def test_reduction_sequence_empty_family_needs_t():
    a = ksubsets_family(5, 3)
    with pytest.raises(DomainError, match="needs t >= 1"):
        reduction_sequence(a, SetFamily(a.universe, []), 2, 0)


def test_dominance_example():
    a = ksubsets_family(5, 2)
    tri = family_of(5, {0, 1}, {1, 2}, {0, 2})
    recs = check_dominance(a, tri, 1, Fraction(1, 2))
    (dom,) = select(recs, "dominance")
    assert "trivial=true" not in dom.params.split(",")
    assert dom.lhs == "3"
    assert dom.rhs == "2"
    # the conclusion fails, and is reported as info because the gate fails
    assert dom.margin == "-1" and dom.verdict == "info"
    assert verdicts(recs, "dominance-gate") == ["gated"]  # eps*r = 2 < 24q = 48


def test_dominance_scans_once():
    # T, |A[T]| and the weak factor all come from one candidate-count scan
    a = ksubsets_family(5, 2)
    tri = family_of(5, {0, 1}, {1, 2}, {0, 2})
    scan = mock.Mock(wraps=spread.candidate_counts)
    with (
        mock.patch.object(spread, "candidate_counts", scan),
        mock.patch.object(approx, "candidate_counts", scan),
    ):
        recs = check_dominance(a, tri, 1, Fraction(1, 2))
    assert scan.call_count == 1
    (dom,) = select(recs, "dominance")
    assert "T={0}" in dom.params.split(",") and dom.rhs == "2"
    with pytest.raises(DomainError, match=r"^check_dominance needs t >= 1$"):
        check_dominance(a, tri, 0, Fraction(1, 2))
    with pytest.raises(DomainError, match="no member of the ambient family has size >= 3"):
        check_dominance(a, family_of(5, {0, 1, 2}), 3, Fraction(1, 2))


def test_dominance_trivial_family():
    a = ksubsets_family(5, 2)
    s = family_of(5, {0, 1}, {0, 1, 2})
    with pytest.raises(PreconditionError):
        # {0,1,2} and {0,1} 2-intersect but {0,1} with itself needs size >= 2: fine;
        # this family is 2-intersecting, so use t=2 to hit the trivial branch
        check_dominance(a, family_of(5, {0}, {1}), 1, Fraction(1, 2))
    recs = check_dominance(a, s, 2, Fraction(1, 2))
    # trivial: no comparison is claimed and no gate is evaluated
    assert [(r.name, r.verdict) for r in recs] == [("dominance", "skipped")]
    assert "trivial=true" in recs[0].params.split(",")


def test_dominance_edge_encoded_star():
    # ambient: edge-encoded uniform (2,4); s = the single anchor edge is a
    # trivial family, so no claim is made, but the counts are reported and
    # the star of s matches the best single-edge star
    universe = enumerate_uniform(2, 4)
    u, ambient = encode_family_edges(universe)
    t_edge = u.index_of((1, 2))
    s = SetFamily(u, [1 << t_edge])
    (dom,) = select(check_dominance(ambient, s, 1, 1), "dominance", trivial="true")
    from partspread.setfam import star_count

    best = max(star_count(ambient, ElementSet(u, 1 << i)) for i in range(u.size))
    assert dom.lhs == str(best)
    # non-trivial variant: two disjoint anchor edges both below a best star
    s2 = SetFamily(u, [1 << t_edge, 1 << u.index_of((3, 4))])
    with pytest.raises(PreconditionError):
        check_dominance(ambient, s2, 1, 1)  # they do not 1-intersect


def test_dominance_star_equals_best():
    universe = enumerate_uniform(2, 4)
    u, ambient = encode_family_edges(universe)
    t_edge = u.index_of((1, 2))
    s = SetFamily(u, [1 << t_edge])
    # compare |A[S]| against |A[T]| directly: s is itself a best 1-set star
    from partspread.setfam import star_count, stars

    lhs = stars(ambient, s.members()).size
    best = max(
        star_count(ambient, ElementSet(u, 1 << i)) for i in range(u.size)
    )
    assert lhs == best

"""End-to-end run of the whole machinery on a canonical star family.

All partitions of [6] sharing the singleton block {1} form a 1-intersecting
family inside the parts-encoded ambient family of all partitions; peeling,
verification, minimization and the dominance comparison are exercised in
sequence the way the pieces are meant to compose.
"""

from fractions import Fraction

from conftest import element_set, select
from partspread.approx import (
    check_dominance,
    minimize_t_intersecting,
    reduction_sequence,
    spread_approximate,
    verify_approx,
)
from partspread.encoding import encode_family_parts
from partspread.partitions import bell, enumerate_partitions
from partspread.setfam import SetFamily, star_count


def test_star_family_pipeline():
    parts = enumerate_partitions(6)
    u, ambient = encode_family_parts(parts)
    assert ambient.size == bell(6) == 203
    anchor = u.index_of(frozenset({1}))
    fam = SetFamily(u, [m for m in ambient.masks if (m >> anchor) & 1])
    assert fam.size == bell(5) == 52

    r = 3
    res = spread_approximate(fam, r, 6)
    assert res.remainder.size == 0  # member sizes <= 6 = q, so no oversized stop
    recs = verify_approx(res, ambient, 4, 1)
    assert [rec.verdict for rec in select(recs, "approx-coverage")] == ["pass"]
    assert all(rec.verdict == "pass" for rec in select(recs, "approx-core-spread"))
    assert [rec.verdict for rec in select(recs, "approx-conservation")] == ["pass"]
    # every member contains the anchor part, so the greedy violator starts
    # there and every core carries it; the cores pairwise 1-intersect even
    # though the spreadness gates fail at this scale
    for core in res.cores:
        assert anchor in core
    assert [rec.verdict for rec in select(recs, "approx-cores-t-intersect")] == ["pass"]

    cores = SetFamily(u, [c.mask for c in res.cores])
    minimized = minimize_t_intersecting(cores, 1, 6)
    assert list(minimized.masks) == [1 << anchor]

    # the anchor star is the largest single-part star in the ambient family
    # one t-set: nothing is claimed, counts reported
    dom_recs = check_dominance(ambient, minimized, 1, Fraction(1, 2))
    (dom,) = select(dom_recs, "dominance", trivial="true")
    assert int(dom.lhs) == star_count(ambient, element_set(minimized, [anchor])) == 52

    levels, recs = reduction_sequence(ambient, minimized, 1, 1)
    assert all(rec.verdict != "fail" for rec in recs)
    t0, w0 = levels[0]
    assert list(t0.masks) == [1 << anchor]

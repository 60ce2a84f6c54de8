"""Acceptance suite: one criterion per test, one pass/fail line printed each.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
complete; each test enforces its stated tolerance and runtime budget.
"""

import functools
import random
import time
from collections import Counter
from fractions import Fraction

from conftest import enumerate_uniform, family_of, has_singleton, ksubsets_family, select
from partspread.approx import (
    minimize_t_intersecting,
    reduction_sequence,
    spread_approximate,
    verify_approx,
)
from partspread.cli import main as cli_main
from partspread.encoding import encode_family_edges, encode_family_parts
from partspread.exact import ExactPow
from partspread.extremal import (
    canonical_family,
    check_conjecture_instance,
    max_compatible_family,
)
from partspread.partitions import (
    Profile,
    bell,
    count_profiled,
    enumerate_into_blocks,
    enumerate_partitions,
    iter_partitions,
    partially_t_intersect,
    stirling2,
    t_intersect,
    tilde_bell,
    u_count,
)
from partspread.setfam import PlainUniverse, SetFamily, restrict
from partspread.spread import find_max_violating, is_r_spread, spread_factor
from partspread.verify import (
    check_bell_ratio,
    check_dobinski,
    check_encoded_spreadness,
    check_nonintersect_count,
    check_random_containment,
    containment_closed_form,
)


def _criterion(num, desc):
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {num:>2}: FAIL  {desc}")
                raise
            print(f"ACCEPTANCE {num:>2}: PASS  {desc}")

        return inner

    return wrap


@_criterion(1, "enumeration/count consistency (n <= 11; no-singleton n <= 12)")
def test_criterion_01_enumeration_consistency():
    t0 = time.time()
    for n in range(0, 12):
        block_counts = Counter()
        profiles = Counter()
        no_singleton = 0
        total = 0
        for p in enumerate_partitions(n):
            total += 1
            block_counts[p.num_blocks] += 1
            profiles[p.profile()] += 1
            if not has_singleton(p):
                no_singleton += 1
        assert total == bell(n)
        assert no_singleton == tilde_bell(n)
        for l, c in block_counts.items():
            assert c == stirling2(n, l)
        for prof, c in profiles.items():
            assert c == count_profiled(prof)
    # n = 12: no-singleton filter over the production enumeration
    count12 = 0
    no_singleton12 = 0
    for p in iter_partitions(12):
        count12 += 1
        if not has_singleton(p):
            no_singleton12 += 1
    assert count12 == bell(12)
    assert no_singleton12 == tilde_bell(12)
    elapsed = time.time() - t0
    assert elapsed < 60, f"criterion 1 took {elapsed:.1f}s"


@_criterion(2, "Bell-ratio sweep 2 <= n <= 500 with conservative log bounds")
def test_criterion_02_bell_ratio():
    t0 = time.time()
    rep = check_bell_ratio(500)
    assert rep.verdict == "pass"
    assert len(rep.points) == 499
    elapsed = time.time() - t0
    assert elapsed < 30, f"criterion 2 took {elapsed:.1f}s"


@_criterion(3, "explicit Bell series: relative error <= 1e-9 for n <= 20")
def test_criterion_03_dobinski():
    for n in range(0, 21):
        rep = check_dobinski(n, n + 100)
        assert rep.verdict == "pass", f"n={n}"


@_criterion(4, "Stirling growth inequality on all gated points, l <= 6, n <= 200")
def test_criterion_04_stirling_growth():
    rep = check_encoded = None
    from partspread.verify import check_stirling_growth

    rep = check_stirling_growth(6, 200)
    assert rep.verdict == "pass"
    # gated points exist and none of the in-gate points fail
    assert any(p.verdict == "gated" for p in rep.points)
    assert all(p.verdict in ("pass", "gated") for p in rep.points)


@_criterion(5, "spread engine exactness and maximal-violator post-condition")
def test_criterion_05_spread_engine():
    rep = spread_factor(ksubsets_family(4, 2))
    assert rep.r_star == 2  # exactly
    u5, fam5 = encode_family_parts(enumerate_partitions(5))
    rep5 = spread_factor(fam5)
    assert rep5.r_star == ExactPow(52, Fraction(1, 5))
    witness_parts = [u5.part_at(i) for i in rep5.witness.indices()]
    assert sorted(map(sorted, witness_parts)) == [[1], [2], [3], [4], [5]]
    # 100 randomized peeling runs over subfamilies of encoded B_6, fixed seed
    u6, fam6 = encode_family_parts(enumerate_partitions(6))
    rnd = random.Random(2024)
    ratios = [Fraction(3, 2), 2, Fraction(5, 2), 3, 4, Fraction(7, 2)]
    for _ in range(100):
        sub = SetFamily(u6, rnd.sample(fam6.masks, rnd.randint(2, 30)))
        r = rnd.choice(ratios)
        x = find_max_violating(sub, r)
        ok, _ = is_r_spread(restrict(sub, x), r)
        assert ok


@_criterion(6, "peeling guarantees: coverage, core spreadness, conservation, cores t-intersect under gates")
def test_criterion_06_peeling_guarantees():
    corpus = []
    # canonical partial family inside edge-encoded uniform (2,4), t' = 1
    universe, members = canonical_family("partial", t=2, profile=Profile.uniform(2, 4))
    ue, ambient = encode_family_edges(universe)
    keep = set(p for p in members)
    sub_masks = [m for p, m in zip(universe, ambient.masks) if p in keep]
    corpus.append((SetFamily(ue, sub_masks), ambient, 2, 4, 4, 1))
    # assorted plain families
    corpus.append((family_of(4, {0, 1}, {0, 2}, {0, 3}),) * 2 + (2, 4, 2, 1))
    corpus.append((family_of(3, {1}),) * 2 + (2**13, 2**14, 1, 1))
    star = family_of(8, *[{0, i} for i in range(1, 8)])
    corpus.append((star, star, 2**13 + 1, 2**14, 2, 1))
    for f, a, r, r0, q, t in corpus:
        res = spread_approximate(f, r, q)
        recs = verify_approx(res, a, r0, t)
        assert [rec.verdict for rec in select(recs, "approx-coverage")] == ["pass"]
        assert all(rec.verdict == "pass" for rec in select(recs, "approx-core-spread"))
        assert [rec.verdict for rec in select(recs, "approx-conservation")] == ["pass"]
        gates = ("gate-r-vs-log", "gate-r-vs-2q", "gate-r0-vs-r")
        if all(select(recs, "approx-gate", gate=g)[0].verdict == "pass" for g in gates):
            assert [rec.verdict for rec in select(recs, "approx-cores-t-intersect")] == ["pass"]
    # the canonical-family run keeps the anchor edge in every core
    f, a = corpus[0][0], corpus[0][1]
    res = spread_approximate(f, 2, 4)
    t_edge = ue.index_of((1, 2))
    assert res.remainder.size == 0
    for core in res.cores:
        assert t_edge in core


@_criterion(7, "reduction machinery: triangle trace and minimization example")
def test_criterion_07_reduction():
    tri = family_of(4, {0, 1}, {1, 2}, {0, 2})
    ambient = ksubsets_family(4, 2)
    levels, recs = reduction_sequence(ambient, tri, 2, 1)
    (t0_, w0), (t1, _) = levels
    assert set(w0.masks) == set(tri.masks)
    assert t1.size == 0
    (wrec,) = select(recs, "reduction-w-size", i=0)
    assert wrec.lhs == "3" and wrec.rhs == "12" and wrec.verdict == "pass"
    assert all(rec.verdict != "fail" for rec in recs)
    out = minimize_t_intersecting(family_of(4, {0, 1}, {0, 2}), 1, 2)
    assert list(out.masks) == [0b0001]


@_criterion(8, "extremal oracles at the catalog instances, canonical cliques verified")
def test_criterion_08_extremal_oracles():
    t0 = time.time()
    for l, size in [(2, 1), (3, 3), (4, u_count(2, 3))]:
        (conj,) = select(check_conjecture_instance(2, l, 2), "conjecture")
        assert conj.lhs == conj.rhs == str(size) and conj.verdict == "pass"
    recs25 = check_conjecture_instance(2, 5, 2)
    (conj,) = select(recs25, "conjecture")
    assert conj.lhs == conj.rhs and conj.verdict == "pass"
    (uniq,) = select(recs25, "conjecture-uniqueness", maximum_cliques=45)
    assert uniq.verdict == "pass"
    res = max_compatible_family(enumerate_partitions(3), "t-intersect", 1)
    assert res.max_size == 2 == bell(2)
    for n, l in [(5, 3), (6, 3)]:
        res = max_compatible_family(enumerate_into_blocks(n, l), "t-intersect", l - 1)
        assert res.max_size == 1
    # canonical families are cliques (checked inside canonical_family too)
    for spec, pred, t in [
        (dict(setting="bell", n=5, t=2), t_intersect, 2),
        (dict(setting="partial", profile=Profile.uniform(2, 4), t=2), partially_t_intersect, 2),
    ]:
        _, fam = canonical_family(**spec)
        for i, p in enumerate(fam):
            for q_ in fam[i + 1 :]:
                assert pred(p, q_, t)
    elapsed = time.time() - t0
    assert elapsed < 300, f"criterion 8 took {elapsed:.1f}s"


@_criterion(9, "non-intersect lemma sweep at (2,3,2) and (3,3,2)")
def test_criterion_09_nonintersect():
    t0 = time.time()
    for k, l, t in [(2, 3, 2), (3, 3, 2)]:
        tf = frozenset(range(1, t + 1))
        outside = [
            p
            for p in enumerate_uniform(k, l)
            if not any(tf.issubset(b) for b in p.blocks)
        ]
        assert outside
        for y in outside:
            rep = check_nonintersect_count(k, l, t, tuple(sorted(tf)), y)
            assert rep.verdict == "pass", repr(y)
    elapsed = time.time() - t0
    assert elapsed < 120, f"criterion 9 took {elapsed:.1f}s"


@_criterion(10, "random-subset containment: MC within 3 sigma of closed form, verdicts as specified")
def test_criterion_10_containment():
    cases = [
        # (n singletons, r, m, delta, expected verdict)
        (16, 16, 2, Fraction(1, 4), "vacuous"),
        (4096, 4096, 3, Fraction(1, 64), "pass"),
        (4096, 4096, 4, Fraction(1, 64), "pass"),
    ]
    for n, r, m, delta, expected in cases:
        fam = SetFamily(PlainUniverse(n), [1 << i for i in range(n)])
        rep = check_random_containment(fam, r, m, delta, 10**4, 1234)
        assert rep.verdict == expected, (n, m, delta, rep.verdict)
        closed = containment_closed_form(fam, m, delta)
        est = Fraction(
            [p for p in rep.points if "closed-form" in p.params][0].lhs
        )
        sigma_sq = closed * (1 - closed) / 10**4
        assert (est - closed) ** 2 <= 9 * sigma_sq


@_criterion(11, "profiled star-count chain at l=600, t=100, s <= 300, exact factorials")
def test_criterion_11_profiled_chain():
    t0 = time.time()
    rep = check_encoded_spreadness(
        "profiled", profile=Profile((2,) * 600), t=100, s_max=300, mode="formula"
    )
    printed = [p for p in rep.points if "variant=printed" in p.params]
    assert len(printed) == 300
    assert all(p.verdict == "pass" for p in printed)
    corrected = [p for p in rep.points if "variant=corrected" in p.params]
    # either both conventions pass or the head reads finding
    if not all(p.verdict == "pass" for p in corrected):
        assert rep.verdict == "finding"
    elapsed = time.time() - t0
    assert elapsed < 120, f"criterion 11 took {elapsed:.1f}s"


@_criterion(12, "CLI determinism: byte-identical reports on rerun with the same seed")
def test_criterion_12_cli_determinism(tmp_path, capsys):
    invocations = [
        ["count", "bell", "--n", "10"],
        ["extremal", "conjecture", "--k", "2", "--l", "3", "--t", "2"],
        ["verify", "bell-ratio", "--n-max", "60"],
        ["verify", "stirling-growth", "--l-max", "3", "--n-cap", "60"],
        ["spread", "factor", "--family", "bell:5"],
        ["verify", "containment", "--family", "bell:3", "--r", "1", "--m", "1",
         "--delta", "1/2", "--trials", "10000", "--seed", "3"],
        ["approximate", "--family", "ct:2,4,2", "--ambient", "kl:2,4",
         "--r", "2", "--q", "4", "--r0", "4", "--t", "1"],
        ["verify", "nonintersect", "--k", "2", "--l", "3", "--t", "2",
         "--t-set", "1,2", "--y", "1,3|2,4|5,6"],
    ]
    for i, argv in enumerate(invocations):
        outs = []
        for rerun in range(2):
            path = tmp_path / f"run{i}_{rerun}.txt"
            code = cli_main(argv + ["--out", str(path), "--format", "structured-records"])
            capsys.readouterr()
            assert code == 0, argv
            outs.append(path.read_bytes())
        assert outs[0] == outs[1], argv

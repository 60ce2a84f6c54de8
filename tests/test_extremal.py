import random
from collections import Counter
from itertools import combinations

import pytest

from conftest import enumerate_uniform, select
from partspread import extremal, guards
from partspread.cli import main
from partspread.errors import DomainError, IntegrityError, ResourceLimitError
from partspread.extremal import (
    canonical_family,
    check_conjecture_instance,
    has_block_containing,
    max_compatible_family,
    run_catalog,
)
from partspread.partitions import (
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


def test_canonical_bell_setting():
    _, fam = canonical_family("bell", n=5, t=2)
    assert len(fam) == bell(3) == 5
    for p in fam:
        assert (1,) in p.blocks and (2,) in p.blocks


def test_canonical_blocks_setting():
    _, fam = canonical_family("blocks", n=6, l=4, t=2)
    assert len(fam) == stirling2(4, 2) == 7


def test_canonical_profiled_setting():
    _, fam = canonical_family("profiled", t=1, profile=Profile((2, 2, 3)))
    assert len(fam) == count_profiled(Profile((2, 3)))
    anchor = (1, 2)
    assert all(anchor in p.blocks for p in fam)


def test_canonical_partial_setting():
    _, fam = canonical_family("partial", t=2, profile=Profile.uniform(2, 3))
    assert len(fam) == 3
    _, fam = canonical_family("partial", t=2, profile=Profile.uniform(3, 3))
    assert len(fam) == 70  # C(7,1) * u(3,2)


def test_canonical_partial_nonuniform_profile():
    # T inside the 2-block forces the rest; T inside the 3-block leaves
    # 3 choices for its third element: 1 + 3 = 4
    universe, fam = canonical_family("partial", t=2, profile=Profile((2, 3)))
    assert len(fam) == 4
    assert universe == enumerate_profiled(Profile((2, 3)))
    tf = frozenset({1, 2})
    assert fam == [p for p in universe if any(tf.issubset(b) for b in p.blocks)]


def test_canonical_families_are_cliques():
    cases = [
        (dict(setting="bell", n=5, t=2), t_intersect, 2),
        (dict(setting="blocks", n=5, l=3, t=1), t_intersect, 1),
        (dict(setting="partial", profile=Profile.uniform(2, 3), t=2), partially_t_intersect, 2),
        (dict(setting="profiled", profile=Profile((1, 2, 2)), t=1), t_intersect, 1),
    ]
    for spec, pred, t in cases:
        _, fam = canonical_family(**spec)
        for i, p in enumerate(fam):
            for q in fam[i + 1 :]:
                assert pred(p, q, t)


def _profiles(n: int, smallest: int = 1):
    """Every non-decreasing tuple of positive sizes summing to n."""
    if n == 0:
        yield ()
    for k in range(smallest, n + 1):
        for rest in _profiles(n - k, k):
            yield (k,) + rest


def _anchor_filter(universe, sizes):
    anchors = set(extremal._default_anchors(sizes))
    return [p for p in universe if anchors <= set(p.blocks)]


def test_canonical_matches_anchor_subset_filter():
    # reference: the direct enumeration, whose members must contain every
    # anchor block, in any position
    for n in range(1, 8):
        universe = enumerate_partitions(n)
        for t in range(n + 1):
            got = canonical_family("bell", n=n, t=t)
            assert got == (universe, _anchor_filter(universe, [1] * t))
        for l in range(1, n + 1):
            universe = enumerate_into_blocks(n, l)
            for t in range(l + 1):
                got = canonical_family("blocks", n=n, l=l, t=t)
                assert got == (universe, _anchor_filter(universe, [1] * t))
        for sizes in _profiles(n):
            universe = enumerate_profiled(Profile(sizes))
            for t in range(len(sizes) + 1):
                got = canonical_family("profiled", t=t, profile=Profile(sizes))
                assert got == (universe, _anchor_filter(universe, sizes[:t]))


def test_canonical_anchor_validation():
    with pytest.raises(DomainError):
        canonical_family("partial", profile=Profile.uniform(2, 2), t_set=(1, 2, 3))
    with pytest.raises(DomainError):
        canonical_family("nonsense")


def test_oracle_uniform_2_2():
    res = max_compatible_family(
        enumerate_uniform(2, 2), "partially-t-intersect", 2
    )
    assert res.max_size == 1


def test_oracle_uniform_2_3():
    res = max_compatible_family(
        enumerate_uniform(2, 3), "partially-t-intersect", 2
    )
    assert res.max_size == 3 == u_count(2, 2)
    # the witness really is pairwise compatible
    for i, p in enumerate(res.witness):
        for q in res.witness[i + 1 :]:
            assert partially_t_intersect(p, q, 2)


def test_oracle_bell_3():
    res = max_compatible_family(enumerate_partitions(3), "t-intersect", 1)
    assert res.max_size == 2 == bell(2)


def test_oracle_blocks_t_one_less():
    for n, l in [(5, 3), (5, 4), (6, 3)]:
        res = max_compatible_family(
            enumerate_into_blocks(n, l), "t-intersect", l - 1
        )
        assert res.max_size == 1


def test_oracle_vertex_order_invariance():
    base = enumerate_uniform(2, 3)
    expect = max_compatible_family(base, "partially-t-intersect", 2).max_size
    for seed in (1, 2, 3):
        rnd = random.Random(seed)
        shuffled = list(base)
        rnd.shuffle(shuffled)
        got = max_compatible_family(shuffled, "partially-t-intersect", 2).max_size
        assert got == expect


def test_oracle_at_least_canonical():
    for k, l, t in [(2, 2, 2), (2, 3, 2), (3, 2, 2), (3, 2, 3)]:
        universe, fam = canonical_family("partial", t=t, profile=Profile.uniform(k, l))
        res = max_compatible_family(universe, "partially-t-intersect", t)
        assert res.max_size >= len(fam)


def test_oracle_guard():
    with pytest.raises(ResourceLimitError, match="CLIQUE_VERTEX_MAX"):
        with guards.limited(clique_vertex_max=10):
            max_compatible_family(enumerate_uniform(2, 3), "partially-t-intersect", 2)
    with pytest.raises(DomainError):
        max_compatible_family(enumerate_uniform(2, 2), "nonsense", 2)


def test_oracle_validates_before_building():
    # the predicates' own messages, also for universes with no pair to test
    for n in (1, 2):
        with pytest.raises(DomainError, match="partially_t_intersect needs t >= 1"):
            max_compatible_family(enumerate_partitions(n), "partially-t-intersect", 0)
        with pytest.raises(DomainError, match="t_intersect needs t >= 0"):
            max_compatible_family(enumerate_partitions(n), "t-intersect", -1)
    mixed = enumerate_partitions(2) + enumerate_partitions(3)
    for predicate in ("t-intersect", "partially-t-intersect"):
        with pytest.raises(DomainError, match="different ground sets"):
            max_compatible_family(mixed, predicate, 1)


def test_oracle_large_blocks_and_t():
    # the graph is built from blocks and elements, never from t-subsets:
    # C(29, 14) is about 7.8e7
    res = max_compatible_family(enumerate_profiled(Profile((1, 29))), "partially-t-intersect", 14)
    assert res.max_size == 30
    for predicate in ("t-intersect", "partially-t-intersect"):
        res = max_compatible_family(enumerate_partitions(4), predicate, 10**12)
        assert (res.max_size, res.nodes) == (1, 1)


def test_conjecture_instances_small():
    recs = check_conjecture_instance(2, 3, 2)
    (conj,) = select(recs, "conjecture")
    assert conj.verdict == "pass" and conj.lhs == conj.rhs == "3"
    (uniq,) = select(recs, "conjecture-uniqueness")
    assert uniq.verdict == "pass"
    recs = check_conjecture_instance(2, 2, 2)
    (conj,) = select(recs, "conjecture")
    assert conj.verdict == "pass" and conj.lhs == conj.rhs == "1"
    (uniq,) = select(recs, "conjecture-uniqueness")
    assert uniq.verdict == "pass"


def test_conjecture_t1_trivial():
    recs = check_conjecture_instance(2, 3, 1)
    (conj,) = select(recs, "conjecture", t=1)
    assert conj.verdict == "skipped" and conj.lhs == str(u_count(2, 3))
    (note,) = select(recs, "conjecture-note")
    assert note.margin == "any two partitions partially 1-intersect"
    assert len(recs) == 2


def test_catalog_partial_lines_match_the_conjecture_check():
    # the catalog skips the uniqueness search but prints the same sizes
    instances = [(2, 2, 2), (2, 3, 2), (2, 3, 1), (2, 4, 2), (3, 2, 2)]
    text = "".join(f"partial {k} {l} {t} -\n" for k, l, t in instances)
    for (k, l, t), line in zip(instances, run_catalog(text), strict=True):
        (conj,) = select(check_conjecture_instance(k, l, t), "conjecture")
        assert (line.lhs, line.rhs) == (conj.lhs, conj.rhs)
        assert line.params == f"setting=partial,k={k},l={l},t={t},n=-"


def test_each_universe_enumerated_once(monkeypatch):
    # count the calls of each enumerator made through extremal's namespace
    calls = Counter()
    for name in ("enumerate_partitions", "enumerate_into_blocks", "enumerate_profiled"):
        def counted(*args, _name=name, _real=getattr(extremal, name)):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(extremal, name, counted)
    for k, l, t in [(2, 3, 2), (2, 3, 1)]:
        check_conjecture_instance(k, l, t)
        assert calls == {"enumerate_profiled": 1}
        calls.clear()
    catalog = {
        "partial 2 3 2 -": "enumerate_profiled",
        "partial 2 3 1 -": "enumerate_profiled",
        "bell - - 2 5": "enumerate_partitions",
        "blocks - 3 1 5": "enumerate_into_blocks",
    }
    for line, enumerator in catalog.items():
        run_catalog(line)
        assert calls == {enumerator: 1}
        calls.clear()
    # a t out of range is refused before the universe of [9] is enumerated
    with pytest.raises(DomainError, match=r"need 0 <= t <= n"):
        run_catalog("bell - - 12 9")
    assert not calls


def test_conjecture_guards():
    with pytest.raises(ResourceLimitError):
        check_conjecture_instance(3, 4, 2)  # u(3,4) = 15400 > 3000
    with pytest.raises(DomainError):
        check_conjecture_instance(2, 3, 3)  # t > k


def test_closed_form_mismatch_is_integrity_error(monkeypatch):
    monkeypatch.setattr(extremal, "_partial_expected", lambda profile, t: 99)
    with pytest.raises(IntegrityError, match="closed form 99"):
        canonical_family("partial", t=2, profile=Profile.uniform(2, 3))
    # a failed self-check is a defect, so the CLI lets it propagate
    argv = ["extremal", "canonical", "--setting", "partial", "--profile", "2,2,2", "--t", "2"]
    with pytest.raises(IntegrityError, match="closed form 99"):
        main(argv)


BLOCKS_7_5_WITNESS = [
    30, 32, 33, 35, 36, 37, 39, 40, 41, 42, 56, 57, 59, 60, 61, 63, 64, 65, 66, 68, 69, 71,
    72, 73, 75, 76, 77, 78, 89, 90, 91, 93, 94, 95, 96, 98, 99, 100, 102, 103, 104, 105,
    107, 108, 109, 111, 112, 113, 114, 121, 122, 123, 124, 126, 127, 128, 129, 131, 132,
    133, 134, 136, 137, 138, 139,
]
BELL_7_WITNESS = [
    703, 704, 707, 708, 709, 722, 723, 724, 727, 728, 729, 732, 733, 734, 735, 800, 801,
    802, 805, 806, 807, 810, 811, 812, 813, 826, 827, 828, 831, 832, 833, 836, 837, 838,
    839, 854, 855, 856, 857, 860, 861, 862, 863, 866, 867, 868, 869, 872, 873, 874, 875, 876,
]


PINNED_INSTANCES = [
    (lambda: enumerate_uniform(2, 5), "partially-t-intersect", 2),
    (lambda: enumerate_into_blocks(7, 5), "t-intersect", 1),
    (lambda: enumerate_partitions(7), "t-intersect", 2),
]
PINNED_IDS = ["uniform-2-5", "blocks-7-5", "bell-7"]


@pytest.mark.parametrize(
    "instance, nodes, witness",
    zip(PINNED_INSTANCES, [1154, 6493, 17163],
        [list(range(840, 945)), BLOCKS_7_5_WITNESS, BELL_7_WITNESS]),
    ids=PINNED_IDS,
)
def test_oracle_nodes_pinned(instance, nodes, witness):
    # the plain search (no uniqueness cap, no orbits) visits exactly these
    # nodes and ends on this witness (vertex indices into the enumeration order)
    universe, predicate, t = instance
    members = universe()
    adj = extremal._adjacency(members, predicate, t)
    assert extremal._max_clique_masks(adj, len(members)) == (witness, nodes, None)


@pytest.mark.parametrize(
    "instance, size, nodes", zip(PINNED_INSTANCES, [105, 65, 52], [122, 830, 65]), ids=PINNED_IDS
)
def test_orbital_oracle_nodes_pinned(instance, size, nodes):
    # each universe is closed under relabelling, so the root branches on one
    # representative per shape orbit
    universe, predicate, t = instance
    members = universe()
    res = max_compatible_family(members, predicate, t)
    assert (res.max_size, res.nodes, res.all_maximum) == (size, nodes, None)
    pred = extremal.PREDICATES[predicate]
    assert all(pred(p, q, t) for p, q in combinations(res.witness, 2))


def test_universe_not_closed_takes_the_plain_search():
    # a subset missing one partition of its shape, and a closed universe with
    # one partition listed twice, both keep the plain root (rooted on the
    # shape classes, they would take 28 and 33 nodes)
    full = enumerate_into_blocks(6, 4)
    assert extremal._shape_orbits(full) is not None
    for universe in (full[1:], full + full[:1]):
        assert extremal._shape_orbits(universe) is None
        res = max_compatible_family(universe, "t-intersect", 1)
        adj = extremal._adjacency(universe, "t-intersect", 1)
        vertices, nodes, _ = extremal._max_clique_masks(adj, len(universe))
        assert (res.max_size, res.nodes) == (len(vertices), nodes)
        assert res.witness == [universe[i] for i in vertices]


def test_uniqueness_search_keeps_the_plain_root():
    # the capped search counts every maximum clique, so it takes no orbits
    (uniq,) = select(check_conjecture_instance(2, 4, 2), "conjecture-uniqueness")
    assert uniq.params == "k=2,l=4,t=2,maximum_cliques=28" and uniq.verdict == "pass"
    universe = enumerate_uniform(2, 4)
    res = max_compatible_family(universe, "partially-t-intersect", 2, enumerate_all=True)
    adj = extremal._adjacency(universe, "partially-t-intersect", 2)
    capped = extremal._max_clique_masks(adj, len(universe), guards.current().clique_unique_max)
    assert (res.nodes, res.all_maximum) == capped[1:] and len(capped[2]) == 28


def test_uniqueness_cap_boundary():
    # (2,4,2) has 28 maximum cliques: a cap of 27 gives up, 28 verifies
    with guards.limited(clique_unique_max=27):
        recs = check_conjecture_instance(2, 4, 2)
    (conj,) = select(recs, "conjecture")
    assert conj.verdict == "pass" and conj.lhs == conj.rhs
    (uniq,) = select(recs, "conjecture-uniqueness")
    assert uniq.verdict == "skipped" and uniq.margin == "uniqueness unverified"
    with guards.limited(clique_unique_max=28):
        recs = check_conjecture_instance(2, 4, 2)
    (uniq,) = select(recs, "conjecture-uniqueness", maximum_cliques=28)
    assert uniq.verdict == "pass"


def _canonical_witness_keys(k, l, t, universe):
    """Vertex-index sets of every canonical family C^T inside the universe,
    one scan of the universe per t-set T: the reference for the meet test."""
    keys = set()
    for t_set in combinations(range(1, k * l + 1), t):
        tf = frozenset(t_set)
        keys.add(frozenset(i for i, p in enumerate(universe) if has_block_containing(p, tf)))
    return keys


@pytest.mark.parametrize("k, l, t", [(2, 3, 2), (2, 4, 2), (2, 5, 2), (3, 2, 3), (4, 2, 3)])
def test_meet_test_against_the_canonical_key_walk(k, l, t):
    universe = enumerate_uniform(k, l)
    keys = _canonical_witness_keys(k, l, t, universe)
    (size,) = {len(key) for key in keys}
    res = max_compatible_family(universe, "partially-t-intersect", t, enumerate_all=True)
    cliques = [frozenset(w) for w in res.all_maximum]
    assert res.max_size == size and set(cliques) <= keys
    # same-size sets that are not canonical: a canonical family with one
    # member swapped out, and random sets
    rng = random.Random(f"{k},{l},{t}")
    everyone = frozenset(range(len(universe)))
    others = []
    for key in sorted(keys, key=sorted):
        out, new = rng.choice(sorted(key)), rng.choice(sorted(everyone - key))
        others.append(key - {out} | {new})
    others += [frozenset(rng.sample(sorted(everyone), size)) for _ in range(100)]
    for w in cliques + others:
        assert extremal._meet_has_block_of(t, [universe[i] for i in w]) == (w in keys)


def test_conjecture_one_partition_with_a_large_t():
    # one partition of [30]: no walk over the C(30, 15) anchor sets
    recs = check_conjecture_instance(30, 1, 15)
    (conj,) = select(recs, "conjecture")
    assert conj.verdict == "pass" and conj.lhs == conj.rhs == "1"
    (uniq,) = select(recs, "conjecture-uniqueness", maximum_cliques=1)
    assert uniq.verdict == "pass"

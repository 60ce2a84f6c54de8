"""The job lists of the workloads, their seeded inputs and the checks on their reports.

A job is one ``partspread`` CLI invocation.  Each workload function takes the
workload seed and a scratch directory, writes the input files it needs there
and returns its jobs.  Every job carries a check on the parsed report; the
reference values are computed here from first principles (Bell and Stirling
numbers, inclusion-exclusion, exact probabilities) or, where no independent
formula is at hand, pinned to the values the program produced when the
benchmark was written (spread factors, oracle maxima, record counts).
"""

from __future__ import annotations

import itertools
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import Callable, Optional

Records = list[tuple[str, ...]]
Check = Callable[[Records], Optional[str]]


@dataclass
class Job:
    argv: list[str]
    check: Check


def parse_table(text: str) -> Records:
    """Rows of the default text-table report, header dropped.

    Cells are left-justified and joined by two or more spaces; no cell
    contains two spaces in a row, and every cell is nonempty.
    """
    lines = text.splitlines()
    return [tuple(re.split(r" {2,}", line)) for line in lines[1:]]


# ---------------------------------------------------------------------------
# reference arithmetic, independent of partspread


@lru_cache(maxsize=None)
def bell(n: int) -> int:
    if n == 0:
        return 1
    return sum(math.comb(n - 1, i) * bell(i) for i in range(n))


@lru_cache(maxsize=None)
def stirling2(n: int, l: int) -> int:
    if l == 0:
        return 1 if n == 0 else 0
    if l > n:
        return 0
    return stirling2(n - 1, l - 1) + l * stirling2(n - 1, l)


def derangements(blocks: list[list[int]], n: int) -> int:
    """Partitions of [n] sharing no block with the given one.

    Inclusion-exclusion: the partitions containing a fixed set S of the
    blocks are the partitions of the remaining elements, B(n - |union S|).
    """
    total = 0
    for r in range(len(blocks) + 1):
        for chosen in itertools.combinations(blocks, r):
            total += (-1) ** r * bell(n - sum(len(b) for b in chosen))
    return total


def all_partitions(n: int):
    """Every partition of [n] as a list of blocks (reference enumeration)."""
    if n == 0:
        yield []
        return
    for p in all_partitions(n - 1):
        for i in range(len(p)):
            yield p[:i] + [p[i] + [n]] + p[i + 1 :]
        yield p + [[n]]


def uniform_partitions(k: int, l: int) -> list[tuple[tuple[int, ...], ...]]:
    """Partitions of [k*l] into l blocks of size k, blocks by increasing minimum."""

    def gen(elems):
        if not elems:
            yield ()
            return
        first, rest = elems[0], elems[1:]
        for others in itertools.combinations(rest, k - 1):
            remaining = tuple(e for e in rest if e not in others)
            for tail in gen(remaining):
                yield ((first,) + others,) + tail

    return list(gen(tuple(range(1, k * l + 1))))


def edge_index(i: int, j: int) -> int:
    """Index of the pair {i < j} in partspread's edge universe (documented layout)."""
    return (j - 1) * (j - 2) // 2 + (i - 1)


def containment_probability(members: list[int], size: int, p: Fraction) -> Fraction:
    """Exact Pr[some member lies inside a p-random subset of a size-element universe]."""
    hits_by_size = [0] * (size + 1)
    for w in range(1 << size):
        if any(m & w == m for m in members):
            hits_by_size[w.bit_count()] += 1
    return sum(c * p**s * (1 - p) ** (size - s) for s, c in enumerate(hits_by_size))


def partition_text(blocks) -> str:
    return "|".join(",".join(map(str, b)) for b in blocks)


# ---------------------------------------------------------------------------
# checks


def named(recs: Records, name: str) -> list[tuple[str, ...]]:
    return [r for r in recs if r[0] == name]


def expect(
    name: str,
    count: Optional[int] = None,
    lhs: Optional[str] = None,
    margin: Optional[str] = None,
    verdict: Optional[str] = None,
    params: Optional[str] = None,
) -> Check:
    """Check the first record called `name` and, optionally, the record count."""

    def check(recs: Records) -> Optional[str]:
        if count is not None and len(recs) != count:
            return f"{len(recs)} records, expected {count}"
        rows = named(recs, name)
        if not rows:
            return f"no {name!r} record"
        got = rows[0]
        for field, idx, want in (
            ("params", 1, params), ("lhs", 2, lhs), ("margin", 4, margin), ("verdict", 5, verdict)
        ):
            if want is not None and got[idx] != want:
                return f"{name} {field} is {got[idx]!r}, expected {want!r}"
        return None

    return check


def all_of(*checks: Check) -> Check:
    def check(recs: Records) -> Optional[str]:
        for c in checks:
            err = c(recs)
            if err:
                return err
        return None

    return check


def verdicts(count: int, **want: int) -> Check:
    """Exactly `count` records, with the given number of each verdict."""

    def check(recs: Records) -> Optional[str]:
        if len(recs) != count:
            return f"{len(recs)} records, expected {count}"
        got = {v: sum(1 for r in recs if r[5] == v) for v in want}
        if got != want:
            return f"verdict counts {got}, expected {want}"
        return None

    return check


def no_failures(recs: Records) -> Optional[str]:
    bad = [r for r in recs if r[5] == "fail"]
    return f"{len(bad)} failed verdicts, first {bad[0]}" if bad else None


def mc_close(name: str, exact: Fraction, trials: int, verdict: str) -> Check:
    """The containment estimate lies within five standard errors of `exact`."""

    def check(recs: Records) -> Optional[str]:
        rows = [r for r in named(recs, name) if "claim=containment" in r[1]]
        if not rows or rows[0][5] != verdict:
            return f"no {name} containment record with verdict {verdict}"
        est = Fraction(rows[0][2])
        sigma = math.sqrt(float(exact * (1 - exact)) / trials)
        if abs(float(est - exact)) > 5 * sigma + 1 / trials:
            return f"estimate {float(est)} is not within 5 sigma of {float(exact)}"
        return None

    return check


def listed_blocks(n: int, l: int) -> Check:
    """`enumerate blocks --list`: every distinct l-block partition of [n], once."""

    def check(recs: Records) -> Optional[str]:
        seen = set()
        for r in named(recs, "partition"):
            blocks = [tuple(map(int, b.split(","))) for b in r[2][len("Partition[") : -1].split("|")]
            if len(blocks) != l or sorted(e for b in blocks for e in b) != list(range(1, n + 1)):
                return f"{r[2]} is not a partition of [{n}] into {l} blocks"
            seen.add(tuple(sorted(blocks)))
        if len(seen) != stirling2(n, l) or len(named(recs, "partition")) != len(seen):
            return f"{len(seen)} distinct partitions listed, expected {stirling2(n, l)}"
        return None

    return check


# ---------------------------------------------------------------------------
# workloads


def parts_spread(seed: int, work: Path) -> list[Job]:
    rng = random.Random(seed)
    labels = [rng.randrange(5) for _ in range(10)]
    blocks = [[e + 1 for e in range(10) if labels[e] == lab] for lab in sorted(set(labels))]
    blocks.sort()
    return [
        Job(["enumerate", "partitions", "--n", "10"], expect("enumerate", 1, lhs=str(bell(10)))),
        Job(["enumerate", "blocks", "--n", "10", "--l", "4"],
            expect("enumerate", 1, lhs=str(stirling2(10, 4)))),
        Job(["count", "derangements", "--partition", partition_text(blocks)],
            expect("count-derangements", 1, lhs=str(derangements(blocks, 10)))),
        Job(["spread", "factor", "--family", "bell:8"],
            expect("spread-factor", 1, lhs="2.8322073",
                   margin="[2, 4, 8, 16, 32, 64, 128, 253]")),
        Job(["spread", "check", "--family", "bell:8", "--r", "2"],
            expect("spread-check", 1, lhs="true", verdict="pass")),
        Job(["spread", "weak", "--family", "blocks:9,4", "--t", "1"],
            expect("spread-weak", 1, lhs="9.8853574", margin="[0, 1, 2, 3]")),
        Job(["spread", "factor", "--family", "kl:3,3"],
            expect("spread-factor", 1, lhs="1.8702792",
                   margin="[0, 5, 14, 19, 20, 23, 24, 28, 29]")),
        # README one-liners
        Job(["spread", "factor", "--family", "bell:5"],
            expect("spread-factor", 1, lhs="2.2039446", margin="[2, 4, 8, 16, 29]")),
        Job(["spread", "check", "--family", "kl:2,3", "--r", "2"],
            expect("spread-check", 1, lhs="true", verdict="pass")),
        Job(["enumerate", "blocks", "--n", "5", "--l", "3", "--list"],
            all_of(expect("enumerate", 1 + stirling2(5, 3), lhs=str(stirling2(5, 3))),
                   listed_blocks(5, 3))),
    ]


def clique_oracle(seed: int, work: Path) -> list[Job]:
    # (setting k l t n) lines; the expected maximum is the canonical size
    pool = [("partial", 2, 2, 2, None), ("partial", 2, 3, 2, None)]
    pool += [("bell", None, None, t, n) for t, n in ((1, 3), (1, 4), (2, 5))]
    pool += [("blocks", None, l, t, n) for l, t, n in ((3, 2, 5), (3, 2, 6), (3, 1, 6), (4, 1, 6), (4, 2, 7))]
    rng = random.Random(seed)
    chosen = rng.sample(pool, 6)

    def expected(setting, k, l, t, n):
        if setting == "partial":
            return math.prod(range(2 * (l - 1) - 1, 0, -2))  # u(2, l-1)
        if setting == "bell":
            return bell(n - t)
        return stirling2(n - t, l - t)

    def field(v):
        return "-" if v is None else str(v)

    catalog = work / "catalog.txt"
    catalog.write_text(
        "".join(" ".join(map(field, c)) + f" {expected(*c)}\n" for c in chosen),
        encoding="utf-8",
    )
    return [
        Job(["extremal", "conjecture", "--k", "2", "--l", "4", "--t", "2"],
            all_of(expect("conjecture", 2, lhs="15", verdict="pass"),
                   expect("conjecture-uniqueness", params="k=2,l=4,t=2,maximum_cliques=28",
                          verdict="pass"))),
        Job(["extremal", "conjecture", "--k", "2", "--l", "3", "--t", "2"],
            all_of(expect("conjecture", 2, lhs="3", verdict="pass"),
                   expect("conjecture-uniqueness", verdict="pass"))),
        Job(["extremal", "oracle", "--setting", "uniform", "--k", "2", "--l", "5",
             "--predicate", "partially-t-intersect", "--t", "2"],
            expect("oracle", 1, lhs="105")),
        Job(["extremal", "oracle", "--setting", "blocks", "--n", "7", "--l", "5",
             "--predicate", "t-intersect", "--t", "1"],
            expect("oracle", 1, lhs=str(stirling2(6, 4)))),
        Job(["extremal", "oracle", "--setting", "bell", "--n", "7",
             "--predicate", "t-intersect", "--t", "2"],
            expect("oracle", 1, lhs="52")),
        Job(["extremal", "catalog", "--file", str(catalog)],
            verdicts(len(chosen), **{"pass": len(chosen)})),
    ]


def exact_verify(seed: int, work: Path) -> list[Job]:
    rng = random.Random(seed)
    mc_seeds = [rng.randrange(2**32) for _ in range(2)]
    singletons = work / "singletons.txt"
    singletons.write_text("N 4096\n" + "".join(f"{i}\n" for i in range(4096)), encoding="utf-8")
    p_single = Fraction(3, 64)
    closed_single = 1 - (1 - p_single) ** 4096
    # bell:4 parts-encoded: the universe is the 15 nonempty subsets of [4]
    subsets = [frozenset(s) for r in range(1, 5) for s in itertools.combinations(range(1, 5), r)]
    bit = {s: 1 << i for i, s in enumerate(subsets)}
    bell4 = [sum(bit[frozenset(b)] for b in blocks) for blocks in all_partitions(4)]
    exact_bell4 = containment_probability(bell4, len(subsets), Fraction(1, 2))

    while True:
        y = list(range(1, 10))
        rng.shuffle(y)
        y_blocks = sorted(tuple(sorted(y[i : i + 3])) for i in (0, 3, 6))
        if not any({1, 2} <= set(b) for b in y_blocks):
            break
    canonical = [p for p in uniform_partitions(3, 3) if any({1, 2} <= set(b) for b in p)]
    avoid = sum(
        1 for p in canonical
        if not any(len(set(b) & set(c)) >= 2 for b in p for c in y_blocks)
    )
    return [
        Job(["verify", "bell-ratio", "--n-max", "400"], verdicts(400, **{"pass": 400})),
        Job(["verify", "no-singleton", "--s-max", "100"], verdicts(100, **{"pass": 100})),
        Job(["verify", "spreadness", "--setting", "profiled", "--profile", ",".join(["2"] * 600),
             "--t", "100", "--s-max", "300", "--mode", "formula"],
            all_of(verdicts(602, **{"pass": 301, "finding": 301}),
                   expect("encoded-spreadness-profiled", verdict="finding"))),
        Job(["verify", "spreadness", "--setting", "bell", "--n", "60", "--mode", "formula"],
            verdicts(61, **{"pass": 61})),
        Job(["verify", "stirling-growth", "--l-max", "6", "--n-cap", "200"],
            verdicts(986, **{"pass": 775, "gated": 211})),
        Job(["verify", "dobinski", "--n", "20", "--s-max", "120"], verdicts(2, **{"pass": 2})),
        Job(["verify", "containment", "--family", f"file:{singletons}", "--r", "4096", "--m", "3",
             "--delta", "1/64", "--trials", "10000", "--seed", str(mc_seeds[0])],
            all_of(expect("random-containment", 3, verdict="pass"),
                   mc_close("random-containment", closed_single, 10**4, "pass"))),
        Job(["verify", "containment", "--family", "bell:4", "--r", "3/2", "--m", "1",
             "--delta", "1/2", "--trials", "20000", "--seed", str(mc_seeds[1])],
            all_of(expect("random-containment", 2, verdict="vacuous"),
                   mc_close("random-containment", exact_bell4, 2 * 10**4, "vacuous"))),
        Job(["verify", "nonintersect", "--k", "3", "--l", "3", "--t", "2", "--t-set", "1,2",
             "--y", partition_text(y_blocks)],
            all_of(expect("nonintersect-count", 3, verdict="pass"),
                   expect("nonintersect-count-note",
                          margin=f"count is {avoid}/{len(canonical)} of the canonical family"))),
        Job(["count", "bell", "--n", "10"], expect("count-bell", 1, lhs=str(bell(10)))),
    ]


SEQ_S = "0,1,2;0,3,4;0,5,6;1,3,5;1,4,6;2,3,6;2,4,5"
# members of the kl:3,3 subfamily that peel-edges approximates
SUB_SIZE = 70


def peel_edges(seed: int, work: Path) -> list[Job]:
    # The subfamily is fixed and the seed relabels [9]: every seed writes a
    # different file with the same structure.  Peeling random subfamilies of
    # this size costs up to half again as much on one as on another, which
    # would swamp the run-to-run comparison.
    kl33 = uniform_partitions(3, 3)
    chosen = sorted(random.Random(0).sample(range(len(kl33)), SUB_SIZE))
    perm = list(range(1, 10))
    random.Random(seed).shuffle(perm)
    relabel = dict(zip(range(1, 10), perm))
    sub = work / "kl33_sub.txt"
    lines = ["N 36"]
    for c in chosen:
        idx = sorted(
            edge_index(*sorted((relabel[i], relabel[j])))
            for b in kl33[c] for i, j in itertools.combinations(b, 2)
        )
        lines.append(" ".join(map(str, idx)))
    sub.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def peeled(size: int) -> Check:
        return all_of(
            no_failures,
            expect("approx-coverage", verdict="pass"),
            expect("approx-conservation", lhs=str(size), margin="0", verdict="pass"),
        )

    approx = ["--q", "9", "--r0", "4", "--t", "1"]
    return [
        Job(["approximate", "--family", f"file:{sub}", "--ambient", "kl:3,3", "--r", "3"] + approx,
            peeled(SUB_SIZE)),
        Job(["approximate", "--family", f"file:{sub}", "--ambient", "kl:3,3", "--r", "2"] + approx,
            peeled(SUB_SIZE)),
        Job(["approximate", "--family", "bell:8", "--r", "2", "--q", "3", "--r0", "4", "--t", "1"],
            all_of(peeled(bell(8)), verdicts(11, **{"pass": 5, "gated": 3, "info": 3}))),
        Job(["approximate", "--family", "ct:2,4,2", "--ambient", "kl:2,4", "--r", "2", "--q", "4",
             "--r0", "4", "--t", "1"],
            all_of(peeled(15), verdicts(11, **{"pass": 6, "gated": 3, "info": 2}))),
        Job(["approximate", "--family", "ct:2,5,2", "--ambient", "kl:2,5", "--r", "2", "--q", "4",
             "--r0", "4", "--t", "1"],
            all_of(peeled(105), verdicts(11, **{"pass": 6, "gated": 3, "info": 2}))),
        Job(["reduce", "sequence", "--family", "kl:2,5", "--s", SEQ_S, "--q", "3", "--t", "1"],
            all_of(no_failures, expect("reduction-level", lhs="7"))),
        Job(["reduce", "dominance", "--family", "kl:3,3", "--s", SEQ_S, "--q", "3", "--t", "1"],
            all_of(expect("dominance", 2, lhs="52", margin="-17", verdict="info"),
                   expect("dominance-gate", verdict="gated"))),
        # README example
        Job(["reduce", "sequence", "--family", "kl:2,3", "--s", "0,1;1,2;0,2", "--q", "2",
             "--t", "1"],
            all_of(no_failures, expect("reduction-level", lhs="3"))),
    ]


def clique_verify(seed: int, work: Path) -> list[Job]:
    return clique_oracle(seed, work) + exact_verify(seed, work)


WORKLOADS = {
    "parts-spread": parts_spread,
    "clique-verify": clique_verify,
    "peel-edges": peel_edges,
}

import hashlib
import os
import shlex
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest

from conftest import enumerate_uniform
from partspread import cli, extremal, guards, verify
from partspread.cli import load_family, load_subfamily, main
from partspread.encoding import encode_edges, encode_family_edges, encode_parts
from partspread.errors import DomainError, IntegrityError, ResourceLimitError
from partspread.extremal import canonical_family
from partspread.partitions import Profile, enumerate_into_blocks, tilde_bell
from partspread.setfam import family_to_text
from partspread.spread import candidate_counts


def run_cli(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def pinned(names: str, cases: list):
    """Parametrize pinned-report cases, each ending in its sha256 digest, with
    ids from the other fields, so that re-taking a digest keeps the test's id."""
    return pytest.mark.parametrize(names, cases, ids=["-".join(map(str, c[:-1])) for c in cases])


def test_count_bell(capsys):
    code, out = run_cli(capsys, "count", "bell", "--n", "10")
    assert code == 0
    assert "115975" in out


def test_count_variants(capsys):
    assert run_cli(capsys, "count", "stirling2", "--n", "4", "--l", "2")[1].count("7")
    assert "11" in run_cli(capsys, "count", "tilde-bell", "--n", "5")[1]
    assert "15" in run_cli(capsys, "count", "profiled", "--profile", "2,2,2")[1]
    assert "105" in run_cli(capsys, "count", "uniform", "--k", "2", "--l", "4")[1]
    code, out = run_cli(capsys, "count", "derangements", "--partition", "1,2|3,4")
    assert code == 0 and "12" in out


def test_enumerate(capsys):
    code, out = run_cli(capsys, "enumerate", "partitions", "--n", "4")
    assert code == 0 and "15" in out
    code, out = run_cli(capsys, "enumerate", "blocks", "--n", "4", "--l", "2", "--list")
    assert code == 0 and out.count("partition") == 7


def test_extremal_conjecture(capsys):
    code, out = run_cli(capsys, "extremal", "conjecture", "--k", "2", "--l", "3", "--t", "2")
    assert code == 0
    assert "conjecture" in out and "pass" in out


def test_extremal_oracle(capsys):
    code, out = run_cli(
        capsys, "extremal", "oracle", "--setting", "bell", "--n", "3",
        "--predicate", "t-intersect", "--t", "1",
    )
    assert code == 0 and "2" in out


def test_verify_bell_ratio(capsys):
    code, out = run_cli(capsys, "verify", "bell-ratio", "--n-max", "20")
    assert code == 0
    assert out.splitlines()[1].split()[-1] == "pass"


def test_spread_factor_cli(capsys):
    code, out = run_cli(capsys, "spread", "factor", "--family", "bell:5")
    assert code == 0 and "2.2039" in out


def test_spread_check_cli(capsys):
    code, out = run_cli(capsys, "spread", "check", "--family", "kl:2,3", "--r", "2")
    assert code == 0 and "pass" in out
    code, out = run_cli(capsys, "spread", "check", "--family", "bell:4", "--r", "9/2")
    assert code == 1  # a failing verdict exits 1


def test_approximate_cli(capsys):
    code, out = run_cli(
        capsys, "approximate", "--family", "ct:2,4,2", "--ambient", "kl:2,4",
        "--r", "2", "--q", "4", "--r0", "4", "--t", "1",
    )
    assert code == 0
    assert "peel-step" in out and "approx-conservation" in out


def test_approximate_cli_parts_ambient(capsys):
    # parts-kind subfamily must share the ambient's lazy part indices
    code, out = run_cli(
        capsys, "approximate", "--family", "blocks:5,2", "--ambient", "bell:5",
        "--r", "2", "--q", "5", "--r0", "3", "--t", "1",
    )
    assert code == 0
    assert "approx-conservation" in out
    code, _ = run_cli(
        capsys, "approximate", "--family", "blocks:4,2", "--ambient", "bell:5",
        "--r", "2", "--q", "4", "--r0", "3", "--t", "1",
    )
    assert code == 2  # mismatched ground sets are rejected


def test_reduce_cli(capsys):
    code, out = run_cli(
        capsys, "reduce", "minimize", "--family", "kl:2,2", "--s", "0,1;0,2",
        "--q", "2", "--t", "1",
    )
    assert code == 0 and "[0]" in out
    code, out = run_cli(
        capsys, "reduce", "dominance", "--family", "kl:2,3", "--s", "0",
        "--q", "1", "--t", "1", "--eps", "1",
    )
    assert code == 0


def test_reduce_dominance_takes_q_from_s(capsys):
    argv = ["reduce", "dominance", "--family", "kl:2,3", "--s", "0,1;1,2;0,2", "--t", "1"]
    code, out = run_cli(capsys, *argv)
    assert code == 0 and "dominance" in out
    assert run_cli(capsys, *argv, "--q", "2") == (0, out)


def test_verify_nonintersect_cli(capsys):
    code, out = run_cli(
        capsys, "verify", "nonintersect", "--k", "2", "--l", "3", "--t", "2",
        "--t-set", "1,2", "--y", "1,3|2,4|5,6",
    )
    assert code == 0 and "pass" in out


def test_verify_spreadness_cli(capsys):
    code, out = run_cli(
        capsys, "verify", "spreadness", "--setting", "kl-edges",
        "--k", "2", "--l", "3",
    )
    assert code == 0


def test_guard_flag_and_exit_codes(capsys):
    code, _ = run_cli(capsys, "enumerate", "partitions", "--n", "14")
    assert code == 2  # default guard rejects n = 14
    code, _ = run_cli(capsys, "count", "bell")  # missing --n
    assert code == 2
    code, _ = run_cli(capsys, "count", "bell", "--n", "5", "--bogus")
    assert code == 2
    # an overridden guard turns a guard error into a run
    code, _ = run_cli(
        capsys, "spread", "factor", "--family", "bell:4", "--guard-spread", "10"
    )
    assert code == 2


def test_spread_check_obeys_guard(capsys):
    code = main(["spread", "check", "--family", "bell:5", "--r", "2", "--guard-spread", "100"])
    assert code == 2
    assert "SPREAD_CANDIDATE_MAX" in capsys.readouterr().err


def test_structured_records_format(capsys):
    code, out = run_cli(
        capsys, "count", "bell", "--n", "6", "--format", "structured-records"
    )
    assert code == 0
    assert out == "count-bell\tn=6\t203\t-\t-\tinfo\n"


def test_out_file_and_determinism(tmp_path, capsys):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    for path in (a, b):
        code, _ = run_cli(
            capsys, "verify", "containment", "--family", "bell:3", "--r", "1",
            "--m", "1", "--delta", "1/2", "--trials", "10000", "--seed", "5",
            "--out", str(path), "--format", "structured-records",
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_export_round_trip(tmp_path, capsys):
    path = tmp_path / "fam.txt"
    code, _ = run_cli(capsys, "export", "--family", "kl:2,3", "--path", str(path))
    assert code == 0
    text = path.read_text()
    assert text.startswith("N 15\n")
    code, out = run_cli(capsys, "spread", "factor", "--family", f"file:{path}")
    assert code == 0


def test_extremal_catalog(tmp_path, capsys):
    cat = tmp_path / "instances.txt"
    cat.write_text(
        "# setting k l t n [expected]\n"
        "partial 2 3 2 6 3\n"
        "bell - - 1 3 2\n"
        "blocks - 3 2 5 1\n"
    )
    results = tmp_path / "results.txt"
    code, out = run_cli(
        capsys, "extremal", "catalog", "--file", str(cat), "--results", str(results)
    )
    assert code == 0
    lines = results.read_text().splitlines()
    assert len(lines) == 3 and all(l.endswith("pass") for l in lines)
    # appending: a second run doubles the result table
    code, _ = run_cli(
        capsys, "extremal", "catalog", "--file", str(cat), "--results", str(results)
    )
    assert len(results.read_text().splitlines()) == 6
    bad = tmp_path / "bad.txt"
    bad.write_text("partial 2 3 2 6 999\n")
    code, _ = run_cli(capsys, "extremal", "catalog", "--file", str(bad))
    assert code == 1


@pytest.mark.parametrize(
    "line, message",
    [
        ("bell - - 9 5", "need 0 <= t <= n"),
        ("blocks - 3 4 5", "need 0 <= t <= l <= n"),
        # refused before the universe is enumerated or its oracle's guard is asked
        ("bell - - 12 9", "need 0 <= t <= n"),
        ("bell - - -1 4", "need 0 <= t <= n"),
        ("blocks - 5 1 4", "need 0 <= t <= l <= n"),
    ],
)
def test_catalog_t_out_of_range_is_usage_error(tmp_path, capsys, line, message):
    cat = tmp_path / "instances.txt"
    cat.write_text(line + "\n")
    assert main(["extremal", "catalog", "--file", str(cat)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_weak_spread_cli(capsys):
    code, out = run_cli(capsys, "spread", "weak", "--family", "bell:4", "--t", "1")
    assert code == 0 and "spread-weak" in out


def test_sunflower_and_covering_cli(capsys):
    code, out = run_cli(capsys, "spread", "sunflower", "--family", "kl:2,2", "--l", "3")
    assert code == 0
    code, out = run_cli(capsys, "spread", "covering", "--family", "kl:2,2")
    assert code == 0 and "covering-number" in out


@pytest.mark.parametrize(
    "argv, flag",
    [
        ("count profiled", "--profile"),
        ("count derangements", "--partition"),
        ("enumerate profiled", "--profile"),
        ("extremal oracle --setting profiled --t 1", "--profile"),
        ("reduce minimize --family kl:2,3 --q 2 --t 1", "--s"),
        ("reduce minimize --family kl:2,3 --s 0,1 --t 1", "--q"),
        ("reduce sequence --family kl:2,3 --s 0,1 --t 1", "--q"),
        ("approximate --family bell:3 --r 2 --q 2 --r0 3", "--t"),
        ("approximate --family bell:3 --r 2 --q 2 --t 1", "--r0"),
        ("verify containment --r 2 --m 1 --delta 1/2", "--family"),
        ("verify nonintersect --k 2 --l 3 --t 2 --y 1,3|2,4|5,6", "--t-set"),
        ("verify nonintersect --k 2 --l 3 --t 2 --t-set 1,2", "--y"),
        ("count bell", "--n"),
        ("count stirling2 --n 4", "--l"),
        ("count tilde-bell", "--n"),
        ("count uniform --k 2", "--l"),
        ("enumerate partitions", "--n"),
        ("enumerate blocks --n 5", "--l"),
        ("extremal conjecture --k 2 --l 3", "--t"),
        ("extremal oracle --setting bell --t 1", "--n"),
        ("extremal catalog", "--file"),
        ("verify bell-ratio", "--n-max"),
        ("verify dobinski --n 5", "--s-max"),
        ("verify no-singleton", "--s-max"),
        ("verify stirling-growth --l-max 3", "--n-cap"),
        ("spread check --family bell:3", "--r"),
        ("spread weak --family bell:4", "--t"),
        ("spread sunflower --family kl:2,2", "--l"),
        ("verify containment --family bell:3 --m 1 --delta 1/2", "--r"),
        ("verify containment --family bell:3 --r 1 --delta 1/2", "--m"),
        ("verify containment --family bell:3 --r 1 --m 1", "--delta"),
        ("verify nonintersect --l 3 --t 2 --t-set 1,2 --y 1,3|2,4|5,6", "--k"),
        ("verify nonintersect --k 2 --t 2 --t-set 1,2 --y 1,3|2,4|5,6", "--l"),
        ("verify nonintersect --k 2 --l 3 --t-set 1,2 --y 1,3|2,4|5,6", "--t"),
        ("verify spreadness --k 2 --l 3", "--setting"),
        ("extremal canonical --setting bell", "--n"),
        ("extremal canonical --setting bell --n 5", "--t"),
        ("extremal canonical --setting blocks --l 3 --t 1", "--n"),
        ("extremal canonical --setting blocks --n 5 --t 1", "--l"),
        ("extremal canonical --setting profiled --profile 1,2,2", "--t"),
        ("extremal canonical --setting partial --profile 2,2,2", "--t"),
    ],
)
def test_missing_flag_is_usage_error(capsys, argv, flag):
    code = main(argv.split())
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.rstrip().endswith(f"needs {flag}")


@pytest.mark.parametrize(
    "argv",
    [
        "enumerate blocks --n 14 --l 3",
        "enumerate partitions --n 14",
    ],
)
def test_enumeration_guard_refusal(capsys, argv):
    assert main(argv.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: ENUM_MAX_N: n=14 exceeds the guard 13\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        ("--setting bell --n 10", "CLIQUE_VERTEX_MAX: vertices=115975 exceeds the guard 3000"),
        ("--setting bell --n 14", "ENUM_MAX_N: n=14 exceeds the guard 13"),
        ("--setting blocks --n 9 --l 4", "CLIQUE_VERTEX_MAX: vertices=7770 exceeds the guard 3000"),
        ("--setting uniform --k 2 --l 6", "CLIQUE_VERTEX_MAX: vertices=10395 exceeds the guard 3000"),
        ("--setting profiled --profile 1,2,3,4",
         "CLIQUE_VERTEX_MAX: vertices=12600 exceeds the guard 3000"),
        ("--setting bell --n 10 --predicate t-intersect --t -1", "t_intersect needs t >= 0"),
    ],
)
def test_oracle_refused_before_enumerating(monkeypatch, capsys, argv, message):
    # the closed-form universe size is refused before any enumerator runs
    for name in ("enumerate_partitions", "enumerate_into_blocks", "enumerate_profiled"):
        monkeypatch.setattr(cli, name, lambda *args: pytest.fail("enumerated"))
    if "--t" not in argv:
        argv += " --t 2"
    assert main(["extremal", "oracle", *argv.split()]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "line, message",
    [
        ("bell - - 2 10", "CLIQUE_VERTEX_MAX: vertices=115975 exceeds the guard 3000"),
        ("bell - - 2 14", "ENUM_MAX_N: n=14 exceeds the guard 13"),
        ("blocks - 4 1 9", "CLIQUE_VERTEX_MAX: vertices=7770 exceeds the guard 3000"),
        ("blocks - 4 1 14", "ENUM_MAX_N: n=14 exceeds the guard 13"),
        ("blocks - 4 5 9", "need 0 <= t <= l <= n"),
    ],
)
def test_catalog_refused_before_enumerating(monkeypatch, tmp_path, capsys, line, message):
    # a bell or blocks line is refused as `extremal oracle` refuses, before
    # any enumerator runs
    for name in ("enumerate_partitions", "enumerate_into_blocks", "enumerate_profiled"):
        monkeypatch.setattr(extremal, name, lambda *args: pytest.fail("enumerated"))
    cat = tmp_path / "instances.txt"
    cat.write_text(line + "\n")
    assert main(["extremal", "catalog", "--file", str(cat)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("guard", [[], ["--guard-enum", "1"]])
def test_count_derangements_walks_no_partition(capsys, guard):
    # an inclusion-exclusion sum: no enumeration, so no enumeration guard
    singletons = "|".join(map(str, range(1, 15)))
    argv = ["count", "derangements", "--partition", singletons, "--format", "structured-records"]
    code, out = run_cli(capsys, *argv, *guard)
    assert code == 0
    assert out.split("\t")[2] == str(tilde_bell(14))


def test_kl_edges_formula_counts_ignore_the_enumeration_guard(capsys):
    # count_extensions is a DP over part loads, so no enumeration runs
    argv = "verify spreadness --setting kl-edges --k 2 --l 10 --mode formula".split()
    for fmt in ([], ["--format", "structured-records"]):
        free = main(argv + fmt), capsys.readouterr()
        guarded = main(argv + fmt + ["--guard-enum", "1"]), capsys.readouterr()
        assert free == guarded
        assert free[0] == 0 and free[1].out and free[1].err == ""


def test_kl_edges_formula_at_small_l_reports_vacuous(capsys):
    argv = "verify spreadness --setting kl-edges --k 2 --l 3 --mode formula".split()
    code, out = run_cli(capsys, *argv, "--format", "structured-records")
    lines = [line.split("\t") for line in out.splitlines()]
    assert code == 0
    assert lines[0][0] == "encoded-spreadness-kl-edges" and lines[0][-1] == "vacuous"
    assert lines[-1][4:] == ["every bound point is info: no inequality was checked", "info"]


@pytest.mark.parametrize(
    "argv",
    [
        "verify spreadness --setting bell --n 1",
        "verify spreadness --setting bell --n 6 --mode direct",
        "verify spreadness --setting blocks --n 6 --l 3 --t 1",
        "verify spreadness --setting profiled --profile 2,2,2,2,2 --t 3",
    ],
)
def test_reports_asserting_nothing_read_vacuous(capsys, argv):
    code, out = run_cli(capsys, *argv.split(), "--format", "structured-records")
    verdicts = [line.split("\t")[-1] for line in out.splitlines()]
    assert code == 0
    assert verdicts[0] == "vacuous" and set(verdicts[1:]) <= {"info", "gated"}


def test_kl_edges_direct_scan_refused_before_enumerating(capsys, monkeypatch):
    def unreachable(profile):
        raise AssertionError("enumerated before the candidate guard")

    monkeypatch.setattr(verify, "enumerate_profiled", unreachable)
    argv = "verify spreadness --setting kl-edges --k 4 --l 4 --mode direct"
    assert main(argv.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    # u(4,4) * 2^(4 * C(4,2)) = 2627625 * 2^24, the count candidate_counts would refuse
    assert captured.err == (
        "error: SPREAD_CANDIDATE_MAX: candidate sets=44084232192000 "
        "exceeds the guard 10000000\n"
    )


def test_kl_edges_refusal_of_a_huge_count(capsys):
    # one member of C(4000, 2) = 7998000 edges: 2^7998000 candidate sets, whose
    # 2.4M decimal digits exceed the interpreter's int-to-str limit
    argv = "verify spreadness --setting kl-edges --k 4000 --l 1 --mode direct"
    assert main(argv.split()) == 2
    assert capsys.readouterr().err == (
        "error: SPREAD_CANDIDATE_MAX: candidate sets>=2^7998000 exceeds the guard 10000000\n"
    )


def test_kl_edges_candidate_closed_form_matches_the_scan(capsys):
    # u(2,3) = 15 members of 3 edges each: 15 * 2^3 = 120 candidate sets
    _, fam = encode_family_edges(enumerate_uniform(2, 3))
    with guards.limited(spread_candidate_max=119):
        with pytest.raises(ResourceLimitError) as info:
            candidate_counts(fam)
    argv = "verify spreadness --setting kl-edges --k 2 --l 3 --mode direct --guard-spread 119"
    assert main(argv.split()) == 2
    assert capsys.readouterr().err == f"error: {info.value}\n"
    argv = argv.replace("119", "120")
    assert main(argv.split()) == 0


def _profiles(n: int, top: int):
    """Non-decreasing tuples of positive sizes at most top summing to n."""
    if n == 0:
        yield ()
    for size in range(1, min(n, top) + 1):
        for rest in _profiles(n - size, size):
            yield rest + (size,)


SHAPE_SPECS = (
    [f"bell:{n}" for n in range(8)]
    + [f"blocks:{n},{l}" for n in range(1, 8) for l in range(1, n + 1)]
    + ["profiled:" + ",".join(map(str, p)) for n in range(1, 7) for p in _profiles(n, n)]
)


@pytest.mark.parametrize("spec", SHAPE_SPECS)
def test_spread_on_parts_specs_matches_the_scan(monkeypatch, capsys, spec):
    # the shape path against the candidate_counts scan: r*, scanned=, T,
    # witnesses, stderr and exit codes, with t one past the largest member
    _, _, top = cli._spread_plan(spec)
    argvs = [["factor"]] + [["weak", "--t", str(t)] for t in range(top + 2)]
    argvs += [["check", "--r", r] for r in ("1", "3/2", "2", "3", "5", "12")]

    def outcomes():
        for argv in argvs:
            code = main(["spread", *argv, "--family", spec])
            yield code, *capsys.readouterr()

    shaped = list(outcomes())
    monkeypatch.setattr(cli, "_spread_plan", lambda spec: None)
    assert shaped == list(outcomes())


@pytest.mark.parametrize(
    "spec, candidates",
    [
        ("bell:11", 33827974),
        ("bell:12", 273646526),
        ("bell:13", 2326980998),
        ("blocks:13,5", 240272032),
        ("kl:5,3", 135426761293824),
        ("ct:4,4,2", 91 * 5775 * 2**24),
    ],
)
def test_spread_refused_before_enumerating(monkeypatch, capsys, spec, candidates):
    calls = []

    def counted(*args):
        calls.append(args)
        raise AssertionError("enumerated before the candidate guard")

    for module, name in ((cli, "enumerate_partitions"), (cli, "enumerate_into_blocks"),
                         (cli, "enumerate_profiled"), (extremal, "enumerate_profiled")):
        monkeypatch.setattr(module, name, counted)
    for argv in (["factor"], ["check", "--r", "2"], ["weak", "--t", "1"]):
        start = time.perf_counter()
        assert main(["spread", *argv, "--family", spec]) == 2
        assert time.perf_counter() - start < 1
        assert capsys.readouterr().err == (
            f"error: SPREAD_CANDIDATE_MAX: candidate sets={candidates} exceeds the guard 10000000\n"
        )
    assert calls == []


@pytest.mark.parametrize(
    "argv, message",
    [
        # the enumeration guards still refuse first
        ("factor --family bell:14", "ENUM_MAX_N: n=14 exceeds the guard 13"),
        ("weak --family blocks:14,3 --t 1", "ENUM_MAX_N: n=14 exceeds the guard 13"),
        ("factor --family kl:5,3 --guard-profiled 10",
         "PROFILED_ENUM_MAX: partitions of profile (5, 5, 5)=126126 exceeds the guard 10"),
        ("check --family profiled:1,2,3 --r 2 --guard-profiled 10",
         "PROFILED_ENUM_MAX: partitions of profile (1, 2, 3)=60 exceeds the guard 10"),
        # so do the spec's own checks and the flags the scans refuse
        ("factor --family blocks:3,5 --guard-spread 1", "need 1 <= l <= n, got l=5, n=3"),
        ("factor --family kl:1,1 --guard-spread 0", "edge universe needs n >= 2"),
        ("factor --family ct:2,3,3 --guard-spread 1", "anchor T larger than every block"),
        ("check --family bell:5 --guard-spread 1", "spread check needs --r"),
        ("check --family bell:5 --r 0 --guard-spread 1", "is_r_spread needs r > 0"),
        ("weak --family bell:5 --t 6 --guard-spread 1", "no member has size >= t = 6"),
        ("weak --family bell:5 --t -1 --guard-spread 1", "weak_spread needs t >= 0"),
    ],
)
def test_spread_guard_order(capsys, argv, message):
    assert main(["spread", *argv.split()]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("spec", ["bell:5", "blocks:6,3", "profiled:1,2,2", "kl:2,3", "ct:2,3,1"])
def test_spread_closed_form_candidates_match_the_scan(capsys, spec):
    _, fam = load_family(spec)
    total = sum(2 ** m.bit_count() for m in fam.masks)
    with guards.limited(spread_candidate_max=total - 1):
        with pytest.raises(ResourceLimitError) as info:
            candidate_counts(fam)
    argv = ["spread", "factor", "--family", spec, "--guard-spread"]
    assert main(argv + [str(total - 1)]) == 2
    assert capsys.readouterr().err == f"error: {info.value}\n"
    assert main(argv + [str(total)]) == 0


def test_approximate_huge_r_builds_no_power(capsys):
    # the gate r/2^12 > log2(2k) at r = 10^12 compares 2^(r/2^12) with 8
    argv = ["approximate", "--family", "bell:4", "--r", "1000000000000", "--q", "3",
            "--r0", "2000000000000", "--t", "1"]
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    gate = next(line for line in capsys.readouterr().out.splitlines() if "gate-r-vs-log" in line)
    assert code == 0 and gate.split()[-1] == "pass"
    assert peak < 10 * 2**20


def test_enumerate_streams_its_count(capsys):
    tracemalloc.start()
    try:
        code = main(["enumerate", "partitions", "--n", "10"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and "115975" in capsys.readouterr().out
    assert peak < 2 * 2**20


@pinned(
    "argv, digest",
    [
        ("enumerate partitions --n 4 --list",
         "d53adf52740fa6009f1f2e133d13c48e14d5127c1a96f55028e39e601fa5ae6e"),
        ("enumerate blocks --n 5 --l 3 --list",
         "ff034290c228eea1fa28b528555540a1491537f656ea67fa69835a44d29e8cec"),
        ("enumerate partitions --n 4 --list --format structured-records",
         "5f8053f81206dce6a445c2635f8fa52d4926edcd1f01c4622247c58d4b04ecbc"),
        ("enumerate blocks --n 5 --l 3 --list --format structured-records",
         "093748d94ec4b373ad5b7a67680b8f333dae5fc96d40b4d4d323c7f8d3641c9c"),
    ],
)
def test_enumerate_list_output_pinned(capsys, argv, digest):
    # sha256 of the reports as first released, listing order included
    assert main(argv.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv",
    [
        "spread check --family bell:3 --r 1/0",
        "reduce dominance --family kl:2,3 --s 0 --q 1 --t 1 --eps 0",
        "reduce dominance --family kl:2,3 --s 0 --q 1 --t 1 --eps 1/0",
        "approximate --family bell:4 --r 3/2 --q 2 --r0 0 --t 1",
        "approximate --family bell:4 --r 3/2 --q 2 --r0 -1 --t 1",
        "verify containment --family bell:3 --r 1 --m 1 --delta 1/0",
        "spread check --family bell:4 --r 0",
        "spread check --family bell:4 --r -1",
        "verify containment --family bell:3 --r 0 --m 1 --delta 1/2",
        "reduce minimize --family kl:2,3 --s 0,99 --q 2 --t 1",
        "verify nonintersect --k 2 --l 2 --t 2 --t-set 1,9 --y 1,3|2,4",
        "export --family kl:2,2 --path {dir}",
        "spread factor --family file:{dir}",
        "count bell --n 5 --out {dir}",
        "approximate --family bell:3 --r 2 --q 2 --r0 3 --t 0",
        "approximate --family bell:3 --r 2 --q 2 --r0 3 --t -3",
        # a Philox key is the seed mod 2^64: one seed per key for -2^63 <= seed < 2^63
        "verify containment --family bell:4 --r 3/2 --m 1 --delta 1/2 --seed 18446744073709551616",
        "verify containment --family bell:4 --r 3/2 --m 1 --delta 1/2 --seed 9223372036854775809",
        "verify containment --family bell:4 --r 3/2 --m 1 --delta 1/2 --seed 18446744073709551615",
        "extremal canonical --setting bell --n 3 --t-set 1,2",
        "extremal canonical --setting partial --profile 2,2,2 --t 1 --t-set 1,3",
        "verify spreadness --setting profiled --profile 2,2,2,2 --t 1 --s-max 0 --mode formula",
        "verify stirling-growth --l-max 2 --n-cap 1",
        # t is checked before the graph, also where it has no pair to test
        "extremal oracle --setting bell --n 1 --predicate partially-t-intersect --t 0",
        "extremal oracle --setting bell --n 2 --predicate partially-t-intersect --t 0",
        "extremal oracle --setting bell --n 1 --predicate t-intersect --t -1",
    ],
)
def test_bad_input_is_usage_error(tmp_path, capsys, argv):
    code = main(argv.format(dir=tmp_path).split())
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, params, size",
    [
        ("extremal canonical --setting bell --n 5 --t 0", "setting=bell,t=0", "52"),
        ("extremal canonical --setting blocks --n 6 --l 3 --t 0", "setting=blocks,t=0", "90"),
        ("extremal canonical --setting profiled --profile 1,2,2 --t 0",
         "setting=profiled,t=0", "15"),
        ("extremal canonical --setting partial --profile 2,2,2 --t-set 1,3",
         "setting=partial,t=2", "3"),
    ],
)
def test_canonical_explicit_flags(capsys, argv, params, size):
    # an explicit --t 0 is the whole universe; --t-set stands in for --t,
    # and the record's t is then |T|
    code, out = run_cli(capsys, *argv.split(), "--format", "structured-records")
    assert code == 0
    assert out.split("\t")[1:3] == [params, size]


def test_stirling2_large_arguments(capsys):
    code = main(["count", "stirling2", "--n", "2000", "--l", "1000", "--format", "structured-records"])
    captured = capsys.readouterr()
    assert code == 0 and "Traceback" not in captured.err
    assert captured.out.startswith("count-stirling2\tn=2000,l=1000\t4633327562754350")


def test_cli_import_leaves_numpy_out():
    # no command imports numpy, the tests' reference only; and the sampler is
    # compiled by the command that draws alone
    code = (
        "import sys, partspread.cli; "
        "sys.exit('numpy' in sys.modules or 'partspread.sampler' in sys.modules)"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def _containment_in_fresh_process(argv: str):
    """Run verify containment on bell:4 in a new interpreter; its exit code is
    10 * the CLI's code + whether numpy got imported."""
    code = (
        "import sys; from partspread.cli import main; "
        "code = main(sys.argv[1:]); sys.exit(10 * code + ('numpy' in sys.modules))"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    args = f"verify containment --family bell:4 --r 3/2 {argv}".split()
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        ("--m 1 --delta 1/2 --trials 100", "need trials >= 10^4"),
        ("--m 3 --delta 1/2", "need 0 < m*delta <= 1"),
        ("--m 1 --delta 1/2 --seed -9223372036854775809", "outside [-2^63, 2^63)"),
        ("--m 1 --delta 1/9223372036854775808", "denominator too large"),
    ],
)
def test_refused_containment_leaves_numpy_out(argv, message):
    proc = _containment_in_fresh_process(argv)
    assert proc.returncode == 20
    assert proc.stdout == "" and message in proc.stderr


def test_sampled_containment_leaves_numpy_out():
    # a run that draws its trials, 32-bit and 64-bit words, with and without rejection
    for delta in ("1/2", "1/3", "1099511627776/3298534883329"):
        proc = _containment_in_fresh_process(f"--m 1 --delta {delta}")
        assert proc.returncode == 0 and proc.stderr == ""
        assert "claim=containment" in proc.stdout


PROFILE_200 = ",".join(["2"] * 200)
PROFILE_600 = ",".join(["2"] * 600)


@pinned(
    "argv, code, digest",
    [
        ("verify bell-ratio --n-max 30", 0,
         "1fb81cb6d96740ebf556b51acb9f2c5b02c9779a1a39e5c57337b8289d8d46a0"),
        ("verify bell-ratio --n-max 30 --format structured-records", 0,
         "79f15182097238c4846f474d029bfb00a03a5077070c410bc6720b8fa3044f82"),
        ("verify bell-ratio --n-max 400", 0,
         "fa31b378b4b35504ba2930fae96b7420ce376a61fd72e243a093e4bad438a537"),
        ("verify bell-ratio --n-max 400 --format structured-records", 0,
         "265f582d6fd290592365cc676b81eaa410bda53e78e1e44ece5fcca8dc0283c3"),
        ("verify dobinski --n 0 --s-max 5", 1,
         "dabec5d2a16a936ae9516aa6cb853800484c3d7aed94898f916d5945938261a2"),
        ("verify dobinski --n 0 --s-max 5 --format structured-records", 1,
         "09a5146218f3e05b251bacecce95e8342b9376c19ce050e5301654ef220e6b40"),
        ("verify dobinski --n 12 --s-max 40", 0,
         "9e5b645d51d8cf1045f5cb5b3b91557f36e2bf03117efde2e5810aeb3623fc30"),
        ("verify dobinski --n 12 --s-max 40 --format structured-records", 0,
         "4e098f5e5b6501c453cb718d45e8f444636cedaa50e925275f21669161b66083"),
        ("verify no-singleton --s-max 30", 0,
         "637a8c282c5a542de3cbb4f3cdd79a5f5b151ded69d0a9e92d0d32a6ddb83e62"),
        ("verify no-singleton --s-max 30 --format structured-records", 0,
         "96e99784a69cbf15ab30f3ff5c7c93b9332701ba1d54bc5b32586baae90bbca3"),
        ("verify stirling-growth --l-max 3 --n-cap 40", 0,
         "40ab1fb105ded5fbbb5cd9a91d75a3709fdcb797850d121017ec5df5d76599fd"),
        ("verify stirling-growth --l-max 3 --n-cap 40 --format structured-records", 0,
         "0b2bc5b81b68cd087f6e4aa20d91a16339ee350b0703ec16cbc5cbb8817e386a"),
        ("verify spreadness --setting bell --n 6 --t 2", 0,
         "b0dc913d96b5a7a7fcc1981e099381a657d9caf0d818be433476b5cb695e7f90"),
        ("verify spreadness --setting bell --n 6 --t 2 --format structured-records", 0,
         "e061c69de2ebcadc55da15ece92708d795f141365c18e480fc3428827e7744f5"),
        ("verify spreadness --setting bell --n 50 --mode formula", 0,
         "4c32c9fecb3eb5e7cb83b6f38ca44460ae181b869e1c674748de09594acfd52e"),
        ("verify spreadness --setting bell --n 50 --mode formula --format structured-records", 0,
         "b113bf794954695cdb4c8293e8f1ffe095f75f6e766607a71d83fbf478facb07"),
        ("verify spreadness --setting bell --n 1", 0,
         "066d39674d1d004690947f4966841f2faeeff9830641fb6659bee0ea7137f80c"),
        ("verify spreadness --setting bell --n 1 --format structured-records", 0,
         "dbe61da17701eaabfbc69f5b8b673299fc5bcbc98efff96a9a40abff660aac60"),
        ("verify spreadness --setting bell --n 20 --mode formula", 0,
         "e835c6e7db3a864ebb0132998ff294f39f22791f817cfe578d5efbb3169e157f"),
        ("verify spreadness --setting bell --n 20 --mode formula --format structured-records", 0,
         "77715d6017bfc1b9c811f42dd01189b01ae558e9be4e6ff9c419ae1d9eae02b8"),
        ("verify spreadness --setting blocks --n 7 --l 4 --t 1", 0,
         "bd1f988f4da674844fe261a8c08262b9089758b2d8a8a28454190fa2bb9c8148"),
        ("verify spreadness --setting blocks --n 7 --l 4 --t 1 --format structured-records", 0,
         "c2f92849f163eb540655087871436f4a1ac0be07ad61cd10990f116c2615f23c"),
        ("verify spreadness --setting blocks --n 60 --l 4 --t 1 --mode formula", 0,
         "1a6f4c342bbab09bf4d504cfaf3d76fdea8c631f92dc844362c1f9b9f7be2cb1"),
        ("verify spreadness --setting blocks --n 60 --l 4 --t 1 --mode formula "
         "--format structured-records", 0,
         "9913e1a793625a978363c7a833c7c3254d66a6900271474ee9661c3e214e5613"),
        ("verify spreadness --setting profiled --profile 1,2,2,3 --t 1", 0,
         "46dbf5ac8f3eb919ed751cbbc2d70a8c906312015792746d4b7fcc9ecb864460"),
        ("verify spreadness --setting profiled --profile 1,2,2,3 --t 1 "
         "--format structured-records", 0,
         "237d066ef3299515062c051b8898dd69a324f1b775040b415cea934f712ec050"),
        (f"verify spreadness --setting profiled --profile {PROFILE_200} --t 20 --s-max 100 "
         "--mode formula", 0,
         "cfd178d871395ff8b7e24b69b0fbd2dee087e61442d10f2eed85b27e0baf3647"),
        (f"verify spreadness --setting profiled --profile {PROFILE_200} --t 20 --s-max 100 "
         "--mode formula --format structured-records", 0,
         "c8038aaf587dcdd299184971fd9df1847f38d3203e4f428bb7fb373e605274eb"),
        (f"verify spreadness --setting profiled --profile {PROFILE_600} --t 400 --s-max 3 "
         "--mode formula", 0,
         "742f666240f106eb0f8c1de3528d0b3ed228c3c54eabfdd433d024333e2515eb"),
        (f"verify spreadness --setting profiled --profile {PROFILE_600} --t 400 --s-max 3 "
         "--mode formula --format structured-records", 0,
         "6ade29e4f3ca48f2f43eecc55eca2ac40f09c93b5688dd1251efb6e610f80af0"),
        ("verify spreadness --setting kl-edges --k 2 --l 1 --mode direct", 0,
         "0485685106bac4dc87c66a95d61ae9acb08d48755921d72ba64491035fca9601"),
        ("verify spreadness --setting kl-edges --k 2 --l 1 --mode direct "
         "--format structured-records", 0,
         "37ec8d21e5b12456c8393f62aa517b30965fc47d8051028bdc47ba882bfd7bc0"),
        ("verify spreadness --setting kl-edges --k 3 --l 2", 0,
         "63d550de84868fe2f6a8ff0d404595c3fdb2488d953b5c48254972902a74f6ad"),
        ("verify spreadness --setting kl-edges --k 3 --l 2 --format structured-records", 0,
         "b511ecbfe20d5e1d5f0982bcbd71ccc3add28b45ac51591503d7eb7ea083dab9"),
        ("verify spreadness --setting kl-edges --k 2 --l 10 --mode formula", 0,
         "b544a617475ef69ac6f94002f5695e3b02e5856dd6e4da68f5a19481a3a34516"),
        ("verify spreadness --setting kl-edges --k 2 --l 10 --mode formula "
         "--format structured-records", 0,
         "31dacf341e29c4e1f93699c3f579f4daed2f86e6ee522b136d9391203435971a"),
        ("verify containment --family bell:4 --r 3/2 --m 1 --delta 1/2", 0,
         "22cca54c66b529de988a1be308f5bff2b2f2fee146dc6e89f5f52629efc7f740"),
        ("verify containment --family bell:4 --r 3/2 --m 1 --delta 1/2 "
         "--format structured-records", 0,
         "eda953eb07355065dbe6526a6ce404d2e72de59d7c2f86b4ddaa9a605bceac9c"),
        # a 4096-element universe; den = 3, 3 * 2^30 + 1 (a word in four
        # rejected) and 3 * 2^40 + 1 (64-bit words); the two extreme seeds
        ("verify containment --family file:{singletons} --r 4096 --m 3 --delta 1/64 "
         "--trials 10000 --seed 7", 0,
         "c9262a0cd00bf42b282da40d1f7338e8e4491cf2de26b8f048174abe97a4897d"),
        ("verify containment --family file:{singletons} --r 4096 --m 3 --delta 1/64 "
         "--trials 10000 --seed 7 --format structured-records", 0,
         "563a6d0b2ad95f404073549e32fb2760191e890614e7c35d1a47171bf85373f1"),
        ("verify containment --family bell:4 --r 3/2 --m 1 --delta 1/3", 0,
         "0e9133256b55e1c42a7a269ac0896192bed84aa91d2a9d29fcc15b4162b7ddad"),
        ("verify containment --family bell:4 --r 3/2 --m 1 --delta 1/3 "
         "--format structured-records", 0,
         "66fe5c6fa1479f535e1639664e793ac9db7e2b16badb1fc63694a232a9e3cb65"),
        ("verify containment --family bell:4 --r 3/2 --m 1 --delta 1073741825/3221225472", 0,
         "e65638e02ec6b55f8242569fa4501fa4af0c9bf6e2bf65d0fed170c182270a9d"),
        ("verify containment --family bell:4 --r 3/2 --m 1 --delta 1099511627776/3298534883329",
         0, "1a999d232321aea5a5ef007c46603d0834995a90fb209211f4d380412166c6e1"),
        ("verify containment --family bell:4 --r 3/2 --m 1 --delta 1/2 "
         "--seed -9223372036854775808", 0,
         "51db572be217c3348da07e40ba30b0e76f37d43631b50907109e85581a11d722"),
        ("verify containment --family bell:4 --r 3/2 --m 1 --delta 1/2 "
         "--seed 9223372036854775807", 0,
         "22946af8eecca26ebac0c4a0d1e9c380a34d6f5bfd2905b30072560d1d920330"),
        # an empty member, and the empty universe: every trial is a hit
        ("verify containment --family file:{empty_member} --r 1 --m 1 --delta 1/3", 0,
         "3aade37425322fdd1c6d15a41c09fa51d8bc62d785d200791e52f64bbac422e2"),
        ("verify containment --family file:{empty_universe} --r 1 --m 1 --delta 1/2 "
         "--trials 20000", 0,
         "ce4de6a7fd7b7863c68bdaa1090bd20f84d1975f11c2d8a936d4059f9989f762"),
        ("verify nonintersect --k 3 --l 2 --t 2 --t-set 1,2 --y 1,3,5|2,4,6", 1,
         "6f4495773deeff51ce2fb5b5b3b5b859cd165d0eb4dfeddc29b1f8b0b97003fb"),
        ("verify nonintersect --k 3 --l 2 --t 2 --t-set 1,2 --y 1,3,5|2,4,6 "
         "--format structured-records", 1,
         "2d9d4b05ebd3dd35759c78e3672d87760e9ad6e30d8ed35c5ee1fff1658fa2e2"),
    ],
)
def test_verify_output_pinned(capsys, tmp_path, argv, code, digest):
    # sha256 of the verify reports before their checks shared CheckReport.compare
    # (the later containment digests: from the per-trial Generator sampler,
    # before the sampler read raw Philox words; blocks --n 7 --l 4 --t 1:
    # since a report that asserts nothing reads vacuous; no-singleton: since
    # its product is rounded up to a dyadic each step; the empty member and
    # universe: from the raw-word numpy sampler; bell --n 6 --t 2 and --n 50
    # --mode formula: since the bell threshold and each power of its ratio
    # chain are rounded up to a dyadic; bell --n 1 and --n 20 --mode formula:
    # since those reports carry a note saying why they assert nothing; the
    # gated 600-part profiled check: since its head reads vacuous, with no
    # findings list to turn it to finding)
    paths = {}
    for name, text in (
        ("singletons", "N 4096\n" + "".join(f"{i}\n" for i in range(4096))),
        ("empty_member", "N 3\n0 1\n\n"),
        ("empty_universe", "N 0\n\n"),
    ):
        paths[name] = tmp_path / f"{name}.txt"
        paths[name].write_text(text, encoding="utf-8")
    assert main(argv.format(**paths).split()) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# a fixed subfamily of kl:3,3, in the edge indices of that universe
KL33_SUB = """\
N 36
0 1 2 9 13 14 27 34 35
0 1 2 9 18 19 26 33 35
0 1 2 9 20 24 25 33 34
0 1 2 9 20 26 27 31 32
0 1 2 13 18 20 25 32 35
0 1 2 13 19 24 26 32 34
0 1 2 13 19 25 27 31 33
0 1 2 14 18 24 27 32 33
0 1 2 14 18 25 26 31 34
0 1 2 14 19 20 24 31 35
0 3 4 8 12 14 27 34 35
0 3 4 8 17 19 26 33 35
1 4 7 9 15 17 26 33 35
1 4 11 13 15 17 25 32 35
1 4 14 15 17 22 24 32 33
1 4 14 15 17 25 26 29 31
1 7 11 14 15 17 24 31 35
1 7 13 15 17 22 25 31 33
"""


@pinned(
    "argv, code, digest",
    [
        ("approximate --family ct:2,4,2 --ambient kl:2,4 --r 2 --q 4 --r0 4 --t 1", 0,
         "d4216d7421748bd6e4c2fc4a62cf0f430943f71d86575b67e97d4e0d6dc12237"),
        ("approximate --family ct:2,4,2 --ambient kl:2,4 --r 2 --q 4 --r0 4 --t 1 "
         "--format structured-records", 0,
         "1da5db78761bf71e6176d019a908b6e8a3117b898608aea38aaf3c3738dd9505"),
        ("reduce sequence --family kl:2,3 --s 0,1;1,2;0,2 --q 2 --t 1", 0,
         "00c87303be0665c1f7fc1d4022e1b67ebe378e698979ace31000d487b852e720"),
        ("reduce sequence --family kl:2,3 --s 0,1;1,2;0,2 --q 2 --t 1 "
         "--format structured-records", 0,
         "05974be9503b4368036cf1d6864b55d19d59f58106f9ef144351d1e6f87d8cc1"),
        ("approximate --family bell:6 --r 2 --q 3 --r0 4 --t 1", 0,
         "34ac4d564f2abddfadd800141a389a084d9241100b2696a1c0881287c50ec908"),
        ("approximate --family bell:6 --r 2 --q 3 --r0 4 --t 1 --format structured-records", 0,
         "4d0c2adb28cc3154b10809bdc8a7f4b3a24d7fd493294ea7044600b6fa577822"),
        ("approximate --family file:{path} --ambient kl:3,3 --r 2 --q 9 --r0 4 --t 1", 0,
         "8b027d4ca1157df8807c34482a04020a352a8aeb47031b75d5f2b8a0c2a23a76"),
        ("approximate --family file:{path} --ambient kl:3,3 --r 2 --q 9 --r0 4 --t 1 "
         "--format structured-records", 0,
         "ccae14ee2a9f6901e5dabfc2bc428f93a557571497756907b428bacd4485657e"),
    ],
)
def test_approx_output_pinned(tmp_path, capsys, argv, code, digest):
    # sha256 of the approximate and reduce reports before the peel held its
    # families as member bitmasks
    path = tmp_path / "kl33_sub.txt"
    path.write_text(KL33_SUB)
    assert main(argv.format(path=path).split()) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_approximate_parses_r0_before_peeling(capsys, monkeypatch):
    peel = mock.Mock(wraps=cli.spread_approximate)
    monkeypatch.setattr(cli, "spread_approximate", peel)
    argv = "approximate --family bell:6 --r 2 --q 3 --r0 x --t 1"
    assert main(argv.split()) == 2
    assert capsys.readouterr().err == "error: 'x' is not a rational number\n"
    assert peel.call_count == 0


def test_programming_error_propagates(monkeypatch):
    def broken(args):
        raise TypeError("a defect, not a usage error")

    monkeypatch.setitem(cli.HANDLERS, "count", broken)
    with pytest.raises(TypeError, match="a defect"):
        main(["count", "bell", "--n", "3"])


def test_integrity_error_propagates(monkeypatch):
    # a failed internal self-check is a defect, not a usage error (exit 2)
    def broken(*args):
        raise IntegrityError("canonical family size 1 != closed form 2")

    monkeypatch.setattr(cli, "check_conjecture_instance", broken)
    with pytest.raises(IntegrityError, match="closed form"):
        main(["extremal", "conjecture", "--k", "2", "--l", "3", "--t", "2"])


def test_searches_deeper_than_the_recursion_limit(tmp_path, capsys):
    # a clique of 1,716 vertices (the complete graph on u(7,2)), a sunflower
    # of 1,100 petals and a partition into 1,200 singletons, each search
    # deeper than Python's recursion limit
    argv = "extremal oracle --setting uniform --k 7 --l 2 --predicate t-intersect --t 0"
    code, out = run_cli(capsys, *argv.split(), "--format", "structured-records")
    assert code == 0
    assert out.split("\t")[1:4] == [
        "setting=uniform,k=7,l=2,predicate=t-intersect,t=0,nodes=1716", "1716", "1716"
    ]
    path = tmp_path / "singletons.txt"
    path.write_text("N 1200\n" + "".join(f"{i}\n" for i in range(1200)))
    argv = ["spread", "sunflower", "--family", f"file:{path}", "--l", "1100"]
    code, out = run_cli(capsys, *argv, "--format", "structured-records")
    _, _, core, _, petals, _ = out.rstrip("\n").split("\t")
    assert code == 0
    assert core == "[]" and petals.split(";") == [f"[{i}]" for i in range(1100)]
    argv = ["enumerate", "profiled", "--profile", ",".join(["1"] * 1200), "--list"]
    code, out = run_cli(capsys, *argv, "--format", "structured-records")
    head, only = out.splitlines()
    assert code == 0 and head.split("\t")[2] == "1"
    assert only.split("\t")[2] == "Partition[" + "|".join(map(str, range(1, 1201))) + "]"


@pytest.mark.parametrize(
    "family, handoff",
    [
        # T_1 is one t-set: |A[T_0 minus W_0]| = 1 <= (q/r)|A[T]| is compared
        ("kl:2,3", "reduction-handoff\ti=1,aT=3\t1\t3*3/r\t-\tpass"),
        # no ambient member holds a set of T_0 minus W_0: lhs 0 passes without r
        ("bell:4", "reduction-handoff\ti=1,aT=5\t0\t0\t-\tpass"),
    ],
)
def test_reduction_handoff_report(capsys, family, handoff):
    argv = ["reduce", "sequence", "--family", family, "--s", "0,1,2;0,3;1,3;2,3",
            "--q", "3", "--t", "1", "--format", "structured-records"]
    code, out = run_cli(capsys, *argv)
    assert code == 0
    lines = out.splitlines()
    assert [l for l in lines if l.startswith("reduction-handoff")] == [handoff]
    assert len(lines) == 16 and all(l.endswith(("pass", "info")) for l in lines)


def test_profiled_family_spec_and_enumeration(capsys):
    code, out = run_cli(capsys, "enumerate", "profiled", "--profile", "1,2,2", "--list")
    rows = [l.split() for l in out.splitlines()[1:]]
    assert code == 0 and rows[0][:3] == ["enumerate", "profile=1,2,2", "15"]
    assert [r[2] for r in rows[1:3]] == ["Partition[1|2,3|4,5]", "Partition[1|2,4|3,5]"]
    assert len(rows) == 16
    code, out = run_cli(
        capsys, "spread", "factor", "--family", "profiled:1,2,2", "--format", "structured-records"
    )
    assert code == 0
    assert out == "spread-factor\tfamily=profiled:1,2,2,scanned=75\t2.4662121\t-\t[0, 1, 2]\tinfo\n"


def test_reduce_dominance_reads_r(capsys):
    # --r replaces the weak-spread r in the gate eps*r >= 24q only
    argv = ["reduce", "dominance", "--family", "kl:2,3", "--s", "0,1;1,2;0,2", "--t", "1",
            "--format", "structured-records"]
    _, plain = run_cli(capsys, *argv)
    code, given = run_cli(capsys, *argv, "--r", "96")
    assert code == 0
    assert plain.splitlines()[1].endswith("\tgated")
    gate = "dominance-gate\tq=2,eps=1/2\teps*r\t48\t-\tpass"
    assert given.splitlines() == [plain.splitlines()[0], gate]
    assert run_cli(capsys, *argv, "--r", "95")[1] == plain


def test_sunflower_scan_that_finds_none(capsys):
    # K_6 has at most 5 disjoint perfect matchings, and only 3 hold any one
    # edge: l = 6 scans every core and finds no sunflower
    code, out = run_cli(
        capsys, "spread", "sunflower", "--family", "kl:2,3", "--l", "6",
        "--format", "structured-records",
    )
    assert code == 0 and out == "sunflower\tfamily=kl:2,3,l=6\tnone\t-\t-\tinfo\n"


def test_approximate_rejects_a_family_outside_the_ambient(capsys):
    argv = "approximate --family kl:2,4 --ambient ct:2,4,2 --r 2 --q 4".split()
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: --family is not a subfamily of --ambient\n"


def _readme_examples() -> list[list[str]]:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("Examples:\n\n```\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line) for line in block.splitlines() if line.strip()]


def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys):
    # every command of README's example block, run from a directory that
    # holds the catalog file it names
    monkeypatch.chdir(tmp_path)
    (tmp_path / "instances.txt").write_text("partial 2 3 2 6 3\nbell - - 1 3 2\nblocks - 3 2 5 1\n")
    examples = _readme_examples()
    assert len(examples) == 10 and all(argv[0] == "partspread" for argv in examples)
    for argv in examples:
        assert main(argv[1:]) == 0, argv
        assert capsys.readouterr().err == "", argv
    assert len((tmp_path / "results.txt").read_text().splitlines()) == 3


def test_load_subfamily_encodes_over_the_ambient(tmp_path):
    u, _ = load_family("bell:5")
    fam = load_subfamily("blocks:5,2", u)
    assert fam.universe is u
    assert list(fam.masks) == [encode_parts(p, u).mask for p in enumerate_into_blocks(5, 2)]

    u, _ = load_family("kl:2,4")
    fam = load_subfamily("ct:2,4,2", u)
    _, canon = canonical_family("partial", t=2, profile=Profile.uniform(2, 4))
    assert fam.universe is u
    assert list(fam.masks) == [encode_edges(p, u).mask for p in canon]

    u, ambient = load_family("kl:2,3")
    path = tmp_path / "kl23.txt"
    path.write_text(family_to_text(ambient))
    fam = load_subfamily(f"file:{path}", u)
    assert fam.universe is u
    assert list(fam.masks) == [encode_edges(p, u).mask for p in enumerate_uniform(2, 3)]

    with pytest.raises(DomainError) as exc:
        load_subfamily("blocks:4,2", load_family("bell:5")[0])
    assert str(exc.value) == "family spec 'blocks:4,2' does not match the ambient universe"

"""Command-line front end.

Every subcommand is a thin adapter: it parses flags, loads or builds the
requested family, calls one library operation and renders its records.
Identical invocations produce byte-identical reports (all randomness is
seeded).  Exit codes: 0 all verdicts pass/informational, 1 some verdict
failed, 2 usage or guard error.
"""

from __future__ import annotations

import argparse
import sys

from . import guards
from .approx import (
    check_dominance,
    minimize_t_intersecting,
    reduction_sequence,
    spread_approximate,
    verify_approx,
)
from .encoding import encode_family_edges, encode_family_parts, spec_candidates
from .errors import DomainError, PreconditionError, ResourceLimitError
from .exact import parse_ratio
from .extremal import (
    canonical_family,
    check_conjecture_instance,
    max_compatible_family,
    require_oracle,
    run_catalog,
)
from .partitions import (
    Partition,
    Profile,
    bell,
    count_derangements,
    count_profiled,
    enumerate_into_blocks,
    enumerate_partitions,
    enumerate_profiled,
    iter_partitions,
    stirling2,
    tilde_bell,
    u_count,
)
from .report import FAIL, INFO, PASS, Record, records_to_table, records_to_text
from .setfam import SetFamily, covering_number, family_from_text, family_to_text, mask_indices
from .spread import find_sunflower, is_r_spread, spread_factor, weak_spread
from .verify import (
    check_bell_ratio,
    check_dobinski,
    check_encoded_spreadness,
    check_no_singleton_bound,
    check_nonintersect_count,
    check_stirling_growth,
    check_random_containment,
)

# --guard-<flag> -> the guards.Limits field it sets
GUARD_FLAGS = {
    "enum": "enum_max_n",
    "profiled": "profiled_enum_max",
    "spread": "spread_candidate_max",
    "clique": "clique_vertex_max",
    "sunflower": "sunflower_family_max",
    "cover-universe": "cover_universe_max",
    "cover-family": "cover_family_max",
    "scan": "subfamily_scan_max",
}


def _required(args, name: str):
    """The value of a flag that the chosen subcommand cannot run without."""
    value = getattr(args, name)
    if value is None:
        flag = "--" + name.replace("_", "-")
        command = " ".join(filter(None, (args.command, getattr(args, "what", None))))
        raise DomainError(f"{command} needs {flag}")
    return value


def _parse_int_list(text: str, count: int | None = None) -> tuple[int, ...]:
    """Comma-separated integers, exactly `count` of them when count is given."""
    try:
        values = tuple(int(x) for x in text.split(","))
    except ValueError:
        values = None
    if values is None or count not in (None, len(values)):
        raise DomainError(f"expected {count or 'some'} comma-separated integer(s), got {text!r}")
    return values


def _parse_profile(text: str) -> Profile:
    return Profile(_parse_int_list(text))


def _parse_partition(text: str) -> Partition:
    return Partition([_parse_int_list(blk) for blk in text.split("|")])


def _spec_partitions(spec: str):
    """Partition list plus encoding kind for a partition-backed family spec."""
    kind, _, rest = spec.partition(":")
    if kind == "bell":
        return "parts", enumerate_partitions(*_parse_int_list(rest, 1))
    if kind == "blocks":
        return "parts", enumerate_into_blocks(*_parse_int_list(rest, 2))
    if kind == "profiled":
        return "parts", enumerate_profiled(_parse_profile(rest))
    if kind == "kl":
        return "edges", enumerate_profiled(Profile.uniform(*_parse_int_list(rest, 2)))
    if kind == "ct":
        k, l, t = _parse_int_list(rest, 3)
        _, members = canonical_family("partial", t=t, profile=Profile.uniform(k, l))
        return "edges", members
    if kind == "file":
        return "file", rest
    raise DomainError(f"unknown family spec {spec!r}")


def _spread_plan(spec: str):
    """`encoding.spec_candidates` of a family spec; None where it does not parse."""
    kind, _, rest = spec.partition(":")
    try:
        values = _parse_profile(rest).sizes if kind == "profiled" else _parse_int_list(rest)
    except DomainError:
        return None
    return spec_candidates(kind, values)


def load_family(spec: str, universe=None):
    """Build (universe, family) from a family spec string.

    Specs: bell:N | blocks:N,L | profiled:K1,K2,... | kl:K,L | ct:K,L,T
    | file:PATH.  The first three are parts-encoded, kl and ct are
    edge-encoded, file loads the text format over a plain universe.  With a
    universe given, the family is encoded over it (shared index space).
    """
    encoding, payload = _spec_partitions(spec)
    if encoding == "file":
        with open(payload, "r", encoding="utf-8") as fh:
            f = family_from_text(fh.read(), universe=universe)
        return f.universe, f
    if universe is not None and (universe.kind != encoding or universe.n != payload[0].n):
        raise DomainError(f"family spec {spec!r} does not match the ambient universe")
    encode = encode_family_edges if encoding == "edges" else encode_family_parts
    return encode(payload, universe)


def load_subfamily(spec: str, universe) -> SetFamily:
    """Build a family over an existing universe (shared index space)."""
    return load_family(spec, universe)[1]


def _family_from_indices(universe, text: str) -> SetFamily:
    """Parse 'i,j;k,l;...' into a family over an existing universe."""
    lines = [f"N {universe.size}"] + [part.replace(",", " ") for part in text.split(";")]
    return family_from_text("\n".join(lines) + "\n", universe=universe)


# ---------------------------------------------------------------------------
# subcommand handlers: each returns a list of Records


def _run_count(args) -> list[Record]:
    if args.what == "bell":
        value = bell(_required(args, "n"))
        params = {"n": args.n}
    elif args.what == "stirling2":
        value = stirling2(_required(args, "n"), _required(args, "l"))
        params = {"n": args.n, "l": args.l}
    elif args.what == "tilde-bell":
        value = tilde_bell(_required(args, "n"))
        params = {"n": args.n}
    elif args.what == "profiled":
        value = count_profiled(_parse_profile(_required(args, "profile")))
        params = {"profile": args.profile}
    elif args.what == "uniform":
        value = u_count(_required(args, "k"), _required(args, "l"))
        params = {"k": args.k, "l": args.l}
    elif args.what == "derangements":
        value = count_derangements(_parse_partition(_required(args, "partition")))
        params = {"partition": args.partition}
    return [Record.make(f"count-{args.what}", params, value, "-", "-", INFO)]


def _run_enumerate(args) -> list[Record]:
    """Count the partitions while iterating; keep them only for --list."""
    if args.what == "partitions":
        fam = iter_partitions(_required(args, "n"))
        params = {"n": args.n}
    elif args.what == "blocks":
        fam = enumerate_into_blocks(_required(args, "n"), _required(args, "l"))
        params = {"n": args.n, "l": args.l}
    elif args.what == "profiled":
        fam = enumerate_profiled(_parse_profile(_required(args, "profile")))
        params = {"profile": args.profile}
    count, listed = 0, []
    for count, p in enumerate(fam, 1):
        if args.list:
            listed.append(Record.make("partition", {"i": count - 1}, repr(p), "-", "-", INFO))
    return [Record.make("enumerate", params, count, "-", "-", INFO)] + listed


def _run_spread(args) -> list[Record]:
    # the candidate guard is asked before the spec is enumerated, after every
    # check that came before it once the family was built
    plan = _spread_plan(args.family) if args.what in ("factor", "check", "weak") else None
    fam = None if plan else load_family(args.family)[1]
    r = parse_ratio(_required(args, "r")) if args.what == "check" else None
    t = _required(args, "t") if args.what == "weak" else None
    shapes = None
    if plan:
        shapes, candidates, top = plan
        # flags the scans refuse never reach the guard, so they do not ask it
        if (r is None or r > 0) and (t is None or 0 <= t <= top):
            guards.require("spread_candidate_max", candidates, "candidate sets")
        fam = load_family(args.family)[1]
    if args.what == "factor":
        rep = spread_factor(fam, shapes)
        return [
            Record.make(
                "spread-factor",
                {"family": args.family, "scanned": rep.scanned},
                f"{float(rep.r_star):.8g}",
                "-",
                "-" if rep.witness is None else str(rep.witness.indices()),
                INFO,
            )
        ]
    if args.what == "check":
        ok, witness = is_r_spread(fam, r, shapes)
        return [
            Record.make(
                "spread-check",
                {"family": args.family, "r": r},
                ok,
                "-",
                "-" if witness is None else str(witness.indices()),
                PASS if ok else FAIL,
            )
        ]
    if args.what == "weak":
        t_set, r_weak, witness = weak_spread(fam, t, shapes)
        return [
            Record.make(
                "spread-weak",
                {"family": args.family, "t": args.t, "T": str(t_set.indices())},
                f"{float(r_weak):.8g}",
                "-",
                "-" if witness is None else str(witness.indices()),
                INFO,
            )
        ]
    if args.what == "sunflower":
        got = find_sunflower(fam, _required(args, "l"))
        if got is None:
            return [
                Record.make(
                    "sunflower", {"family": args.family, "l": args.l}, "none", "-", "-", INFO
                )
            ]
        core, petals = got
        return [
            Record.make(
                "sunflower",
                {"family": args.family, "l": args.l},
                str(core.indices()),
                "-",
                ";".join(str(p.indices()) for p in petals),
                INFO,
            )
        ]
    if args.what == "covering":
        tau, witness = covering_number(fam)
        return [
            Record.make(
                "covering-number",
                {"family": args.family},
                tau,
                "-",
                str(witness.indices()),
                INFO,
            )
        ]


def _run_approximate(args) -> list[Record]:
    checked = args.r0 is not None or args.t is not None
    if checked:  # the guarantee checks need both --r0 and --t
        _required(args, "t")
        _required(args, "r0")
    if args.ambient:
        universe, ambient = load_family(args.ambient)
        fam = load_subfamily(args.family, universe)
        if not set(fam.masks).issubset(ambient.masks):
            raise DomainError("--family is not a subfamily of --ambient")
    else:
        universe, fam = load_family(args.family)
        ambient = fam
    r = parse_ratio(args.r)
    r0 = parse_ratio(args.r0) if checked else None
    res = spread_approximate(fam, r, args.q)
    recs = res.records()
    if checked:
        recs += verify_approx(res, ambient, r0, args.t)
    return recs


def _run_reduce(args) -> list[Record]:
    universe, ambient = load_family(args.family)
    s = _family_from_indices(universe, _required(args, "s"))
    if args.what == "minimize":
        out = minimize_t_intersecting(s, args.t, _required(args, "q"))
        return [
            Record.make(
                "minimize",
                {"t": args.t, "p": args.q},
                s.size,
                out.size,
                ";".join(str(mask_indices(m)) for m in out.masks),
                INFO,
            )
        ]
    if args.what == "sequence":
        r = parse_ratio(args.r) if args.r else None
        levels, checks = reduction_sequence(ambient, s, _required(args, "q"), args.t, r=r)
        recs = []
        for i, (t_i, w_i) in enumerate(levels):
            recs.append(
                Record.make(
                    "reduction-level", {"i": i}, t_i.size, w_i.size, "-", INFO
                )
            )
        return recs + checks
    if args.what == "dominance":
        r = parse_ratio(args.r) if args.r else None
        return check_dominance(ambient, s, args.t, parse_ratio(args.eps), r=r)


def _run_extremal(args) -> list[Record]:
    if args.what == "conjecture":
        return check_conjecture_instance(
            _required(args, "k"), _required(args, "l"), _required(args, "t")
        )
    if args.what == "oracle":
        # the universe's closed-form size is refused before it is enumerated;
        # bell and blocks ask the enumeration guard on n before computing it
        if args.setting == "bell":
            n = _required(args, "n")
            guards.require("enum_max_n", n, "n")
            size, enumerate_universe = bell(n), lambda: enumerate_partitions(n)
            params = {"setting": "bell", "n": n}
        elif args.setting == "blocks":
            n, l = _required(args, "n"), _required(args, "l")
            guards.require("enum_max_n", n, "n")
            size, enumerate_universe = stirling2(n, l), lambda: enumerate_into_blocks(n, l)
            params = {"setting": "blocks", "n": n, "l": l}
        elif args.setting in ("uniform", "profiled"):
            if args.setting == "uniform":
                profile = Profile.uniform(_required(args, "k"), _required(args, "l"))
                params = {"setting": "uniform", "k": args.k, "l": args.l}
            else:
                profile = _parse_profile(_required(args, "profile"))
                params = {"setting": "profiled", "profile": args.profile}
            size, enumerate_universe = count_profiled(profile), lambda: enumerate_profiled(profile)
        else:
            raise DomainError(f"unknown oracle setting {args.setting!r}")
        require_oracle(args.predicate, _required(args, "t"), size)
        universe = enumerate_universe()
        res = max_compatible_family(universe, args.predicate, args.t)
        params.update({"predicate": args.predicate, "t": args.t, "nodes": res.nodes})
        return [
            Record.make(
                "oracle", params, res.max_size, len(universe), "-", INFO
            )
        ]
    if args.what == "canonical":
        t_set = _parse_int_list(args.t_set) if args.t_set else None
        if t_set is not None and args.t not in (None, len(t_set)):
            raise DomainError(f"--t {args.t} differs from the size {len(t_set)} of --t-set")
        n = _required(args, "n") if args.setting in ("bell", "blocks") else 0
        l = _required(args, "l") if args.setting == "blocks" else 0
        t = len(t_set) if t_set else _required(args, "t")
        profile = _parse_profile(args.profile) if args.profile else None
        _, members = canonical_family(args.setting, n, l, t, profile, t_set)
        return [
            Record.make(
                "canonical", {"setting": args.setting, "t": t}, len(members), "-", "-", INFO
            )
        ]
    if args.what == "catalog":
        with open(_required(args, "file"), "r", encoding="utf-8") as fh:
            records = run_catalog(fh.read())
        if args.results:
            with open(args.results, "a", encoding="utf-8") as fh:
                fh.write(records_to_text(records))
        return records


def _run_verify(args) -> list[Record]:
    if args.what == "bell-ratio":
        rep = check_bell_ratio(_required(args, "n_max"))
    elif args.what == "dobinski":
        rep = check_dobinski(_required(args, "n"), _required(args, "s_max"))
    elif args.what == "no-singleton":
        rep = check_no_singleton_bound(_required(args, "s_max"))
    elif args.what == "stirling-growth":
        rep = check_stirling_growth(_required(args, "l_max"), _required(args, "n_cap"))
    elif args.what == "spreadness":
        rep = check_encoded_spreadness(
            _required(args, "setting"),
            n=args.n,
            l=args.l,
            t=args.t,
            k=args.k,
            profile=_parse_profile(args.profile) if args.profile else None,
            mode=args.mode,
            s_max=args.s_max,
        )
    elif args.what == "containment":
        _, fam = load_family(_required(args, "family"))
        rep = check_random_containment(
            fam, parse_ratio(_required(args, "r")), _required(args, "m"),
            parse_ratio(_required(args, "delta")), args.trials, args.seed,
        )
    elif args.what == "nonintersect":
        rep = check_nonintersect_count(
            _required(args, "k"), _required(args, "l"), _required(args, "t"),
            _parse_int_list(_required(args, "t_set")), _parse_partition(_required(args, "y")),
        )
    return rep.records()


def _run_export(args) -> list[Record]:
    _, fam = load_family(args.family)
    text = family_to_text(fam)
    with open(args.path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return [Record.make("export", {"family": args.family, "path": args.path}, fam.size, "-", "-", INFO)]


HANDLERS = {
    "count": _run_count,
    "enumerate": _run_enumerate,
    "spread": _run_spread,
    "approximate": _run_approximate,
    "reduce": _run_reduce,
    "extremal": _run_extremal,
    "verify": _run_verify,
    "export": _run_export,
}


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", type=str, default=None)
    p.add_argument(
        "--format", choices=("text-table", "structured-records"), default="text-table"
    )
    for flag, field in GUARD_FLAGS.items():
        p.add_argument(f"--guard-{flag}", type=int, default=None, dest=field)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="partspread",
        description="spread-approximation toolkit for set-partition families",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count")
    p.add_argument("what", choices=("bell", "stirling2", "tilde-bell", "profiled", "uniform", "derangements"))
    p.add_argument("--n", type=int)
    p.add_argument("--l", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--profile", type=str)
    p.add_argument("--partition", type=str)
    _add_common(p)

    p = sub.add_parser("enumerate")
    p.add_argument("what", choices=("partitions", "blocks", "profiled"))
    p.add_argument("--n", type=int)
    p.add_argument("--l", type=int)
    p.add_argument("--profile", type=str)
    p.add_argument("--list", action="store_true")
    _add_common(p)

    p = sub.add_parser("spread")
    p.add_argument("what", choices=("factor", "check", "weak", "sunflower", "covering"))
    p.add_argument("--family", type=str, required=True)
    p.add_argument("--r", type=str)
    p.add_argument("--t", type=int)
    p.add_argument("--l", type=int)
    _add_common(p)

    p = sub.add_parser("approximate")
    p.add_argument("--family", type=str, required=True)
    p.add_argument("--ambient", type=str, default=None)
    p.add_argument("--r", type=str, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--r0", type=str, default=None)
    p.add_argument("--t", type=int, default=None)
    _add_common(p)

    p = sub.add_parser("reduce")
    p.add_argument("what", choices=("minimize", "sequence", "dominance"))
    p.add_argument("--family", type=str, required=True, help="ambient family spec")
    p.add_argument("--s", type=str, default=None, help="members as 'i,j;k,l' indices")
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--r", type=str, default=None)
    p.add_argument("--eps", type=str, default="1/2")
    _add_common(p)

    p = sub.add_parser("extremal")
    p.add_argument("what", choices=("conjecture", "oracle", "canonical", "catalog"))
    p.add_argument("--setting", type=str, default="uniform")
    p.add_argument("--predicate", choices=("t-intersect", "partially-t-intersect"),
                   default="partially-t-intersect")
    p.add_argument("--n", type=int)
    p.add_argument("--l", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--t", type=int)
    p.add_argument("--profile", type=str)
    p.add_argument("--t-set", type=str, default=None)
    p.add_argument("--file", type=str, help="instance catalog path")
    p.add_argument("--results", type=str, help="append records to this file")
    _add_common(p)

    p = sub.add_parser("verify")
    p.add_argument("what", choices=(
        "bell-ratio", "dobinski", "no-singleton", "stirling-growth",
        "spreadness", "containment", "nonintersect",
    ))
    p.add_argument("--n-max", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--s-max", type=int)
    p.add_argument("--l-max", type=int)
    p.add_argument("--n-cap", type=int)
    p.add_argument("--setting", type=str)
    p.add_argument("--l", type=int)
    p.add_argument("--t", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--profile", type=str)
    p.add_argument("--mode", choices=("direct", "formula", "both"), default="both")
    p.add_argument("--family", type=str)
    p.add_argument("--r", type=str)
    p.add_argument("--m", type=int)
    p.add_argument("--delta", type=str)
    p.add_argument("--trials", type=int, default=10**4)
    p.add_argument("--t-set", type=str)
    p.add_argument("--y", type=str)
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)

    p = sub.add_parser("export", help="write a family to the text format")
    p.add_argument("--family", type=str, required=True)
    p.add_argument("--path", type=str, required=True)
    _add_common(p)
    return ap


def run(args) -> int:
    """Execute one command, write its report, return the exit code."""
    try:
        records = HANDLERS[args.command](args)
        if args.format == "structured-records":
            text = records_to_text(records)
        else:
            text = records_to_table(records)
        sys.stdout.write(text)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
    except (DomainError, PreconditionError, ResourceLimitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 1 if any(r.verdict == FAIL for r in records) else 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    flags = vars(args)
    given = {f: flags[f] for f in GUARD_FLAGS.values() if flags[f] is not None}
    with guards.limited(**given):
        return run(args)


if __name__ == "__main__":
    sys.exit(main())

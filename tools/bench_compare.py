"""Benchmark a base revision against the working tree and write one JSON file.

    python3 tools/bench_compare.py --base HEAD~1 --out BENCH_<n>.json

Each side is exported into a fresh directory: the base revision with
`git archive`, the head side as the working tree's tracked and untracked, not
ignored, files.  So neither side starts with `__pycache__` bytecode, and the
caches a run leaves behind are removed before the next run.  In each of
ROUNDS rounds, every workload of perfbench/run.py runs at SEED on both sides.
Last, the tier-1 suite runs once on each side.  The output holds every
perfbench result line and each side's tier-1 wall time and summary line, and,
per workload, the [base, head] medians of each end-to-end metric.  When the
output is named BENCH_<n>.json and a BENCH_<m>.json with m < n sits next to
it, the head medians are also set against the head medians of the one with
the largest m, under "since".  Run it from the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

WORKLOADS = ("parts-spread", "clique-verify", "peel-edges")
END_TO_END = ("wall_s", "setup_s", "peak_rss_mb")
SEED = 0
SECONDS = 40
ROUNDS = 10  # base/head pairs per workload
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider"]


def median(side: dict, workload: str, metric: str) -> float:
    return statistics.median(r["metrics"][metric]["value"] for r in side["results"][workload])


def _git(root: Path, *args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=root, check=True, capture_output=True).stdout


def export_revision(root: Path, rev: str, dest: Path) -> str:
    """Write the files of `rev` under dest; returns its commit id."""
    dest.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=_git(root, "archive", rev), check=True)
    return _git(root, "rev-parse", rev).decode().strip()


def export_working_tree(root: Path, dest: Path) -> str:
    """Copy the working tree's tracked and untracked, not ignored, files under dest;
    returns a label."""
    dest.mkdir(parents=True)
    listed = _git(root, "ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in filter(None, listed.decode().split("\0")):
        if (root / name).is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(root / name, dest / name)
    return "working tree at " + _git(root, "rev-parse", "HEAD").decode().strip()


def clear_bytecode(tree: Path) -> None:
    for cache in list(tree.rglob("__pycache__")):
        shutil.rmtree(cache)


def perfbench(tree: Path, workload: str) -> dict:
    clear_bytecode(tree)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", str(SECONDS), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise RuntimeError(f"perfbench {workload} failed in {tree}: {proc.stderr.strip()}")
    return json.loads(lines[-1])


def tier1(tree: Path) -> dict:
    clear_bytecode(tree)
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    start = time.perf_counter()
    proc = subprocess.run(TIER1, cwd=tree, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    return {"wall_s": round(wall, 2), "exit": proc.returncode,
            "summary": lines[-1] if lines else ""}


def _bench_number(path: Path) -> int | None:
    match = re.fullmatch(r"BENCH_(\d+)\.json", path.name)
    return int(match[1]) if match else None


def since_previous(out: Path, medians: dict) -> dict | None:
    """Each head median against the head median of the previous BENCH file
    next to out: {"file", "medians": {workload: {metric: {previous, now, change}}}}."""
    n = _bench_number(out)
    earlier = sorted(
        (m, path) for path in out.parent.glob("BENCH_*.json")
        if n is not None and (m := _bench_number(path)) is not None and m < n
    )
    if not earlier:
        return None
    previous = earlier[-1][1]
    before = json.loads(previous.read_text(encoding="utf-8"))["medians"]
    return {
        "file": previous.name,
        "medians": {
            workload: {
                metric: {"previous": before[workload][metric][1], "now": now,
                         "change": now - before[workload][metric][1]}
                for metric, (_, now) in metrics.items() if metric in before.get(workload, {})
            }
            for workload, metrics in medians.items()
        },
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="git revision of the baseline")
    ap.add_argument("--out", required=True, type=Path, help="JSON file to write")
    args = ap.parse_args()

    root = Path.cwd()
    with tempfile.TemporaryDirectory(prefix="bench-compare-") as tmp:
        trees = {"base": Path(tmp) / "base", "head": Path(tmp) / "head"}
        sides = {"base": {"rev": export_revision(root, args.base, trees["base"]), "results": {}},
                 "head": {"rev": export_working_tree(root, trees["head"]), "results": {}}}
        for round_ in range(ROUNDS):
            # alternate which side runs first, so that neither always runs on
            # the host the other has just warmed up
            order = list(trees.items())[:: -1 if round_ % 2 else 1]
            for workload in WORKLOADS:
                for side, tree in order:
                    result = perfbench(tree, workload)
                    sides[side]["results"].setdefault(workload, []).append(result)
                    wall = result["metrics"]["wall_s"]["value"]
                    print(f"{side} {workload}: wall_s {wall:.4f}", file=sys.stderr)
        for side, tree in trees.items():
            sides[side]["tier1"] = tier1(tree)
            print(f"{side} tier-1: {sides[side]['tier1']}", file=sys.stderr)
    medians = {workload: {metric: [median(side, workload, metric) for side in sides.values()]
                          for metric in END_TO_END}
               for workload in WORKLOADS}
    report = {
        "host": {"machine": platform.machine(), "python": platform.python_version(),
                 "cpus": os.cpu_count()},
        "seed": SEED,
        "seconds": SECONDS,
        "rounds": ROUNDS,
        "medians": medians,
        "since": since_previous(args.out, medians),
        **sides,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

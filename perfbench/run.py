"""Benchmark of the partspread CLI: fixed job lists, each job in a fresh process.

Usage (from the repository root):

    python3 perfbench/run.py --workload parts-spread --seed 0 --seconds 40 --trace 0

Load model: a closed loop with one client.  The jobs of a workload run back
to back, each in a fresh interpreter that starts after the previous one has
exited, so no cache of the library (``bell``, ``stirling2``, the ``ln``/``log2``
enclosures) is ever warm.  Every job runs twice round robin, so every report
can be compared byte for byte with the same job's report from another run,
and then as ``next_job`` picks, for up to ``--seconds``.

With ``--trace 0`` the end-to-end metrics are printed: ``wall_s`` (the sum
over jobs of each job's median time from just after ``import partspread.cli``
until ``cli.main`` returns with the report written), ``setup_s`` (median
import time of ``partspread.cli`` over every job process) and
``peak_rss_mb`` (highest peak resident memory of any job process).  With
``--trace 1`` untraced and traced passes alternate and the per-layer
metrics of ``tracer.py`` are printed, medians over the traced passes, with
the tracing overhead, the line count of each module and ``host.ref_s``.

Every time printed is scaled to a nominal host speed: each job process
times the fixed computation of ``reference.py`` before the import and after
the job, and its times are multiplied by ``REF_NOMINAL_S`` over the mean of
the two.  The shared host's speed drifts by 20-30% over minutes and swings
for seconds at a time, moving the reference with the job; the scaling
takes that out.  ``host.ref_s`` is the median reference time of the run,
and the unscaled figures are written to standard error.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a job fails when it
exits nonzero, prints a traceback or an error (a guard refusal), fails its
check in ``workloads.py`` or writes a report that differs from another run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, Job, parse_table

HERE = Path(__file__).resolve().parent
JOB_TIMEOUT_S = 150
MIN_RUNS = 2
# time of reference.reference() on the nominal host that reported times refer to
REF_NOMINAL_S = 0.07
# modules whose line count is reported; a fixed list keeps the metric set fixed
MODULES = (
    "__init__", "approx", "bounds", "cli", "encoding", "errors", "exact", "extremal",
    "guards", "partitions", "report", "setfam", "spread", "verify",
)


def run_job(job: Job, index: int, work: Path, env: dict, trace: bool) -> dict:
    """Run one job in a fresh interpreter; return its stats and verdict."""
    report = work / f"job{index}.out"
    stderr = work / f"job{index}.err"
    stats_path = work / f"job{index}.json"
    stats_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), str(stats_path), "1" if trace else "0"]
    with open(report, "wb") as out, open(stderr, "wb") as err:
        proc = subprocess.Popen(cmd + job.argv, stdout=out, stderr=err, env=env, cwd=work)
        try:
            code = proc.wait(timeout=JOB_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            return {"error": f"timed out after {JOB_TIMEOUT_S} s"}
    err_text = stderr.read_text(encoding="utf-8", errors="replace")
    if "Traceback" in err_text or "error:" in err_text:
        return {"error": f"stderr: {err_text.strip()[-300:]}"}
    if code != 0:
        return {"error": f"exit code {code}"}
    if not stats_path.exists():
        return {"error": "no stats written"}
    stats = json.loads(stats_path.read_text(encoding="utf-8"))
    data = report.read_bytes()
    stats["digest"] = hashlib.sha256(data).hexdigest()
    records = parse_table(data.decode("utf-8", errors="replace"))
    malformed = [r for r in records if len(r) != 6]
    try:
        problem = f"malformed report row {malformed[0]}" if malformed else job.check(records)
    except (ValueError, ZeroDivisionError) as exc:  # a field that does not parse
        problem = f"unreadable report field: {exc}"
    if problem:
        stats["error"] = problem
    return stats


class Runner:
    def __init__(self, jobs: list[Job], work: Path, env: dict):
        self.jobs = jobs
        self.work = work
        self.env = env
        self.digests: dict[int, str] = {}
        self.attempted = 0
        self.failed = 0
        self.imports: list[float] = []
        self.raw_imports: list[float] = []
        self.refs: list[float] = []
        self.maxrss_kb = 0

    def run(self, i: int, trace: bool) -> dict:
        """Run job i once, check it and compare its report with earlier runs."""
        job = self.jobs[i]
        stats = run_job(job, i, self.work, self.env, trace)
        self.attempted += 1
        if "digest" in stats:
            first = self.digests.setdefault(i, stats["digest"])
            if first != stats["digest"] and "error" not in stats:
                stats["error"] = "report differs from another run"
        if "error" in stats:
            self.failed += 1
            print(f"FAILED {' '.join(job.argv)[:120]}: {stats['error']}", file=sys.stderr)
        else:
            # scale this process's times to the reference speed
            scale = REF_NOMINAL_S / statistics.mean(stats["ref_s"])
            self.refs.extend(stats["ref_s"])
            self.raw_imports.append(stats["import_s"])
            self.imports.append(scale * stats["import_s"])
            stats["raw_main_s"] = stats["main_s"]
            stats["main_s"] *= scale
            layers = stats.get("layers", {})
            for key in layers:
                if key.endswith("_s"):
                    layers[key] *= scale
            self.maxrss_kb = max(self.maxrss_kb, stats["maxrss_kb"])
        return stats

    def run_pass(self, trace: bool) -> list[dict]:
        results = [self.run(i, trace) for i in range(len(self.jobs))]
        if not self.imports:
            raise RuntimeError("every job failed; nothing was measured")
        return results


def wall(results: list[dict]) -> float:
    return sum(s.get("main_s", 0.0) for s in results)


def next_job(runs: list[int], samples: list[list[float]], cost: list[float]) -> int:
    """The job whose number of runs lags most behind its share.

    `wall_s` sums the jobs' medians, whose noise grows with the job's time t,
    and a run costs t plus the interpreter start.  Runs in proportion to
    t / sqrt(cost) give the sum the least variance for the time spent, so a
    job of a few milliseconds is not rerun as often as a job of a second.
    """
    def share(j: int) -> float:
        t = statistics.median(samples[j]) if samples[j] else cost[j]
        return t / math.sqrt(cost[j])

    return min(range(len(runs)), key=lambda j: runs[j] / share(j))


def end_to_end(runner: Runner, seconds: float) -> dict:
    """Run every job MIN_RUNS times round robin, then as `next_job` picks, for up to `seconds`.

    A job's time is the median of its runs and `wall_s` sums these over the
    jobs.  Past MIN_RUNS, a job starts only if its last run, interpreter
    start included, would still end within `seconds`.
    """
    start = time.perf_counter()
    n = len(runner.jobs)
    runs = [0] * n
    cost = [0.0] * n
    samples: list[list[float]] = [[] for _ in runner.jobs]
    raw: list[list[float]] = [[] for _ in runner.jobs]
    i = 0
    while min(runs) < MIN_RUNS or time.perf_counter() - start + cost[i] < seconds:
        t = time.perf_counter()
        stats = runner.run(i, trace=False)
        cost[i] = time.perf_counter() - t
        runs[i] += 1
        if "error" not in stats:
            samples[i].append(stats["main_s"])
            raw[i].append(stats["raw_main_s"])
        i = (i + 1) % n if min(runs) < MIN_RUNS else next_job(runs, samples, cost)
    if not runner.imports:
        raise RuntimeError("every job failed; nothing was measured")
    for job, times in zip(runner.jobs, samples):
        print(f"{' '.join(job.argv)[:60]:60s} " + " ".join(f"{t:.3f}" for t in times),
              file=sys.stderr)
    print(f"unscaled: wall_s {sum(statistics.median(t) for t in raw if t):.4f}, "
          f"setup_s {statistics.median(runner.raw_imports):.4f}; "
          f"reference {statistics.median(runner.refs):.4f} s", file=sys.stderr)
    return {
        "wall_s": (sum(statistics.median(t) for t in samples if t), "s"),
        "setup_s": (statistics.median(runner.imports), "s"),
        "peak_rss_mb": (runner.maxrss_kb / 1024, "MB"),
    }


def per_layer(runner: Runner, seconds: float, root: Path) -> dict:
    """Alternate untraced and traced passes while another pair fits in `seconds`."""
    start = time.perf_counter()
    plain, traced = [], []
    pair_s = 0.0
    while not traced or time.perf_counter() - start + pair_s < seconds:
        pair_start = time.perf_counter()
        plain.append(wall(runner.run_pass(trace=False)))
        totals: dict[str, float] = {}
        for stats in runner.run_pass(trace=True):
            for key, value in stats.get("layers", {}).items():
                totals[key] = totals.get(key, 0) + value
        traced.append(totals)
        pair_s = time.perf_counter() - pair_start
    keys = sorted(traced[0])
    med = {k: statistics.median(t.get(k, 0) for t in traced) for k in keys}
    out = {}
    for key in keys:
        if key.endswith("_s"):
            out[key] = (med[key], "s")
        elif not key.startswith("bounds.cache_"):
            out[key] = (med[key], "count")
    lookups = med["bounds.cache_hits"] + med["bounds.cache_misses"]
    out["bounds.enclosure_hit_ratio"] = (med["bounds.cache_hits"] / lookups if lookups else 0.0,
                                         "ratio")
    out["trace.overhead_s"] = (med["trace.wall_s"] - statistics.median(plain), "s")
    del out["trace.wall_s"]
    out["host.ref_s"] = (statistics.median(runner.refs), "s")
    for mod in MODULES:
        path = root / "src" / "partspread" / f"{mod}.py"
        lines = len(path.read_text(encoding="utf-8").splitlines()) if path.exists() else 0
        out[f"{mod.strip('_')}.loc"] = (lines, "lines")
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    src = root / "src"
    if not (src / "partspread" / "cli.py").is_file():
        print(f"error: no partspread sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        jobs = WORKLOADS[args.workload](args.seed, work)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src), env.get("PYTHONPATH")) if p
        )
        runner = Runner(jobs, work, env)
        if args.trace:
            metrics = per_layer(runner, args.seconds, root)
        else:
            metrics = end_to_end(runner, args.seconds)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"jobs={len(jobs)} attempted={runner.attempted} failed={runner.failed}")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

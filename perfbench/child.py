"""Run one partspread CLI job in this fresh interpreter and time it.

Usage: python3 child.py STATS_PATH TRACE ARGV...

The report goes to this process's standard output, which the parent points
at a file.  STATS_PATH receives one JSON object: the exit code, the times
of the fixed computation in ``reference.py`` run first and last
(``ref_s``), the import time of ``partspread.cli`` (``import_s``), the
time ``cli.main`` takes until the report is written (``main_s``), the peak
resident memory of this process and, with TRACE=1, the per-layer figures
of ``tracer.Tracer``.
"""

import json
import resource
import sys
import time

from reference import timed_reference


def main() -> int:
    stats_path, trace = sys.argv[1], sys.argv[2] == "1"
    argv = sys.argv[3:]
    ref_first = timed_reference()
    t0 = time.perf_counter()
    from partspread import cli

    import_s = time.perf_counter() - t0
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    t1 = time.perf_counter()
    code = cli.main(argv)
    sys.stdout.flush()
    main_s = time.perf_counter() - t1
    ref_last = timed_reference()
    stats = {
        "code": code,
        "ref_s": [ref_first, ref_last],
        "import_s": import_s,
        "main_s": main_s,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        stats["layers"] = tracer.summary(main_s)
    with open(stats_path, "w", encoding="utf-8") as fh:
        json.dump(stats, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())

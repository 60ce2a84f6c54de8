"""A fixed pure-Python computation that times the host, not partspread.

Each job process times ``reference()`` before it imports partspread and
again after the job, and ``run.py`` scales the process's timings by the
mean of the two.  The host this benchmark runs on is shared, and its speed
drifts by 20-30% over minutes and swings for seconds at a time; the
reference, timed in the same process around the job, follows that.

The computation calls no partspread code and runs with the cycle collector
paused, so objects the job left alive are never traversed: a change to the
program cannot move it.  It imports no module that partspread imports, so
the import time measured after it is unchanged.  It mixes the kinds of work
the program does: small-object allocation and hashing, integer bit
operations in an interpreted loop, and big-integer and rational arithmetic.
"""

import gc
import time
from math import gcd


def _partitions(n: int):
    """Set partitions of range(n) by restricted growth strings."""
    labels = [0] * n

    def rec(i: int, top: int):
        if i == n:
            blocks = [[] for _ in range(top)]
            for e, lab in enumerate(labels):
                blocks[lab].append(e)
            yield frozenset(frozenset(b) for b in blocks)
            return
        for lab in range(top + 1):
            labels[i] = lab
            yield from rec(i + 1, max(top, lab + 1))

    return rec(0, 0)


def reference() -> int:
    seen = set(_partitions(8))
    acc = len(seen)
    counts: dict[int, int] = {}
    for i in range(100000):
        m = (i * 2654435761) & 0xFFFFFF
        acc += m.bit_count()
        counts[m & 4095] = counts.get(m & 4095, 0) + 1
    row = [1]
    for _ in range(450):  # Bell triangle
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    acc += row[0] % 1000003
    num, den = 0, 1  # harmonic sum as a reduced fraction
    for k in range(1, 1000):
        num, den = num * k + den, den * k
        g = gcd(num, den)
        num, den = num // g, den // g
    return acc + len(counts) + num % 1000003


def timed_reference() -> float:
    """Seconds one ``reference()`` call takes, with the cycle collector paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        reference()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()

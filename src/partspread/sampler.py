"""The Monte Carlo sampler of verify.check_random_containment.

Philox4x64-10 (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3",
SC'11) in exact integers, run on many counters at once: each trial is one
128-bit lane of a packed Python int.  Only the standard library is used;
the tests check the outputs against numpy's Philox and Generator.
"""

from __future__ import annotations

import sys
from array import array
from typing import Sequence


def _word_rule(num: int, den: int, bits: int) -> tuple[int, int]:
    """(reject_below, cut) for drawing an element into W with probability num/den
    from uniform bits-wide words, 1 <= den <= 2^bits and 0 <= num <= den.

    A word x is rejected, and the next word taken, when
    (x * den) mod 2^bits < reject_below: the rejection of Lemire's bounded
    draw, which numpy's Generator.integers uses.  An accepted x puts the
    element in W when x < cut = ceil(num * 2^bits / den), which is the
    bounded draw (x * den) >> bits falling below num.
    """
    return (2**bits - den) % den, -(-(num << bits) // den)


# the round multipliers and key increments of Philox4x64-10
_PHILOX_MUL = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_BUMP = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)

# trials drawn side by side, one 128-bit lane of a packed int each, so that
# memory does not grow with the number of trials
_LANES = 2**12


def _philox_keys(seed: int) -> list[int]:
    """k0, k1 of each of the 10 rounds, from the key (seed mod 2^64, 0)."""
    keys, k0, k1 = [], seed % 2**64, 0
    for _ in range(10):
        keys += (k0, k1)
        k0, k1 = (k0 + _PHILOX_BUMP[0]) % 2**64, (k1 + _PHILOX_BUMP[1]) % 2**64
    return keys


def _packed(values: Sequence[int]) -> int:
    """The values, each below 2^64, one per 128-bit lane, the first lowest."""
    words = array("Q", bytes(16 * len(values)))
    words[::2] = array("Q", values)
    if sys.byteorder == "big":
        words.byteswap()
    return int.from_bytes(words.tobytes(), "little")


def _lane_lows(x: int, lanes: int) -> array:
    """The low 64 bits of each of the lanes of x, lowest lane first."""
    words = array("Q", x.to_bytes(16 * lanes, "little"))
    if sys.byteorder == "big":
        words.byteswap()
    return words[::2]


def _philox(block: int, ids: int, ones: int, mask: int, keys: Sequence[int]):
    """Block `block` of Philox4x64-10 in every lane: lane i runs the counter
    [block, 0, 0, t] with t lane i of ids.  ones, mask and keys hold 1,
    2^64 - 1 and the round keys in every lane.  Returns the outputs c0..c3,
    each one 64-bit word per lane.  A 64-bit word times a 64-bit multiplier
    fills its 128-bit lane and no more, so a round is a dozen operations on
    whole ints, the same for one lane as for thousands."""
    m0, m1 = _PHILOX_MUL
    c0, c1, c2, c3 = block * ones, 0, 0, ids
    for k in range(0, 20, 2):
        p0, p1 = c0 * m0, c2 * m1
        c0, c1, c2, c3 = (
            ((p1 >> 64) & mask) ^ c1 ^ keys[k],
            p1 & mask,
            ((p0 >> 64) & mask) ^ c3 ^ keys[k + 1],
            p0 & mask,
        )
    return c0, c1, c2, c3


def _kept_bits(inside: int, kept: int) -> tuple[int, int]:
    """The inside bits of the kept words, packed in order, and how many words were kept."""
    bits = count = 0
    while kept:
        low = kept & -kept
        if inside & low:
            bits |= 1 << count
        count += 1
        kept ^= low
    return bits, count


def hit_count(masks: Sequence[int], n: int, num: int, den: int, trials: int, seed: int) -> int:
    """How many trials t < trials draw a subset W of range(n), by the word
    rule of verify.check_random_containment, that contains a member of masks.

    W is, word for word, the subset that
    Generator(Philox(key=[seed, 0], counter=[0, 0, 0, t])).integers(0, den, n) < num
    draws: block j = 1, 2, ... of trial t is Philox4x64-10 of the counter
    [j, 0, 0, t], its outputs come in order c0..c3, and 32-bit words are
    their halves, low half first.  Up to _LANES pending trials draw side by
    side, one lane each, taking 1, 2, 4, ... blocks a step up to 64 words.
    In every lane at once, a word x is out of W when x + 2^w - cut carries
    out of bit w, and kept when (x * den) mod 2^w + 2^w - reject_below does.
    A trial is a hit at the step that draws the top element of a member
    inside its W, and a miss once it has all n elements without one.
    """
    if 0 in masks:
        return trials  # the empty member lies in every W, also when n = 0
    bits = 32 if den <= 2**32 else 64
    per_block = 256 // bits
    reject_below, cut = _word_rule(num, den, bits)
    by_top: dict[int, list[int]] = {}
    for mk in masks:
        by_top.setdefault(mk.bit_length() - 1, []).append(mk)
    tops = sum(1 << top for top in by_top)
    # 1, 2^64 - 1, the round keys and the word constants, in every lane of
    # the widest batch; fewer lanes take their low lanes
    width = min(trials, _LANES)
    wide = [
        int.from_bytes(v.to_bytes(16, "little") * width, "little")
        for v in (1, 2**64 - 1, *_philox_keys(seed), 2**bits - 1, 2**bits - cut,
                  2**bits - reject_below)
    ]
    hits = 0
    for first in range(0, trials, _LANES):
        pending = [(t, 0, 0) for t in range(first, min(first + _LANES, trials))]  # (t, W, words)
        block, step = 0, 1
        while pending:
            lanes = len(pending)
            narrow = (1 << 128 * lanes) - 1
            ones, mask, *keys, word, past_cut, past_reject = [c & narrow for c in wide]
            ids = _packed([t for t, _, _ in pending])
            out = kept = drawn = 0  # bit i of a lane: word i of the step is out, kept
            for _ in range(step):
                block += 1
                for c in _philox(block, ids, ones, mask, keys):
                    for x in ((c & word, (c >> 32) & word) if bits == 32 else (c,)):
                        out |= (((x + past_cut) >> bits) & ones) << drawn
                        if reject_below:
                            kept |= (((((x * den) & word) + past_reject) >> bits) & ones) << drawn
                        drawn += 1
            every = (1 << drawn) - 1
            insides = _lane_lows(out ^ (every * ones), lanes)
            takens = _lane_lows(kept, lanes) if reject_below else [every] * lanes
            still = []
            for (t, w, p), inside, taken in zip(pending, insides, takens):
                got = drawn
                if taken != every:
                    inside, got = _kept_bits(inside, taken)
                end = min(p + got, n)  # words past n put no top element into W
                fresh = 0
                if inside:
                    w |= inside << p
                    fresh = inside & (tops >> p)  # top elements just put into W
                    while fresh:
                        low = fresh & -fresh
                        if any(mk & w == mk for mk in by_top[p + low.bit_length() - 1]):
                            break  # a member lies inside W
                        fresh ^= low
                if fresh:
                    hits += 1
                elif end < n:
                    still.append((t, w, end))
            pending = still
            if pending:
                behind = n - min(p for _, _, p in pending)
                step = min(2 * step, 64 // per_block, -(-behind // per_block))
    return hits

"""Certified rational enclosures of ln, log2 and e.

Verification verdicts must be exact, so every transcendental that enters an
inequality is replaced by a rational bound with a known direction.  Bounds
are produced from the atanh series

    ln x = 2 * atanh((x-1)/(x+1)) = 2 * sum_{k>=0} y^(2k+1) / (2k+1)

after reducing the argument to [1, 2) by factoring out powers of two; the
truncation error is enclosed by a geometric tail, so both ends of every
enclosure are honest rationals.  Default width is 1e-40.

Powers a**x and b**y of rationals are ordered exactly by one kernel,
compare_powers; the log2 gates x > log2(m) and x >= log2(m) compare 2**x with m.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm

from .errors import DomainError

DEFAULT_EPS = Fraction(1, 10**40)
# compare_powers builds cross powers of at most this many bits
POWER_BITS = 1 << 16


def _atanh_enclosure(y: Fraction, eps: Fraction) -> tuple[Fraction, Fraction]:
    """Lower/upper bounds of atanh(y) for 0 <= y < 1."""
    if y == 0:
        return Fraction(0), Fraction(0)
    total = Fraction(0)
    term = y
    y2 = y * y
    k = 0
    while True:
        total += term / (2 * k + 1)
        term *= y2
        k += 1
        # remaining tail <= term/(2k+1) * (1 + y2 + y2^2 + ...) = term/((2k+1)(1-y2))
        tail = term / ((2 * k + 1) * (1 - y2))
        if tail < eps / 2:
            return total, total + tail


@lru_cache(maxsize=None)
def ln2_enclosure(eps: Fraction = DEFAULT_EPS) -> tuple[Fraction, Fraction]:
    lo, hi = _atanh_enclosure(Fraction(1, 3), eps / 2)
    return 2 * lo, 2 * hi


def ln_enclosure(x: Fraction, eps: Fraction = DEFAULT_EPS) -> tuple[Fraction, Fraction]:
    """Rational lo <= ln(x) <= hi with hi - lo < eps, for rational x > 0."""
    x = Fraction(x)
    if x <= 0:
        raise DomainError("ln needs a positive argument")
    if x < 1:
        lo, hi = ln_enclosure(1 / x, eps)
        return -hi, -lo
    # reduce to m in [1, 2): x = 2**a * m
    a = 0
    m = x
    while m >= 2:
        m /= 2
        a += 1
    l2lo, l2hi = ln2_enclosure(eps / (2 * max(a, 1)))
    y = (m - 1) / (m + 1)  # in [0, 1/3)
    alo, ahi = _atanh_enclosure(y, eps / 4)
    return a * l2lo + 2 * alo, a * l2hi + 2 * ahi


def log2_enclosure(x: Fraction) -> tuple[Fraction, Fraction]:
    """Rational enclosure of log2(x) for rational x > 0."""
    x = Fraction(x)
    nlo, nhi = ln_enclosure(x, DEFAULT_EPS / 4)
    dlo, dhi = ln2_enclosure(DEFAULT_EPS / 4)
    lo = nlo / dhi if nlo >= 0 else nlo / dlo
    hi = nhi / dlo if nhi >= 0 else nhi / dhi
    return lo, hi


def e_enclosure() -> tuple[Fraction, Fraction]:
    """Rational lo <= e <= hi < lo + DEFAULT_EPS from the factorial series with tail bound."""
    total = Fraction(0)
    k = 0
    while True:
        total += Fraction(1, factorial(k))
        k += 1
        tail = Fraction(2, factorial(k))  # sum_{j>=k} 1/j! <= 2/k!
        if tail < DEFAULT_EPS:
            return total, total + tail


def _iroot(n: int, k: int) -> int:
    """floor(n ** (1/k)) for n >= 0 and k >= 1, in integers (Newton from above)."""
    if n < 2:
        return n
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def primitive_root(base: Fraction) -> tuple[Fraction, int]:
    """(c, k) with c**k == base and c not a perfect power of a rational."""
    n, d, k = base.numerator, base.denominator, 1
    p = 2
    while p <= max(n, d).bit_length():
        rn, rd = _iroot(n, p), _iroot(d, p)
        if rn**p == n and rd**p == d:
            n, d, k = rn, rd, k * p
        else:
            p += 1
    return Fraction(n, d), k


def _normal_form(base: Fraction, e: int) -> tuple[Fraction, int]:
    """(c, k) with c**k == base**e, c > 1 no perfect power; (1, 0) for the value 1."""
    if base == 1 or e == 0:
        return Fraction(1), 0
    if base < 1:
        base, e = 1 / base, -e
    root, k = primitive_root(base)
    return root, e * k


def compare_powers(a, x, b, y) -> int:
    """Sign of a**x - b**y for rationals a, b > 0 and rationals x, y."""
    a, x, b, y = Fraction(a), Fraction(x), Fraction(b), Fraction(y)
    if a <= 0 or b <= 0:
        raise DomainError("compared powers need positive bases")
    scale = lcm(x.denominator, y.denominator)
    p, q = int(x * scale), int(y * scale)
    if max(abs(p) * max(a.numerator, a.denominator).bit_length(),
           abs(q) * max(b.numerator, b.denominator).bit_length()) <= POWER_BITS:
        lhs, rhs = a**p, b**q
        return (lhs > rhs) - (lhs < rhs)
    forms = _normal_form(a, p), _normal_form(b, q)
    if forms[0] == forms[1]:
        return 0
    # distinct values have distinct logs, so the enclosures of k*ln(c) separate;
    # sorted() puts back the ends that a negative k swaps
    eps = Fraction(1, 2**64)
    while True:
        (alo, ahi), (blo, bhi) = (sorted(k * v for v in ln_enclosure(c, eps)) for c, k in forms)
        if alo > bhi or ahi < blo:
            return 1 if alo > bhi else -1
        eps *= eps


def exceeds_log2(x, m) -> bool:
    """Exact decision of x > log2(m) for rational x and rational m > 0."""
    return compare_powers(2, x, m, 1) > 0


def at_least_log2(x, m) -> bool:
    """Exact decision of x >= log2(m) for rational x and rational m > 0."""
    return compare_powers(2, x, m, 1) >= 0

"""Certified rational enclosures of ln, log2 and e.

Verification verdicts must be exact, so every transcendental that enters an
inequality is replaced by a rational bound with a known direction.  Bounds
are produced from the atanh series

    ln x = 2 * atanh((x-1)/(x+1)) = 2 * sum_{k>=0} y^(2k+1) / (2k+1)

after reducing the argument to [1, 2) by factoring out powers of two; the
truncation error is enclosed by a geometric tail, so both ends of every
enclosure are honest rationals.  Default width is 1e-40.  The series is summed
in integers over one common denominator and reduced to lowest terms once, at
the end.

round_up_dyadic rounds a rational up to a DYADIC_BITS-bit dyadic, for running
products that would otherwise grow every step.

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
# round_up_dyadic keeps this many significant bits
DYADIC_BITS = 128


def _floor_log2(x: Fraction) -> int:
    """floor(log2(x)) for rational x > 0, from the bit lengths of its terms."""
    n, d = x.numerator, x.denominator
    a = n.bit_length() - d.bit_length()  # x lies in (2^(a-1), 2^(a+1))
    below = n < d << a if a >= 0 else n << -a < d
    return a - below


def round_up_dyadic(x: Fraction) -> Fraction:
    """The least m / 2^e >= x with m of DYADIC_BITS bits, for rational x > 0.

    Its relative excess over x is below 2^(1 - DYADIC_BITS).
    """
    e = DYADIC_BITS - 1 - _floor_log2(x)  # x * 2^e lies in [2^(DYADIC_BITS-1), 2^DYADIC_BITS)
    n, d = x.numerator, x.denominator
    if e >= 0:
        return Fraction(-(-(n << e) // d), 1 << e)
    return Fraction(-(-n // (d << -e)) << -e)


def _atanh_enclosure(y: Fraction, eps: Fraction) -> tuple[Fraction, Fraction]:
    """Lower/upper bounds of atanh(y) for 0 <= y < 1.

    For y = p/q the partial sum through the y^(2k+1) term is num / den with
    den = q^(2k+1) * lcm(1, 3, ..., 2k+1), and the sum stops at the first k
    whose tail bound y^(2k+3) / ((2k+3)(1 - y^2)) is below eps/2.
    """
    p, q = y.numerator, y.denominator
    if p == 0:
        return Fraction(0), Fraction(0)
    p2, q2 = p * p, q * q
    half_n, half_d = eps.numerator, 2 * eps.denominator  # eps/2
    # through the y^(2k+1) term: ppow = p^(2k+1), qpow = q^(2k+1), odd = 2k+1,
    # odd_lcm = lcm(1, 3, ..., 2k+1) and the partial sum is num / (qpow * odd_lcm)
    num, ppow, qpow, odd, odd_lcm = p, p, q, 1, 1
    while True:
        ppow *= p2  # p^(2k+3)
        odd += 2  # 2k+3
        # tail = ppow / tail_d; the cross-multiplied test is tail < eps/2
        tail_d = qpow * odd * (q2 - p2)
        if ppow * half_d < half_n * tail_d:
            den = qpow * odd_lcm
            return Fraction(num, den), Fraction(num * tail_d + ppow * den, den * tail_d)
        grown = lcm(odd_lcm, odd)
        num = num * q2 * (grown // odd_lcm) + ppow * (grown // odd)
        qpow *= q2
        odd_lcm = grown


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
    a = _floor_log2(x)
    m = x / (1 << a)
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

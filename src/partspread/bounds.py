"""Certified rational enclosures of ln, log2 and e.

Verification verdicts must be exact, so every transcendental that enters an
inequality is replaced by a rational bound with a known direction.  Bounds
are produced from the atanh series

    ln x = 2 * atanh((x-1)/(x+1)) = 2 * sum_{k>=0} y^(2k+1) / (2k+1)

after reducing the argument to [1, 2) by factoring out powers of two; the
truncation error is enclosed by a geometric tail, so both ends of every
enclosure are honest rationals.  Default width is 1e-40.

Pure order comparisons against log2 never need an enclosure: for rational
x = p/q,  x > log2(m)  iff  2**p > m**q, which is decided in integers.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

from .errors import DomainError

DEFAULT_EPS = Fraction(1, 10**40)


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


@lru_cache(maxsize=None)
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


@lru_cache(maxsize=None)
def log2_enclosure(x: Fraction, eps: Fraction = DEFAULT_EPS) -> tuple[Fraction, Fraction]:
    """Rational enclosure of log2(x) for rational x > 0."""
    x = Fraction(x)
    nlo, nhi = ln_enclosure(x, eps / 4)
    dlo, dhi = ln2_enclosure(eps / 4)
    lo = nlo / dhi if nlo >= 0 else nlo / dlo
    hi = nhi / dlo if nhi >= 0 else nhi / dhi
    return lo, hi


@lru_cache(maxsize=None)
def e_enclosure(eps: Fraction = DEFAULT_EPS) -> tuple[Fraction, Fraction]:
    """Rational lo <= e <= hi from the factorial series with tail bound."""
    total = Fraction(0)
    k = 0
    while True:
        total += Fraction(1, factorial(k))
        k += 1
        tail = Fraction(2, factorial(k))  # sum_{j>=k} 1/j! <= 2/k!
        if tail < eps:
            return total, total + tail


def exceeds_log2(x, m) -> bool:
    """Exact decision of x > log2(m) for rational x and rational m > 0.

    Reduced to 2**p > m**q in integers, so no enclosure is involved.
    """
    x = Fraction(x)
    m = Fraction(m)
    if m <= 0:
        raise DomainError("log2 needs a positive argument")
    p, q = x.numerator, x.denominator
    # x > log2(m)  <=>  2**x > m  <=>  2**(p/q) > m  <=>  2**p > m**q
    return Fraction(2) ** p > m**q


def at_least_log2(x, m) -> bool:
    """Exact decision of x >= log2(m), same reduction as exceeds_log2."""
    x = Fraction(x)
    m = Fraction(m)
    if m <= 0:
        raise DomainError("log2 needs a positive argument")
    return Fraction(2) ** x.numerator >= m**x.denominator

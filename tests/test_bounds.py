import math
from fractions import Fraction
from unittest import mock

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from partspread import bounds
from partspread.bounds import (
    DEFAULT_EPS,
    DYADIC_BITS,
    at_least_log2,
    compare_powers,
    e_enclosure,
    exceeds_log2,
    ln2_enclosure,
    ln_enclosure,
    log2_enclosure,
    round_up_dyadic,
)
from partspread.errors import DomainError

mpmath.mp.dps = 60


def _ref(x) -> Fraction:
    return Fraction(mpmath.nstr(x, 52, strip_zeros=False))


@pytest.mark.parametrize("n", [2, 3, 7, 10, 16, 100, 500, 501])
def test_ln_enclosure_contains_truth(n):
    lo, hi = ln_enclosure(Fraction(n))
    assert lo <= _ref(mpmath.ln(n)) <= hi
    assert hi - lo < Fraction(1, 10**40)


def test_ln_enclosure_fractional_arguments():
    for num, den in [(1, 3), (7, 2), (105, 4), (1, 10)]:
        lo, hi = ln_enclosure(Fraction(num, den))
        assert lo <= _ref(mpmath.ln(mpmath.mpf(num) / den)) <= hi


def _atanh_by_terms(y: Fraction, eps: Fraction) -> tuple[Fraction, Fraction]:
    """Reference atanh enclosure: the series summed term by term as Fractions."""
    if y == 0:
        return Fraction(0), Fraction(0)
    total, term, y2, k = Fraction(0), y, y * y, 0
    while True:
        total += term / (2 * k + 1)
        term *= y2
        k += 1
        tail = term / ((2 * k + 1) * (1 - y2))
        if tail < eps / 2:
            return total, total + tail


def _ln_by_halving(x: Fraction, eps: Fraction = DEFAULT_EPS) -> tuple[Fraction, Fraction]:
    """Reference ln enclosure: the argument halved once per power of two."""
    if x < 1:
        lo, hi = _ln_by_halving(1 / x, eps)
        return -hi, -lo
    a, m = 0, x
    while m >= 2:
        m /= 2
        a += 1
    l2lo, l2hi = ln2_enclosure(eps / (2 * max(a, 1)))
    alo, ahi = _atanh_by_terms((m - 1) / (m + 1), eps / 4)
    return a * l2lo + 2 * alo, a * l2hi + 2 * ahi


def _floor_log2_by_halving(x: Fraction) -> int:
    a = 0
    while x >= 2:
        x, a = x / 2, a + 1
    while x < 1:
        x, a = x * 2, a - 1
    return a


@settings(max_examples=200, deadline=None)
@given(
    st.fractions(min_value=0, max_value=Fraction(1, 3), max_denominator=10**60),
    st.integers(0, 64),
)
def test_atanh_enclosure_equals_the_term_by_term_sum(y, j):
    eps = DEFAULT_EPS / 2**j
    assert bounds._atanh_enclosure(y, eps) == _atanh_by_terms(y, eps)


# rationals of up to a few thousand bits on either side of 1
big_rational_st = st.builds(
    Fraction, st.integers(1, 2**4000), st.integers(1, 2**4000)
) | st.fractions(min_value=Fraction(1, 10**6), max_value=10**6)


@settings(max_examples=100, deadline=None)
@given(big_rational_st)
def test_floor_log2_equals_the_halving_loop(x):
    a = bounds._floor_log2(x)
    assert a == _floor_log2_by_halving(x)
    assert 1 <= x / Fraction(2) ** a < 2


@pytest.mark.parametrize("x", [
    Fraction(3), Fraction(1, 10), Fraction(105, 4), Fraction(2**64 + 1, 3**20),
    Fraction(3**2000, 7), Fraction(7, 5**400), Fraction(2**1000),
])
def test_ln_enclosure_equals_the_halving_reduction(x):
    assert ln_enclosure(x) == _ln_by_halving(x)


@settings(max_examples=200, deadline=None)
@given(big_rational_st)
def test_round_up_dyadic_is_a_tight_upper_bound(x):
    r = round_up_dyadic(x)
    assert r >= x
    assert (r - x) / x <= Fraction(1, 2 ** (DYADIC_BITS - 1))
    assert r.denominator & (r.denominator - 1) == 0


def test_ln_rejects_nonpositive():
    with pytest.raises(ValueError):
        ln_enclosure(Fraction(0))


@pytest.mark.parametrize("num,den", [(10, 1), (64, 1), (1, 3), (105, 4)])
def test_log2_enclosure(num, den):
    lo, hi = log2_enclosure(Fraction(num, den))
    assert lo <= _ref(mpmath.log(mpmath.mpf(num) / den, 2)) <= hi


def test_e_enclosure():
    lo, hi = e_enclosure()
    assert lo <= _ref(mpmath.e + 0) <= hi
    assert hi - lo < Fraction(1, 10**40)


def test_exact_log2_comparisons():
    assert exceeds_log2(Fraction(10, 3), 10)  # 3.333 > 3.3219
    assert not exceeds_log2(Fraction(33, 10), 10)
    assert at_least_log2(3, 8)
    assert not exceeds_log2(3, 8)
    assert exceeds_log2(Fraction(1, 2), Fraction(7, 5))  # 0.5 > log2(1.4)
    # agreement with float math on a spread of cases
    for m in range(2, 60):
        x = Fraction(math.log2(m)).limit_denominator(10**6)
        truth = _ref(mpmath.log(m, 2))
        assert exceeds_log2(x, m) == (x > truth)
        assert at_least_log2(x, m) == (x >= truth)


# ---------------------------------------------------------------------------
# compare_powers: the integer branch against the enclosure branch

base_st = st.builds(Fraction, st.integers(1, 60), st.integers(1, 20))
exp_st = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 8))
# every way to write the value 1: base 1, or exponent 0
one_st = st.one_of(
    st.tuples(st.just(Fraction(1)), exp_st),
    st.tuples(base_st, st.just(Fraction(0))),
)


@st.composite
def tie_st(draw):
    """(a, x, b, y) with a**x == b**y: b = a**j with y = x/j, or two forms of 1."""
    if draw(st.booleans()):
        return draw(one_st) + draw(one_st)
    a, x = draw(base_st), draw(exp_st)
    j = draw(st.sampled_from((-3, -2, -1, 1, 2, 3)))
    return a, x, a**j, x / j


case_st = st.one_of(st.tuples(base_st, exp_st, base_st, exp_st), tie_st())


def _enclosures_only():
    return mock.patch.object(bounds, "POWER_BITS", 0)


@settings(max_examples=200, deadline=None)
@given(tie_st())
def test_ties_are_decided_by_the_normal_form(case):
    # a tie has no separating enclosure, so reaching one would never end
    def refuse(*args):
        raise AssertionError("tie reached the enclosure loop")

    assert compare_powers(*case) == 0
    with _enclosures_only(), mock.patch.object(bounds, "ln_enclosure", refuse):
        assert compare_powers(*case) == 0


@settings(max_examples=300, deadline=None)
@given(case_st)
def test_enclosure_branch_agrees_with_integer_branch(case):
    expected = compare_powers(*case)
    with _enclosures_only():
        assert compare_powers(*case) == expected


@settings(max_examples=200, deadline=None)
@given(case_st)
def test_compare_powers_is_antisymmetric(case):
    a, x, b, y = case
    assert compare_powers(a, x, b, y) == -compare_powers(b, y, a, x)
    with _enclosures_only():
        assert compare_powers(a, x, b, y) == -compare_powers(b, y, a, x)


@pytest.mark.parametrize("n", [10**6, 10**30])
def test_near_ties_with_negative_exponents(n):
    # the first enclosures of 2**n and close**n overlap; a negative exponent
    # reverses the order of both values and the ends of both intervals
    close = 2 + Fraction(1, 2**70)
    assert compare_powers(2, n, close, n) == -1
    assert compare_powers(close, n, 2, n) == 1
    assert compare_powers(2, -n, close, -n) == 1
    assert compare_powers(close, -n, 2, -n) == -1
    assert compare_powers(close, Fraction(-n, 3), 2, Fraction(-n, 3)) == -1


def test_compare_powers_rejects_nonpositive_bases():
    with pytest.raises(DomainError):
        compare_powers(0, 1, 2, 1)
    with pytest.raises(DomainError):
        compare_powers(2, 1, Fraction(-1, 2), 1)
    with pytest.raises(DomainError):
        exceeds_log2(1, 0)
    with pytest.raises(DomainError):
        at_least_log2(1, Fraction(-1, 2))


@st.composite
def log2_case_st(draw):
    """(x, m); half the x are rational approximations of log2(m) itself."""
    m = Fraction(draw(st.integers(1, 10**4)), draw(st.integers(1, 100)))
    if draw(st.booleans()):
        x = Fraction(math.log2(m)).limit_denominator(draw(st.integers(1, 10**6)))
    else:
        x = Fraction(draw(st.integers(-10**7, 10**7)), draw(st.integers(1, 10**6)))
    return x, m


@settings(max_examples=200, deadline=None)
@given(log2_case_st())
def test_log2_gates_against_mpmath(case):
    x, m = case
    with mpmath.workdps(80):
        diff = mpmath.mpf(x.numerator) / x.denominator - mpmath.log(
            mpmath.mpf(m.numerator) / m.denominator, 2
        )
        if abs(diff) < mpmath.mpf(10) ** -60:
            return  # a near-tie, beyond what 80 digits can order
    assert exceeds_log2(x, m) == (diff > 0)
    assert at_least_log2(x, m) == (diff > 0)

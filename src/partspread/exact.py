"""Exact comparison of rational powers.

Spreadness thresholds are values of the form base**exponent with rational
base > 0 and rational exponent > 0 (e.g. the best spread factor of a family
is (|F|/|F(X)|)**(1/|X|)).  Two such values are compared by
bounds.compare_powers, which decides in integers or certified enclosures,
so every decision here is exact; floats only ever appear in display output.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import total_ordering

from .bounds import compare_powers, primitive_root
from .errors import DomainError


def as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {value!r}")


@total_ordering
class ExactPow:
    """The positive real base**exponent, compared without floating point."""

    __slots__ = ("base", "exponent", "infinite")

    def __init__(self, base, exponent=1, infinite: bool = False):
        if infinite:
            self.base = None
            self.exponent = None
            self.infinite = True
            return
        base = as_fraction(base)
        exponent = as_fraction(exponent)
        if base <= 0:
            raise DomainError("base must be positive")
        if exponent <= 0:
            raise DomainError("exponent must be positive")
        self.base = base
        self.exponent = exponent
        self.infinite = False

    @classmethod
    def infinity(cls) -> "ExactPow":
        return cls(1, 1, infinite=True)

    @staticmethod
    def coerce(value) -> "ExactPow":
        """value itself if it is an ExactPow, else the exact rational value**1."""
        if isinstance(value, ExactPow):
            return value
        return ExactPow(value)

    def _cmp(self, other) -> int:
        other = self.coerce(other)
        if self.infinite or other.infinite:
            return self.infinite - other.infinite
        return compare_powers(self.base, self.exponent, other.base, other.exponent)

    def __eq__(self, other) -> bool:
        try:
            return self._cmp(other) == 0
        except TypeError:
            return NotImplemented

    def __lt__(self, other) -> bool:
        return self._cmp(other) < 0

    def __hash__(self) -> int:
        # equal values must hash equal: write the value as root**exponent with
        # a root that is no perfect power, which makes the pair unique, and
        # hash an integer exponent as the rational value itself, computed
        # modulo the hash prime without building root**exponent
        if self.infinite:
            return hash("ExactPow.inf")
        if self.base == 1:
            return hash(1)
        root, k = primitive_root(self.base)
        exponent = self.exponent * k
        if exponent.denominator == 1:
            e, modulus = exponent.numerator, sys.hash_info.modulus
            den = pow(root.denominator, e, modulus)
            if den == 0:
                return sys.hash_info.inf
            return hash(pow(root.numerator, e, modulus) * pow(den, -1, modulus))
        return hash((root, exponent))

    def __float__(self) -> float:
        if self.infinite:
            return float("inf")
        return float(self.base) ** float(self.exponent)

    def __repr__(self) -> str:
        if self.infinite:
            return "ExactPow(inf)"
        if self.exponent == 1:
            return f"ExactPow({self.base})"
        return f"ExactPow({self.base})**({self.exponent})"


def parse_ratio(text: str) -> Fraction:
    """Parse 'p/q' or a plain integer/decimal string into a Fraction."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise DomainError(f"{text!r} is not a rational number") from None

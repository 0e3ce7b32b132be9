"""Exact non-negative rationals with O(1)-word numerator and denominator.

The query parameters ``(alpha, beta)`` and every probability manipulated by
the DPSS algorithms are rationals whose numerator and denominator fit in
O(1) machine words (Section 2.2).  :class:`Rat` is a small immutable exact
rational tailored to that use: values are always normalized (gcd reduced) so
word sizes stay bounded, and the log2 operations of Claim 4.3 are provided
directly.

``fractions.Fraction`` would work too, but the substrate is part of what the
paper relies on, so it is built here, minimal and explicit.
"""

from __future__ import annotations

from math import gcd

from .bits import ceil_log2_rational, floor_log2_rational


class Rat:
    """An immutable exact non-negative rational number.

    The log2 and float conversions are memoized per instance: level
    computation (``ODSSFixed.set_probability``, BG-Str group cuts) and the
    fast-path float gates hit the same ``Rat`` repeatedly, and re-deriving
    ``ceil_log2``/``float`` each time showed up in profiles.
    """

    __slots__ = ("num", "den", "_float", "_fl2", "_cl2")

    def __init__(self, num: int, den: int = 1) -> None:
        if den == 0:
            raise ZeroDivisionError("Rat with zero denominator")
        if den < 0:
            num, den = -num, -den
        if num < 0:
            raise ValueError(f"Rat must be non-negative, got {num}/{den}")
        if num == 0:
            den = 1
        else:
            g = gcd(num, den)
            num //= g
            den //= g
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        # The _float/_fl2/_cl2 memo slots stay unset until first use, so
        # construction pays nothing for them.

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Rat is immutable")

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls) -> "Rat":
        return cls(0, 1)

    @classmethod
    def one(cls) -> "Rat":
        return cls(1, 1)

    @classmethod
    def of(cls, value: "Rat | int") -> "Rat":
        """Coerce an int (or pass through a Rat)."""
        if isinstance(value, Rat):
            return value
        return cls(value, 1)

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num == 0

    def is_one(self) -> bool:
        return self.num == self.den

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "Rat | int") -> "Rat":
        o = Rat.of(other)
        return Rat(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __sub__(self, other: "Rat | int") -> "Rat":
        o = Rat.of(other)
        return Rat(self.num * o.den - o.num * self.den, self.den * o.den)

    def __mul__(self, other: "Rat | int") -> "Rat":
        o = Rat.of(other)
        return Rat(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other: "Rat | int") -> "Rat":
        o = Rat.of(other)
        if o.num == 0:
            raise ZeroDivisionError("Rat division by zero")
        return Rat(self.num * o.den, self.den * o.num)

    def __pow__(self, exponent: int) -> "Rat":
        if exponent < 0:
            return self.reciprocal() ** (-exponent)
        # Powers of a fraction in lowest terms stay in lowest terms, so the
        # constructor's gcd (quadratic in the operands' size) is skipped.
        out = object.__new__(Rat)
        object.__setattr__(out, "num", self.num**exponent)
        object.__setattr__(out, "den", self.den**exponent)
        return out

    def reciprocal(self) -> "Rat":
        if self.num == 0:
            raise ZeroDivisionError("reciprocal of zero")
        return Rat(self.den, self.num)

    def min_with_one(self) -> "Rat":
        """``min(self, 1)`` — the clamp used by every PSS probability."""
        return self if self.num <= self.den else Rat.one()

    # -- comparisons ---------------------------------------------------------

    def _cmp(self, other: "Rat | int") -> int:
        o = Rat.of(other)
        lhs = self.num * o.den
        rhs = o.num * self.den
        return (lhs > rhs) - (lhs < rhs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (Rat, int)):
            return NotImplemented
        return self._cmp(other) == 0

    def __lt__(self, other: "Rat | int") -> bool:
        return self._cmp(other) < 0

    def __le__(self, other: "Rat | int") -> bool:
        return self._cmp(other) <= 0

    def __gt__(self, other: "Rat | int") -> bool:
        return self._cmp(other) > 0

    def __ge__(self, other: "Rat | int") -> bool:
        return self._cmp(other) >= 0

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    # -- log2 (Claim 4.3) ----------------------------------------------------

    def floor_log2(self) -> int:
        """``floor(log2 self)`` in O(1) word operations (Claim 4.3); memoized."""
        try:
            return self._fl2
        except AttributeError:
            pass
        if self.num == 0:
            raise ValueError("log2 of zero")
        value = floor_log2_rational(self.num, self.den)
        object.__setattr__(self, "_fl2", value)
        return value

    def ceil_log2(self) -> int:
        """``ceil(log2 self)`` in O(1) word operations (Claim 4.3); memoized."""
        try:
            return self._cl2
        except AttributeError:
            pass
        if self.num == 0:
            raise ValueError("log2 of zero")
        value = ceil_log2_rational(self.num, self.den)
        object.__setattr__(self, "_cl2", value)
        return value

    # -- conversions -----------------------------------------------------------

    def __float__(self) -> float:
        """Nearest double (CPython big-int division is correctly rounded);
        memoized."""
        try:
            return self._float
        except AttributeError:
            pass
        value = self.num / self.den
        object.__setattr__(self, "_float", value)
        return value

    def fixed_point(self, frac_bits: int) -> int:
        """``floor(self * 2**frac_bits)`` — fixed-point truncation."""
        return (self.num << frac_bits) // self.den

    def __repr__(self) -> str:
        return f"Rat({self.num}, {self.den})"

    def __str__(self) -> str:
        return f"{self.num}/{self.den}" if self.den != 1 else str(self.num)


def parse_rational(text: str) -> Rat:
    """Parse the user-facing rational grammar: an integer (``"2"``) or a
    ``num/den`` pair (``"1/16"``) — the one grammar shared by the CLI
    arguments and the serve protocol's ``ALPHA``/``BETA`` fields."""
    if "/" in text:
        num, den = text.split("/", 1)
        return Rat(int(num), int(den))
    return Rat(int(text))

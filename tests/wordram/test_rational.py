"""Exact rational arithmetic (the O(1)-word Rat type)."""

from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from repro.wordram.rational import Rat

rationals = st.builds(
    Rat,
    st.integers(min_value=0, max_value=10**9),
    st.integers(min_value=1, max_value=10**9),
)
positive_rationals = st.builds(
    Rat,
    st.integers(min_value=1, max_value=10**9),
    st.integers(min_value=1, max_value=10**9),
)


class TestConstruction:
    def test_normalization(self):
        r = Rat(6, 4)
        assert (r.num, r.den) == (3, 2)

    def test_zero_normalizes_denominator(self):
        assert Rat(0, 7).den == 1

    def test_negative_denominator_flips(self):
        with pytest.raises(ValueError):
            Rat(3, -2)  # would make the value negative

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Rat(-1, 2)

    def test_rejects_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            Rat(1, 0)

    def test_immutable(self):
        r = Rat(1, 2)
        with pytest.raises(AttributeError):
            r.num = 5

    def test_of_coerces_int(self):
        assert Rat.of(7) == Rat(7, 1)
        r = Rat(2, 3)
        assert Rat.of(r) is r


class TestArithmetic:
    def test_add(self):
        assert Rat(1, 2) + Rat(1, 3) == Rat(5, 6)
        assert Rat(1, 2) + 1 == Rat(3, 2)
        assert 1 + Rat(1, 2) == Rat(3, 2)

    def test_sub(self):
        assert Rat(3, 4) - Rat(1, 4) == Rat(1, 2)
        with pytest.raises(ValueError):
            Rat(1, 4) - Rat(1, 2)  # negative result is illegal

    def test_mul_div(self):
        assert Rat(2, 3) * Rat(3, 4) == Rat(1, 2)
        assert Rat(2, 3) / Rat(4, 3) == Rat(1, 2)
        assert Rat(2, 3) * 3 == Rat(2)
        with pytest.raises(ZeroDivisionError):
            Rat(1, 2) / Rat(0)

    def test_pow(self):
        assert Rat(2, 3) ** 3 == Rat(8, 27)
        assert Rat(2, 3) ** 0 == Rat.one()
        assert Rat(2, 3) ** -1 == Rat(3, 2)

    @given(
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=1, max_value=10**6),
        st.sampled_from([0, 1, 2, -3]),
    )
    @example(6, 4, 2)
    @example(6, 4, -3)
    @example(0, 7, 0)
    @example(0, 7, 2)
    @example(0, 7, -3)
    def test_pow_is_in_lowest_terms(self, a, b, e):
        # Pins the representation, not just the value: ``==`` compares
        # cross products, so it would accept an unreduced power.
        try:
            expected = Fraction(a, b) ** e
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                Rat(a, b) ** e
            return
        r = Rat(a, b) ** e
        assert (r.num, r.den) == (expected.numerator, expected.denominator)

    def test_reciprocal(self):
        assert Rat(2, 5).reciprocal() == Rat(5, 2)
        with pytest.raises(ZeroDivisionError):
            Rat.zero().reciprocal()

    def test_min_with_one(self):
        assert Rat(3, 2).min_with_one() == Rat.one()
        assert Rat(1, 2).min_with_one() == Rat(1, 2)

    @given(rationals, rationals)
    def test_add_commutes(self, a, b):
        assert a + b == b + a

    @given(rationals, rationals, rationals)
    def test_mul_distributes(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(positive_rationals)
    def test_reciprocal_involution(self, a):
        assert a.reciprocal().reciprocal() == a


class TestComparisons:
    def test_ordering(self):
        assert Rat(1, 3) < Rat(1, 2) <= Rat(2, 4) < 1 < Rat(7, 2)
        assert Rat(5, 5).is_one()
        assert Rat.zero().is_zero()

    def test_hash_consistent_with_eq(self):
        assert hash(Rat(2, 4)) == hash(Rat(1, 2))

    @given(rationals, rationals)
    def test_trichotomy(self, a, b):
        assert (a < b) + (a == b) + (a > b) == 1


class TestConversions:
    def test_float(self):
        assert float(Rat(1, 4)) == 0.25

    def test_fixed_point(self):
        assert Rat(1, 3).fixed_point(8) == (1 << 8) // 3
        assert Rat(1, 2).fixed_point(4) == 8

    def test_str(self):
        assert str(Rat(3, 4)) == "3/4"
        assert str(Rat(5)) == "5"

    @given(positive_rationals)
    def test_log2_consistency(self, a):
        f, c = a.floor_log2(), a.ceil_log2()
        assert f <= c <= f + 1
        # 2^f <= a and a <= 2^c, checked exactly via Rat comparisons.
        two_f = Rat(1 << f) if f >= 0 else Rat(1, 1 << -f)
        two_c = Rat(1 << c) if c >= 0 else Rat(1, 1 << -c)
        assert two_f <= a <= two_c

    def test_log2_of_zero_raises(self):
        with pytest.raises(ValueError):
            Rat.zero().floor_log2()

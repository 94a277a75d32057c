from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sl2forms.rationals import (
    factorial,
    parse_rational,
    reciprocal_factorial,
    sign,
)

rationals = st.fractions(min_value=-100, max_value=100, max_denominator=50)


class TestFactorial:
    def test_frozen_values(self):
        assert factorial(0) == 1
        assert factorial(1) == 1
        # oracle: iterated multiplication
        acc = 1
        for i in range(1, 11):
            acc *= i
        assert factorial(10) == acc == 3628800

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            factorial(-1)

    @given(st.integers(min_value=1, max_value=200))
    def test_recurrence(self, n):
        assert factorial(n) == n * factorial(n - 1)


class TestReciprocalFactorial:
    def test_frozen_values(self):
        assert reciprocal_factorial(3) == Fraction(1, 6)
        assert reciprocal_factorial(0) == 1
        assert reciprocal_factorial(-2) == 0

    @given(st.integers(min_value=0, max_value=100))
    def test_inverts_factorial(self, n):
        assert reciprocal_factorial(n) * factorial(n) == 1


class TestSign:
    def test_values(self):
        assert sign(Fraction(3, 7)) == 1
        assert sign(Fraction(-2)) == -1
        assert sign(0) == 0
        assert sign(5) == 1


class TestSerialization:
    def test_round_trip_examples(self):
        # rationals serialize with str: "p/q", "p" when the denominator is 1
        assert str(Fraction(1, 2)) == "1/2"
        assert str(Fraction(-3)) == "-3"
        assert str(7) == "7"
        assert parse_rational("  -5/10 ") == Fraction(-1, 2)
        with pytest.raises(ValueError):
            parse_rational("no")
        with pytest.raises(ValueError):
            parse_rational("1/0")

    @given(rationals)
    def test_round_trip(self, x):
        assert parse_rational(str(x)) == x

    @given(rationals, rationals, rationals)
    def test_field_axioms_on_triples(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a and a * b == b * a

    @given(rationals, rationals)
    def test_lowest_terms_positive_denominator(self, a, b):
        from math import gcd

        for x in (a + b, a * b, a - b):
            assert x.denominator > 0
            assert gcd(abs(x.numerator), x.denominator) == 1

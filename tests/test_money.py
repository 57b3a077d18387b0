"""Exactness of the micro-dollar money types and the rounding rule."""

import decimal
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from lcoai import (CapexItem, Horizon, Money, PerInferenceRate, SweepSpec, VolumeProjection,
                   round_half_away, usd_to_micro)
from lcoai.cost_core import MAX_DECIMAL_EXPONENT, decimal_text


class TestRounding:
    @pytest.mark.parametrize("value,expected", [
        (Fraction(5, 2), 3),
        (Fraction(-5, 2), -3),
        (Fraction(1, 2), 1),
        (Fraction(-1, 2), -1),
        (Fraction(1, 3), 0),
        (Fraction(2, 3), 1),
        (Fraction(7, 1), 7),
        (0, 0),
    ])
    def test_ties_go_away_from_zero(self, value, expected):
        assert round_half_away(value) == expected

    @given(st.fractions(min_value=-10**12, max_value=10**12, max_denominator=10**6))
    def test_agrees_with_decimal_half_up_oracle(self, value):
        # independent oracle: Decimal ROUND_HALF_UP on the magnitude
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            magnitude = Decimal(abs(value.numerator)) / Decimal(value.denominator)
            expected = int(magnitude.quantize(Decimal(1), rounding=decimal.ROUND_HALF_UP))
        if value < 0:
            expected = -expected
        assert round_half_away(value) == expected

    @given(st.fractions(max_denominator=10**9))
    def test_within_half_of_true_value(self, value):
        rounded = round_half_away(value)
        assert abs(Fraction(rounded) - value) <= Fraction(1, 2)


class TestUsdParsing:
    @pytest.mark.parametrize("text,micro", [
        ("0.0048", 4_800),
        ("0.01", 10_000),
        ("50000", 50_000_000_000),
        ("0.000001", 1),
        ("0", 0),
        ("300", 300_000_000),
        ("0.00075", 750),
        ("-1.5", -1_500_000),
    ])
    def test_exact_parse(self, text, micro):
        assert usd_to_micro(text) == micro

    def test_integer_dollars(self):
        assert usd_to_micro(7) == 7_000_000

    def test_decimal_input(self):
        assert usd_to_micro(Decimal("0.0048")) == 4_800

    def test_float_refused(self):
        with pytest.raises(TypeError):
            usd_to_micro(0.0048)

    @pytest.mark.parametrize("text", ["0.0000001", "1.2345678", "0.00000051"])
    def test_sub_micro_resolution_rejected(self, text):
        with pytest.raises(ValueError, match="resolution"):
            usd_to_micro(text)

    @pytest.mark.parametrize("text", ["", "abc", "1.2.3", "NaN", "Infinity"])
    def test_garbage_rejected(self, text):
        with pytest.raises(ValueError):
            usd_to_micro(text)

    @pytest.mark.parametrize("text", [
        "1e999999", "1e-999999999", "0e-999999999",
        f"1e{MAX_DECIMAL_EXPONENT + 1}", f"1e-{MAX_DECIMAL_EXPONENT + 1}"])
    def test_exponent_outside_the_bound_rejected(self, text):
        for value in (text, Decimal(text)):
            with pytest.raises(ValueError, match="exponent"):
                usd_to_micro(value)

    def test_exponent_at_the_bound(self):
        assert usd_to_micro(f"1e{MAX_DECIMAL_EXPONENT}") == 10 ** (MAX_DECIMAL_EXPONENT + 6)
        assert usd_to_micro(f"0e-{MAX_DECIMAL_EXPONENT}") == 0
        with pytest.raises(ValueError, match="resolution"):
            usd_to_micro(f"1e-{MAX_DECIMAL_EXPONENT}")

    def test_many_digits_stay_exact(self):
        digits = "9" * 80
        assert usd_to_micro(f"{digits}.000001") == int(digits) * 10**6 + 1


class TestMoney:
    def test_float_amount_refused(self):
        with pytest.raises(TypeError):
            Money(1.5)

    def test_scaled_rounds_half_away(self):
        assert Money(5).scaled(Fraction(1, 2)).amount == 3
        assert Money(-5).scaled(Fraction(1, 2)).amount == -3
        assert Money(100).scaled(Fraction(7, 10)).amount == 70

    def test_ordering(self):
        assert Money(1) < Money(2)
        assert max(Money(5), Money(3)) == Money(5)

    @given(st.integers(min_value=-10**15, max_value=10**15))
    def test_usd_string_round_trips(self, micro):
        m = Money(micro)
        assert Money.from_usd(m.usd_string()) == m

    def test_bool_refused_and_int_subclasses_accepted(self):
        class Count(int):
            pass

        # every holder of the one integer rule, cost_core._is_int
        for build in (Money, PerInferenceRate, lambda v: VolumeProjection((v,)),
                      lambda v: Horizon(v, 12), lambda v: Horizon(1, v),
                      lambda v: CapexItem("c", Money(1), v),
                      lambda v: SweepSpec("volume", (v,))):
            with pytest.raises((TypeError, ValueError)):
                build(True)
            build(Count(3))

    @pytest.mark.parametrize("micro, text", [
        (0, "0"), (4_800, "0.0048"), (-4_800, "-0.0048"), (50_000 * 10**6, "50000"),
        (-10**6, "-1"), (1, "0.000001"), (-1_500_000, "-1.5"), (10**30 + 10, "1000000000000000000000000.00001"),
    ])
    def test_usd_string_is_the_shortest_exact_text(self, micro, text):
        assert Money(micro).usd_string() == text
        assert PerInferenceRate(abs(micro)).usd_string() == text.lstrip("-")

    @pytest.mark.parametrize("prec", [None, 3])
    def test_usd_string_keeps_every_digit_in_any_context(self, prec):
        with decimal.localcontext() as ctx:
            if prec:
                ctx.prec = prec
            money = Money(10**40 + 1)
            texts = (money.usd_string(), str(money), PerInferenceRate(10**30 + 7).usd_string(),
                     Money(-1_500_000).usd_string())
        assert texts == ("10000000000000000000000000000000000.000001",
                         "$10000000000000000000000000000000000.000001",
                         "1000000000000000000000000.000007", "-1.5")


class TestDecimalText:
    @pytest.mark.parametrize("value, text", [
        (Fraction(0), "0"), (Fraction(7), "7"), (Fraction(-7), "-7"),
        (Fraction(2, 25), "0.08"), (Fraction(-21, 200), "-0.105"), (Fraction(5, 4), "1.25"),
        (Fraction(1, 10**100), "0." + "0" * 99 + "1"),
        (Fraction(-3, 2**100), f"-0.{3 * 5**100:0100d}"),
        (Fraction(10**100), "1" + "0" * 100),
        (-Fraction(10**100 + 1, 10**100), "-1." + "0" * 99 + "1"),
    ])
    def test_exact_text(self, value, text):
        assert decimal_text(value) == text

    @pytest.mark.parametrize("value", [Fraction(1, 3), Fraction(-2, 7), Fraction(1, 6),
                                       Fraction(1, 3 * 5**40), Fraction(1, 2**30 * 5**30 * 3)])
    def test_no_exact_decimal_form_is_rejected(self, value):
        with pytest.raises(ValueError, match="no exact decimal"):
            decimal_text(value)

    @given(n=st.integers(-10**30, 10**30), twos=st.integers(0, 120), fives=st.integers(0, 120))
    def test_text_is_exact_and_has_no_trailing_zero(self, n, twos, fives):
        value = Fraction(n, 2**twos * 5**fives)
        text = decimal_text(value)
        assert Fraction(text) == value
        if "." in text:
            assert not text.endswith("0")
        assert text == text.strip() and not text.startswith("+")


class TestPerInferenceRate:
    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            PerInferenceRate(-1)

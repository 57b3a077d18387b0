"""The one reader of exact numbers, and every call site that goes through it."""

import decimal
import time
from decimal import Decimal
from fractions import Fraction

import pytest

from lcoai import (
    DiscountPolicy,
    Money,
    PerInferenceRate,
    SweepSpec,
    tornado,
    usd_to_micro,
    with_capex_scaled,
)
from lcoai.cost_core import MAX_DECIMAL_EXPONENT, exact_ratio

from conftest import simple_scenario

_SCENARIO = simple_scenario("s", "1000", "0.01", 1000)

# every public way an amount, rate, multiplier or swing enters lcoai; "0.5"
# is a valid value at each of them
_SITES = {
    "exact_ratio": exact_ratio,
    "usd_to_micro": usd_to_micro,
    "Money.from_usd": Money.from_usd,
    "PerInferenceRate.from_usd": PerInferenceRate.from_usd,
    "Money.scaled": Money(10**6).scaled,
    "DiscountPolicy": lambda value: DiscountPolicy("wacc", value),
    "DiscountPolicy, no discounting": lambda value: DiscountPolicy("none", value),
    "SweepSpec": lambda value: SweepSpec("capex_multiplier", (value,)),
    "with_capex_scaled": lambda value: with_capex_scaled(_SCENARIO, value),
    "tornado": lambda value: tornado(_SCENARIO, value),
}


def _outcome(site, value):
    """The site's result, or the type and message of what it raised."""
    try:
        return _SITES[site](value)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


class TestExactRatio:
    @pytest.mark.parametrize("value, ratio", [
        ("0.08", (2, 25)), ("-1.5", (-3, 2)), ("50000", (50000, 1)), (" 1e2 ", (100, 1)),
        (f"1e{MAX_DECIMAL_EXPONENT}", (10**MAX_DECIMAL_EXPONENT, 1)),
        (7, (7, 1)), (Decimal("0.0048"), (3, 625)), (Fraction(1, 3), (1, 3)),
    ])
    def test_exact_values(self, value, ratio):
        assert exact_ratio(value) == ratio

    @pytest.mark.parametrize("site", _SITES)
    def test_valid_text_is_read_at_every_site(self, site):
        assert _outcome(site, "0.5") == _outcome(site, Fraction(1, 2))

    @pytest.mark.parametrize("site", _SITES)
    @pytest.mark.parametrize("value", [0.1, 0.5, True, False, [1]])
    def test_floats_bools_and_other_types_are_refused_at_every_site(self, site, value):
        with pytest.raises(TypeError, match="decimal string"):
            _SITES[site](value)

    @pytest.mark.parametrize("site", _SITES)
    @pytest.mark.parametrize("text", ["3/4", "1/2", "", "abc", "0x10", "1.2.3"])
    def test_anything_but_decimal_text_is_refused_at_every_site(self, site, text):
        with pytest.raises(ValueError, match="not a decimal value"):
            _SITES[site](text)

    @pytest.mark.parametrize("site", _SITES)
    @pytest.mark.parametrize("text", ["NaN", "-Infinity", "inf", "sNaN"])
    def test_non_finite_values_are_refused_at_every_site(self, site, text):
        for value in (text, Decimal(text)):
            with pytest.raises(ValueError, match="not a finite decimal value"):
                _SITES[site](value)

    @pytest.mark.parametrize("site", _SITES)
    @pytest.mark.parametrize("text", [
        f"1e-{MAX_DECIMAL_EXPONENT + 1}", f"1e{MAX_DECIMAL_EXPONENT + 1}",
        "1e-1000000", "0e-999999999", "1e999999999999999999"])
    def test_exponents_past_the_bound_are_refused_quickly_at_every_site(self, site, text):
        for value in (text, Decimal(text)):
            began = time.perf_counter()
            with pytest.raises(ValueError, match="exponent"):
                _SITES[site](value)
            # the exponent is checked before any digit of the value is built
            assert time.perf_counter() - began < 0.5

    @pytest.mark.parametrize("site", _SITES)
    def test_a_hostile_decimal_context_changes_no_result_or_message(self, site):
        texts = ["0.5", "abc", "NaN", "-Infinity", "1e-101", "1E+101", "0.12345678901234567"]
        values = texts + [Decimal(t) for t in texts if t != "abc"]
        expected = [_outcome(site, value) for value in values]
        with decimal.localcontext() as ctx:
            ctx.traps[decimal.InvalidOperation] = False
            ctx.prec = 3
            ctx.rounding = decimal.ROUND_CEILING
            ctx.capitals = 0
            got = [_outcome(site, value) for value in values]
        assert got == expected

    @pytest.mark.parametrize("site, value, message", [
        ("exact_ratio", "abc", "not a decimal value: 'abc'"),
        ("exact_ratio", "nan", "not a finite decimal value: 'NaN'"),
        ("exact_ratio", "1e-101", f"the exponent of '1E-101' is outside ±{MAX_DECIMAL_EXPONENT}"),
        ("usd_to_micro", "0.0000001",
         "0.0000001 exceeds micro-dollar resolution (6 decimal places)"),
        ("exact_ratio", "x" * 60, f"not a decimal value: '{'x' * 60}'"),
        # a value of more than 60 characters is echoed by its first and last 20
        ("exact_ratio", "x" * 61,
         f"not a decimal value: '{'x' * 20}[21 characters left out]{'x' * 20}'"),
        ("exact_ratio", "NaN" + "1" * 100,
         f"not a finite decimal value: 'NaN{'1' * 17}[63 characters left out]{'1' * 20}'"),
        ("exact_ratio", "9" * 5000, f"the exponent of '{'9' * 20}[4,960 characters left out]"
                                    f"{'9' * 20}' is outside ±{MAX_DECIMAL_EXPONENT}"),
        ("usd_to_micro", "0." + "1" * 5000,
         f"0.{'1' * 18}[4,962 characters left out]{'1' * 20} "
         "exceeds micro-dollar resolution (6 decimal places)"),
        ("usd_to_micro", Fraction(1, 3), "1/3 exceeds micro-dollar resolution (6 decimal places)"),
        # past the 4,300-digit limit of str(int), quoted as if str() had written it
        ("usd_to_micro", Fraction(1, 3 * 10**5000),
         f"1/3{'0' * 17}[4,963 characters left out]{'0' * 20} "
         "exceeds micro-dollar resolution (6 decimal places)"),
        ("usd_to_micro", Fraction(-1, 3 * 10**5000),
         f"-1/3{'0' * 16}[4,964 characters left out]{'0' * 20} "
         "exceeds micro-dollar resolution (6 decimal places)"),
    ], ids=["malformed", "non-finite", "exponent", "resolution", "60 characters",
            "61 characters", "long non-finite", "long exponent", "long resolution",
            "Fraction resolution", "Fraction past the integer-string limit",
            "negative Fraction past the integer-string limit"])
    def test_messages(self, site, value, message):
        assert _outcome(site, value) == (ValueError, message)

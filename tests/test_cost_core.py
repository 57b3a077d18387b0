"""Amortization, discounting, and the core levelized-cost computation."""

import decimal
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from lcoai import (
    CapexItem,
    CostScenario,
    DiscountPolicy,
    FieldError,
    HORIZON_LIFE,
    Horizon,
    InvalidHorizonError,
    Money,
    NO_DISCOUNT,
    OpexModel,
    PerInferenceRate,
    UndefinedMetricError,
    VolumeProjection,
    amortize_capex,
    compute_lcoai,
    discount_factor,
    round_half_away,
)
from lcoai import cost_core
from lcoai.cost_core import MAX_DECIMAL_EXPONENT, MAX_DISCOUNTED_MONTHS

from conftest import simple_scenario


def assert_correctly_rounded(policy: DiscountPolicy, period_index: int,
                             period_length_months: int, factor: Fraction) -> None:
    """``1 / factor`` is b^(n/k) rounded half-even to 50 significant digits,
    where b = bn/bd is 1+annual_rate rounded half-even to 50 significant
    digits and n/k the period's end in years. Checked by exact integer
    brackets: the power P has the 50 digits m at ``places`` decimal places
    (a power below 2^100 has fewer than 50 whole digits), and
    (2m - 1)^k * bd^n <= 2^k * bn^n * 10^(k * places) <= (2m + 1)^k * bd^n,
    with equality (a tie) only for an even m."""
    years = Fraction(period_index * period_length_months, 12)
    n, k = years.numerator, years.denominator
    with decimal.localcontext() as ctx:
        ctx.prec, ctx.rounding = 50, decimal.ROUND_HALF_EVEN
        base = 1 + policy.annual_rate
        bn, bd = (Decimal(base.numerator) / Decimal(base.denominator)).as_integer_ratio()
    power = 1 / factor
    places = 50 - len(str(power.numerator // power.denominator))
    m = power * 10**places
    assert m.denominator == 1 and 10**49 <= m.numerator < 10**50
    m, target = m.numerator, 2**k * bn**n * 10**(k * places)
    low, high = (2 * m - 1)**k * bd**n, (2 * m + 1)**k * bd**n
    assert low < target < high or target in (low, high) and m % 2 == 0


# annual rates as decimal text of 1-15 digits in [0, 1), and library rates
# whose 1+rate has no short decimal
_RATES = st.one_of(
    st.integers(1, 15).flatmap(lambda digits: st.integers(0, 10**digits - 1).map(
        lambda n: Fraction(f"0.{n:0{digits}d}"))),
    st.sampled_from([Fraction(1, 3), Fraction(2, 7), Fraction(99, 100), Fraction(1, 10**92)]),
)


@st.composite
def _factor_cases(draw):
    """(rate, period length, period index) with the horizon within the cap;
    grids whose periods end on halves, thirds, quarters, sixths and twelfths
    of a year drawn often, so each kind of root is hit."""
    months = draw(st.one_of(st.sampled_from([1, 2, 3, 4, 6, 9, 18]), st.integers(1, 24)))
    return draw(_RATES), months, draw(st.integers(1, MAX_DISCOUNTED_MONTHS // months))


class TestTypeInvariants:
    def test_horizon_rejects_zero_periods(self):
        with pytest.raises(InvalidHorizonError):
            Horizon(0)

    def test_horizon_rejects_zero_month_periods(self):
        with pytest.raises(InvalidHorizonError):
            Horizon(1, 0)

    def test_capex_item_rejects_negative_amount(self):
        with pytest.raises(ValueError):
            CapexItem("x", Money(-1))

    def test_capex_item_rejects_bad_life(self):
        with pytest.raises(ValueError):
            CapexItem("x", Money(1), 0)
        with pytest.raises(ValueError):
            CapexItem("x", Money(1), "forever")

    def test_volume_entries_must_be_non_negative_ints(self):
        with pytest.raises(ValueError):
            VolumeProjection((1, -2))
        with pytest.raises(ValueError):
            VolumeProjection(())

    def test_scenario_requires_matching_period_counts(self):
        with pytest.raises(ValueError):
            CostScenario(
                name="mismatch",
                capex=(),
                opex=OpexModel(PerInferenceRate(0)),
                volume=VolumeProjection((1, 2)),
                horizon=Horizon(3, 12),
            )

    def test_discount_policy_bounds(self):
        with pytest.raises(ValueError):
            DiscountPolicy("wacc")  # rate required
        with pytest.raises(ValueError):
            DiscountPolicy("wacc", Fraction(1))  # 100% rejected
        with pytest.raises(ValueError):
            DiscountPolicy("wacc", Fraction(-1, 10))
        assert not DiscountPolicy("wacc", Fraction(0)).is_discounting
        assert DiscountPolicy("wacc", Fraction(1, 10)).is_discounting

    def test_annual_rate_denominator_is_bounded(self):
        assert DiscountPolicy("wacc", "0." + "1" * MAX_DECIMAL_EXPONENT).is_discounting
        assert DiscountPolicy("wacc", Fraction(1, 10**MAX_DECIMAL_EXPONENT)).is_discounting
        for rate in ("0." + "1" * (MAX_DECIMAL_EXPONENT + 1),
                     Fraction(1, 10**MAX_DECIMAL_EXPONENT + 1)):
            with pytest.raises(FieldError, match=f"annual_rate: more than {MAX_DECIMAL_EXPONENT} decimal"):
                DiscountPolicy("none", rate)

    @pytest.mark.parametrize("build, field", [
        (lambda: CapexItem("", Money(1)), "label"),
        (lambda: CapexItem(None, Money(1)), "label"),
        (lambda: CapexItem("x", Money(1), True), "asset_life_months"),
        (lambda: VolumeProjection(()), "per_period"),
        (lambda: VolumeProjection((1, 2, -3)), "per_period[2]"),
        (lambda: DiscountPolicy("annual"), "mode"),
        (lambda: DiscountPolicy("wacc"), "annual_rate"),
        (lambda: DiscountPolicy("wacc", Fraction(1, 10), 1), "discount_denominator"),
        (lambda: simple_scenario("", "0", "0.01", 1), "name"),
        (lambda: simple_scenario(7, "0", "0.01", 1), "name"),
    ])
    def test_field_errors_name_the_rejected_field(self, build, field):
        with pytest.raises(FieldError) as info:
            build()
        assert info.value.field == field

    def test_discounted_horizon_is_bounded(self):
        policy = DiscountPolicy("wacc", Fraction(2, 25))
        longest = simple_scenario("a", "0", "0.01", 1, horizon=Horizon(1, MAX_DISCOUNTED_MONTHS),
                                  discount=policy)
        assert compute_lcoai(longest).discounted
        for horizon in (Horizon(1, MAX_DISCOUNTED_MONTHS + 1), Horizon(2, 601),
                        Horizon(1, 1_200_000_001)):
            with pytest.raises(FieldError) as info:
                simple_scenario("a", "0", "0.01", [1] * horizon.periods, horizon=horizon,
                                discount=policy)
            assert info.value.field == "horizon"
        # no factor is computed without discounting, so no bound applies
        for policy in (NO_DISCOUNT, DiscountPolicy("wacc", Fraction(0))):
            simple_scenario("a", "0", "0.01", 1, horizon=Horizon(1, 10**9), discount=policy)

    def test_zero_volume_scenario_is_constructible(self):
        scenario = simple_scenario("lazy", "100", "0.01", 0)
        assert scenario.volume.total == 0


class TestAmortize:
    def test_full_horizon_item_charges_everything_in_one_period(self):
        items = [CapexItem("capex", Money.from_usd("200000"))]
        stream = amortize_capex(items, Horizon(1, 12))
        assert stream == [Money.from_usd("200000")]

    def test_empty_items_give_zero_stream(self):
        assert amortize_capex([], Horizon(4, 12)) == [Money(0)] * 4

    def test_straight_line_share_for_longer_asset_life(self):
        # oracle: sum of monthly straight-line charges, amount/36 per month for 12 months
        amount = Money.from_usd("120000")
        monthly = Fraction(amount.amount, 36)
        oracle = round_half_away(monthly * 12)
        stream = amortize_capex([CapexItem("gpu", amount, 36)], Horizon(1, 12))
        assert stream == [Money(oracle)] == [Money.from_usd("40000")]

    def test_uniform_spread_with_residual_in_final_period(self):
        stream = amortize_capex([CapexItem("x", Money(100))], Horizon(3, 12))
        assert [m.amount for m in stream] == [33, 33, 34]
        assert sum(m.amount for m in stream) == 100

    def test_life_equal_to_the_horizon_spreads_uniformly_with_the_residual_last(self):
        # month-by-month cumulative rounding would give [3, 4, 3]
        stream = amortize_capex([CapexItem("x", Money(10), 3)], Horizon(3, 1))
        assert [m.amount for m in stream] == [3, 3, 4]

    def test_short_asset_life_charges_fully_within_life_span(self):
        # 18-month life inside a 36-month horizon: months 1-12 in period 1,
        # 13-18 in period 2, nothing in period 3
        amount = Money.from_usd("100000")
        stream = amortize_capex([CapexItem("x", amount, 18)], Horizon(3, 12))
        assert sum(m.amount for m in stream) == amount.amount
        assert stream[2] == Money(0)
        monthly = Fraction(amount.amount, 18)
        assert abs(stream[0].amount - monthly * 12) <= 1
        assert abs(stream[1].amount - monthly * 6) <= 1

    def test_multiple_items_accumulate(self):
        items = [
            CapexItem("a", Money.from_usd("1200")),
            CapexItem("b", Money.from_usd("2400"), 24),
        ]
        stream = amortize_capex(items, Horizon(1, 12))
        # a fully charged, b half charged (12 of 24 months)
        assert stream == [Money.from_usd("2400")]

    @settings(max_examples=100)
    @given(
        amount=st.integers(min_value=0, max_value=10**12),
        life=st.one_of(st.just(HORIZON_LIFE), st.integers(min_value=1, max_value=120)),
        periods=st.integers(min_value=1, max_value=8),
        plm=st.sampled_from([1, 3, 6, 12]),
    )
    def test_conservation(self, amount, life, periods, plm):
        horizon = Horizon(periods, plm)
        stream = amortize_capex([CapexItem("x", Money(amount), life)], horizon)
        total = sum(m.amount for m in stream)
        assert total <= amount
        assert all(m.amount >= 0 for m in stream)
        if life == HORIZON_LIFE or life <= horizon.months:
            assert total == amount


class TestDiscountFactor:
    def test_none_mode_is_always_one(self):
        assert discount_factor(NO_DISCOUNT, 3) == 1

    def test_wacc_first_annual_period(self):
        policy = DiscountPolicy("wacc", Fraction(1, 10))
        assert discount_factor(policy, 1, 12) == Fraction(10, 11)

    def test_zero_rate_degenerates_to_one(self):
        policy = DiscountPolicy("wacc", Fraction(0))
        assert discount_factor(policy, 5, 12) == 1

    def test_commissioning_period_carries_factor_one(self):
        policy = DiscountPolicy("wacc", Fraction(1, 4))
        assert discount_factor(policy, 0, 12) == 1

    def test_multi_year_exponent(self):
        policy = DiscountPolicy("wacc", Fraction(1, 10))
        assert discount_factor(policy, 3, 12) == Fraction(1000, 1331)

    def test_fractional_exponent_is_deterministic_and_close(self):
        policy = DiscountPolicy("wacc", Fraction(21, 100))
        one_month = discount_factor(policy, 1, 1)
        assert one_month == discount_factor(policy, 1, 1)
        # (1.21)^(1/12) is irrational; check against the 12th root squared:
        # factor^12 must reproduce 1/1.21 to well under 1e-40
        assert abs(one_month**12 - Fraction(100, 121)) < Fraction(1, 10**40)

    def test_negative_period_rejected(self):
        with pytest.raises(ValueError):
            discount_factor(NO_DISCOUNT, -1)

    @pytest.mark.parametrize("rate, months, t, power", [
        # (1 + rate)^(t * months / 12) correctly rounded to 50 significant
        # digits; any change to that power must fail here
        ("0.08", 3, 1, "1.0194265469082735124750748993344898541502272529569"),
        ("0.08", 3, 5, "1.1009806706609353934730808912812490424822454331934"),
        ("0.07", 1, 1, "1.0056541453874052770566396509761575181344065938454"),
        ("0.105", 3, 3, "1.0777591248975729574197322631691489545717627969875"),
        ("0.08", 6, 1, "1.0392304845413263761164678049035234201656831522862"),
        ("0.08", 9, 1, "1.0594191442977762643286322026753416203065283737202"),
        # thirds, sixths and twelfths of a year whose last digit a power
        # taken at the exponent rounded to 50 digits gets wrong
        ("0.08", 4, 7, "1.1967095665222196210288797133610950592900596885625"),
        ("0.08", 10, 13, "2.3019224285302671327713685853912253254023091797483"),
        ("0.07", 1, 29, "1.1776352478453164018104782404841117902393699142651"),
        ("0.08", 3, 399, "2157.8418406041534394597473066662137720644208676240"),
        # a 50-digit base at the cap's last odd quarter: the root path's
        # largest exact integers
        ("1/3", 3, 399, "2901609581534.3867593762969552126692981526251627601"),
        # exact powers with a 51st digit of 5: half-even keeps an even 50th
        # digit and raises an odd one
        ("0.1025", 6, 25, "3.3863549408993848167083336666837364435195922851562"),
        ("0.00000000300000000225", 6, 5, "1.0000000075000000225000000337500000253125000075938"),
        ("0.0000000060000000135000000135000000050625", 3, 5,
         "1.0000000075000000225000000337500000253125000075938"),
    ])
    def test_pinned_factors(self, rate, months, t, power):
        policy = DiscountPolicy("wacc", Fraction(rate))
        assert discount_factor(policy, t, months) == 1 / Fraction(power)

    @pytest.mark.parametrize("bn, bd, n, k", [
        # with a 51-digit scale, the floor of each root ends in the two guard
        # digits 50 but the root is irrational: a tie only in the floor, which
        # must round up whatever the parity of the 50th digit
        (122, 100, 1, 2), (112, 100, 5, 2), (152, 100, 3, 2),
        (179, 100, 1, 4), (157, 100, 13, 4), (107, 100, 11, 4),
        (106, 100, 34, 3), (106, 100, 7, 6), (109, 100, 5, 12)])
    def test_root_ties_of_the_floor_are_settled_exactly(self, bn, bd, n, k, monkeypatch):
        monkeypatch.setattr(cost_core, "_ROOT_SCALE", 51)
        power = cost_core._root_power(bn, bd, n, k)
        # exact integer brackets: power is within half a unit in its 50th
        # significant digit of (bn/bd)^(n/k) * 10^51
        target, den = bn**n * 10**(51 * k), bd**n
        half = 10**(len(str(power)) - 50) // 2
        assert (power - half)**k * den < target < (power + half)**k * den

    @given(st.integers(2, 10**400))
    def test_integer_cube_root_is_the_floor(self, m):
        assert cost_core._icbrt(m**3 - 1) == m - 1
        assert cost_core._icbrt(m**3) == cost_core._icbrt(m**3 + 3 * m) == m

    def test_exact_half_year_root(self):
        # 1.21^(1/2) = 1.1 exactly
        assert discount_factor(DiscountPolicy("wacc", Fraction("0.21")), 1, 6) == Fraction(10, 11)

    def test_caller_decimal_context_is_ignored(self):
        cases = [(Fraction("0.08"), 1, 3), (Fraction("0.08"), 1, 6), (Fraction(1, 3), 1, 3),
                 (Fraction(1, 3), 5, 6), (Fraction(1, 3), 1, 1), (Fraction("0.07"), 1, 1)]
        expected = [discount_factor(DiscountPolicy("wacc", rate), t, months)
                    for rate, t, months in cases]
        with decimal.localcontext() as ctx:
            ctx.traps[decimal.Inexact] = True
            ctx.rounding = decimal.ROUND_CEILING
            ctx.prec = 3
            got = [discount_factor(DiscountPolicy("wacc", rate), t, months)
                   for rate, t, months in cases]
        assert got == expected
        assert expected[0] == 1 / Fraction("1.0194265469082735124750748993344898541502272529569")

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="no integer-string limit on this interpreter")
    def test_factor_ignores_the_integer_string_limit(self):
        # the largest powers of each fractional-year grid: a 50-digit base
        # close to 2 over the last periods of the 1,200-month cap
        policy = DiscountPolicy("wacc", Fraction(10**49 - 1, 10**49))
        cases = [(1199, 1), (599, 2), (399, 3), (299, 4), (199, 6)]
        expected = [discount_factor(policy, t, months) for t, months in cases]
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            got = [discount_factor(policy, t, months) for t, months in cases]
        finally:
            sys.set_int_max_str_digits(limit)
        assert got == expected
        for (t, months), factor in zip(cases, expected):
            assert_correctly_rounded(policy, t, months, factor)

    @settings(max_examples=300, deadline=None)
    @given(_factor_cases())
    # thirds, sixths and twelfths of a year that a power taken at the
    # exponent rounded to 50 digits gets wrong
    @example((Fraction("0.08"), 4, 7))
    @example((Fraction("0.08"), 10, 13))
    @example((Fraction("0.08"), 5, 25))
    def test_every_factor_is_correctly_rounded(self, case):
        rate, months, t = case
        policy = DiscountPolicy("wacc", rate)
        factor = discount_factor(policy, t, months)
        if t * months % 12:
            assert_correctly_rounded(policy, t, months, factor)
        else:
            assert factor == 1 / (1 + rate) ** (t * months // 12)

    def test_whole_year_factor_is_the_exact_rational_power(self):
        policy = DiscountPolicy("wacc", Fraction("0.08"))
        assert discount_factor(policy, 2, 12) == Fraction(625, 729)


class TestComputeLcoai:
    def test_gpt41_table_value(self, gpt41):
        result = compute_lcoai(gpt41)
        assert result.per_thousand == Money.from_usd("15.00")
        assert result.per_inference == PerInferenceRate.from_usd("0.015")
        assert result.total_capex_charged == Money.from_usd("50000")
        assert result.total_opex == Money.from_usd("100000")
        assert result.total_inferences == 10_000_000
        assert not result.discounted

    def test_claude_table_value(self, claude):
        assert compute_lcoai(claude).per_thousand == Money.from_usd("9.80")

    def test_llama_table_value(self, llama):
        assert compute_lcoai(llama).per_thousand == Money.from_usd("24.80")

    def test_zero_capex_reduces_to_opex_rate(self):
        scenario = simple_scenario("api only", "0", "0.0073", 123_456)
        result = compute_lcoai(scenario)
        assert result.per_inference == PerInferenceRate.from_usd("0.0073")

    def test_zero_volume_is_undefined(self):
        with pytest.raises(UndefinedMetricError):
            compute_lcoai(simple_scenario("empty", "100", "0.01", 0))

    @pytest.mark.parametrize("capex_usd, volume, rate", [
        ("150000", 10_000_000, 15_000),
        ("1", 3, 333_333),          # 333,333.33.. rounds down
        ("2", 3, 666_667),          # 666,666.66.. rounds up
        ("0.000005", 2, 3),         # exactly 2.5 rounds away from zero
    ])
    def test_per_inference_rounds_the_exact_value_half_away(self, capex_usd, volume, rate):
        result = compute_lcoai(simple_scenario("div", capex_usd, "0", volume))
        assert result.per_inference.rate == rate
        assert result.exact_per_inference == Fraction(Money.from_usd(capex_usd).amount, volume)

    def test_per_thousand_is_exactly_thousandfold(self, llama):
        result = compute_lcoai(llama)
        assert result.per_thousand.amount == result.per_inference.rate * 1000

    def test_total_opex_of_half_a_micro_dollar_rounds_up(self):
        # 4 micro-dollars a year, discounted at 60% over one year: exactly 5/2
        scenario = simple_scenario("half", "0", "0", 1, fixed_usd="0.000004",
                                   discount=DiscountPolicy("wacc", "0.6"))
        assert compute_lcoai(scenario).total_opex == Money(3)

    def test_fixed_opex_enters_each_period(self):
        scenario = simple_scenario(
            "with fixed", "0", "0.001", [1000, 1000], fixed_usd="10",
            horizon=Horizon(2, 12))
        result = compute_lcoai(scenario)
        assert result.total_opex == Money.from_usd("22")  # 2*10 fixed + 2000*0.001

    def test_discounted_three_year_scenario_matches_oracle(self):
        rate = PerInferenceRate.from_usd("0.005")
        volumes = (4_000_000, 5_000_000, 6_000_000)
        policy = DiscountPolicy("wacc", Fraction(2, 25))  # 8%
        scenario = CostScenario(
            name="self-hosted 3y",
            capex=(CapexItem("cluster", Money.from_usd("120000")),),
            opex=OpexModel(rate),
            volume=VolumeProjection(volumes),
            horizon=Horizon(3, 12),
            discount=policy,
        )
        result = compute_lcoai(scenario)
        # oracle: write the present-value sum out directly
        growth = Fraction(27, 25)  # 1 + 8%
        opex_pv = sum(Fraction(rate.rate * v) / growth**t
                      for t, v in enumerate(volumes, start=1))
        capex = Money.from_usd("120000").amount
        assert result.total_opex == Money(round_half_away(opex_pv))
        assert result.total_capex_charged == Money(capex)  # commissioning lump, undiscounted
        expected_rate = round_half_away(
            Fraction(capex + result.total_opex.amount, sum(volumes)))
        assert result.per_inference.rate == expected_rate
        assert result.exact_per_inference == (capex + opex_pv) / sum(volumes)
        assert result.discounted
        assert not result.short_horizon_discounted

    def test_denominator_discounting_variant(self):
        rate = PerInferenceRate.from_usd("0.005")
        volumes = (4_000_000, 5_000_000, 6_000_000)
        policy = DiscountPolicy("wacc", Fraction(2, 25), discount_denominator=True)
        scenario = CostScenario(
            name="pv denominator",
            capex=(CapexItem("cluster", Money.from_usd("120000")),),
            opex=OpexModel(rate),
            volume=VolumeProjection(volumes),
            horizon=Horizon(3, 12),
            discount=policy,
        )
        result = compute_lcoai(scenario)
        growth = Fraction(27, 25)
        denominator = sum(Fraction(v) / growth**t
                          for t, v in enumerate(volumes, start=1))
        numerator = Money.from_usd("120000").amount + result.total_opex.amount
        assert result.per_inference.rate == round_half_away(Fraction(numerator) / denominator)
        assert result.total_inferences == sum(volumes)  # raw total is still reported

    def test_short_horizon_discounting_is_flagged(self):
        scenario = simple_scenario(
            "short but discounted", "1000", "0.01", 1_000,
            discount=DiscountPolicy("wacc", Fraction(1, 10)))
        result = compute_lcoai(scenario)
        assert result.discounted
        assert result.short_horizon_discounted

    def test_repr_holds_for_an_exact_value_too_long_to_print(self):
        # 200 quarterly WACC periods: the exact value's integers run past the
        # interpreter's 4,300-digit str() limit, so the repr must leave it out
        scenario = CostScenario(
            "long", (CapexItem("c", Money(10**11)),),
            OpexModel(PerInferenceRate(100), Money(10**6)),
            VolumeProjection(tuple(range(1, 201))), Horizon(200, 3),
            DiscountPolicy("wacc", Fraction(8, 100)))
        result = compute_lcoai(scenario)
        assert result.exact_per_inference.denominator.bit_length() > 4_300 * 10 // 3
        text = repr(result)
        assert "exact_per_inference" not in text
        assert f"per_thousand={result.per_thousand!r}" in text


# randomized inputs for the single-period analytic regime
_capex = st.integers(min_value=0, max_value=10**12)     # micro-dollars
_rate = st.integers(min_value=0, max_value=10**6)       # micro-dollars/inference
_volume = st.integers(min_value=1, max_value=10**9)


def _analytic(capex_micro, rate_micro, volume):
    return CostScenario(
        name="grid",
        capex=(CapexItem("c", Money(capex_micro)),) if capex_micro else (),
        opex=OpexModel(PerInferenceRate(rate_micro)),
        volume=VolumeProjection((volume,)),
        horizon=Horizon(1, 12),
    )


class TestComputeProperties:
    @settings(max_examples=100)
    @given(capex=_capex, rate=_rate, volume=_volume)
    def test_closed_form_equivalence(self, capex, rate, volume):
        result = compute_lcoai(_analytic(capex, rate, volume))
        assert result.per_inference.rate == round_half_away(Fraction(capex, volume) + rate)
        assert result.exact_per_inference == Fraction(capex, volume) + rate

    @settings(max_examples=100)
    @given(capex=st.integers(min_value=1, max_value=10**12), rate=_rate,
           v1=_volume, v2=_volume)
    def test_monotonic_in_volume(self, capex, rate, v1, v2):
        if v1 == v2:
            v2 = v1 + 1
        lo, hi = sorted((v1, v2))
        small = compute_lcoai(_analytic(capex, rate, lo))
        large = compute_lcoai(_analytic(capex, rate, hi))
        assert large.exact_per_inference < small.exact_per_inference
        assert large.per_inference.rate <= small.per_inference.rate

    @settings(max_examples=100)
    @given(capex=_capex, rate=_rate, volume=_volume)
    def test_asymptote_gap_is_exactly_capex_over_volume(self, capex, rate, volume):
        result = compute_lcoai(_analytic(capex, rate, volume))
        assert result.exact_per_inference - rate == Fraction(capex, volume)
        assert result.per_inference.rate - rate == round_half_away(Fraction(capex, volume))

    @settings(max_examples=100)
    @given(rate=_rate, fixed=st.integers(min_value=0, max_value=10**9),
           volumes=st.lists(_volume, min_size=1, max_size=6))
    def test_undiscounted_opex_is_fixed_per_period_plus_rate_times_volume(
            self, rate, fixed, volumes):
        result = compute_lcoai(CostScenario(
            name="opex",
            capex=(),
            opex=OpexModel(PerInferenceRate(rate), Money(fixed)),
            volume=VolumeProjection(volumes),
            horizon=Horizon(len(volumes), 12),
        ))
        assert result.total_opex == Money(fixed * len(volumes) + rate * sum(volumes))

    @settings(max_examples=100)
    @given(
        capex=st.integers(min_value=0, max_value=10**10),
        rate=st.integers(min_value=0, max_value=10**5),
        fixed=st.integers(min_value=0, max_value=10**9),
        volume=_volume,
        num=st.integers(min_value=1, max_value=10),
        den=st.integers(min_value=1, max_value=10),
    )
    def test_homogeneity_under_cost_scaling(self, capex, rate, fixed, volume, num, den):
        k = Fraction(num, den)
        base = CostScenario(
            name="base",
            capex=(CapexItem("c", Money(capex * den)),),
            opex=OpexModel(PerInferenceRate(rate * den), Money(fixed * den)),
            volume=VolumeProjection((volume,)),
            horizon=Horizon(1, 12),
        )
        scaled = CostScenario(
            name="scaled",
            capex=(CapexItem("c", base.capex[0].amount.scaled(k)),),
            opex=OpexModel(PerInferenceRate(Money(base.opex.per_inference.rate).scaled(k).amount),
                           base.opex.fixed_per_period.scaled(k)),
            volume=base.volume,
            horizon=base.horizon,
        )
        r_base = compute_lcoai(base)
        r_scaled = compute_lcoai(scaled)
        # scaling is exact by construction, so the unrounded value scales exactly
        assert r_scaled.exact_per_inference == k * r_base.exact_per_inference
        # the rounded value stays within one micro-dollar unit for k <= 1
        if k <= 1:
            gap = Fraction(r_scaled.per_inference.rate) - k * r_base.per_inference.rate
            assert abs(gap) <= 1

    @settings(max_examples=100)
    @given(capex=_capex, rate=_rate, volume=_volume,
           denominator_too=st.booleans())
    def test_zero_rate_discount_equals_no_discount(self, capex, rate, volume,
                                                   denominator_too):
        plain = _analytic(capex, rate, volume)
        degenerate = CostScenario(
            name="grid",
            capex=plain.capex,
            opex=plain.opex,
            volume=plain.volume,
            horizon=plain.horizon,
            discount=DiscountPolicy("wacc", Fraction(0),
                                    discount_denominator=denominator_too),
        )
        assert compute_lcoai(degenerate) == compute_lcoai(plain)

"""Amortization, discounting, and the core levelized-cost computation."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

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

from conftest import simple_scenario


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

    def test_per_thousand_is_exactly_thousandfold(self, llama):
        result = compute_lcoai(llama)
        assert result.per_thousand.amount == result.per_inference.rate * 1000

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
            opex=OpexModel(base.opex.per_inference.scaled(k),
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

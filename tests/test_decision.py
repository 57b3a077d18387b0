"""Rankings, baseline savings, and fine-tuning thresholds."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from lcoai import (
    HORIZON_LIFE,
    CapexItem,
    ComparisonRow,
    CostScenario,
    DiscountPolicy,
    Horizon,
    Money,
    OpexModel,
    PerInferenceRate,
    VolumeProjection,
    baseline_savings,
    break_even,
    build_comparison_table,
    compare,
    compute_lcoai,
    fine_tune_threshold,
    load_scenarios,
)

from conftest import FIXTURES, simple_scenario


class TestCompare:
    def test_table_fixture_order(self, gpt41, claude, llama):
        rows = compare([gpt41, claude, llama])
        assert [r.scenario_name for r in rows] == [
            "Claude Haiku API", "GPT-4.1 API", "LLaMA-2-13B self-hosted"]
        assert [r.per_thousand for r in rows] == [
            Money.from_usd("9.80"), Money.from_usd("15.00"), Money.from_usd("24.80")]

    def test_row_columns_reproduce_inputs(self, gpt41):
        row = compare([gpt41])[0]
        assert row.capex_total == Money.from_usd("50000")
        assert row.opex_rate == PerInferenceRate.from_usd("0.01")
        assert row.volume == 10_000_000
        assert row.opex_total == Money.from_usd("100000")
        assert row.per_thousand == Money.from_usd("15.00")

    def test_single_scenario(self, claude):
        assert len(compare([claude])) == 1

    def test_gemini_flash_calibration_ranks_first(self):
        scenarios = load_scenarios(FIXTURES / "vendors.json")
        rows = compare(scenarios)
        assert rows[0].scenario_name == "Gemini Flash API"
        assert rows[0].per_thousand == Money.from_usd("5.75")

    def test_duplicate_names_rejected(self, gpt41):
        with pytest.raises(ValueError, match="duplicate"):
            compare([gpt41, gpt41])

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            compare([])

    def test_input_read_once(self):
        # an iterator gives the rows a list gives, not none
        scenarios = load_scenarios(FIXTURES / "table1.json")
        assert compare(iter(scenarios)) == compare(scenarios)
        assert build_comparison_table(s for s in scenarios).render() == \
            build_comparison_table(scenarios).render()
        assert build_comparison_table(iter(())).render() == build_comparison_table([]).render()

    def test_ties_break_by_capex_then_name(self):
        # same $2.00 per 1,000 three ways
        a = simple_scenario("b-name", "0", "0.002", 1_000_000)
        b = simple_scenario("a-name", "0", "0.002", 1_000_000)
        c = simple_scenario("cheap capex", "1000", "0.001", 1_000_000)
        rows = compare([a, b, c])
        assert [r.scenario_name for r in rows] == ["a-name", "b-name", "cheap capex"]

    @settings(max_examples=100)
    @given(
        rates=st.lists(st.integers(min_value=0, max_value=10**5),
                       min_size=2, max_size=5, unique=True),
        capex_units=st.lists(st.integers(min_value=0, max_value=10**4),
                             min_size=5, max_size=5),
        volume=st.integers(min_value=1, max_value=10**6),
        k=st.integers(min_value=1, max_value=50),
    )
    def test_ranking_invariant_under_uniform_cost_scaling(self, rates, capex_units,
                                                          volume, k):
        # capex as a multiple of the volume keeps every per-inference value an
        # exact integer, so no rounding can blur the ordering
        scenarios = [
            CostScenario(f"s{i}", (CapexItem("c", Money(c * volume)),),
                         OpexModel(PerInferenceRate(r)),
                         VolumeProjection((volume,)), Horizon(1, 12))
            for i, (r, c) in enumerate(zip(rates, capex_units))
        ]
        values = [compute_lcoai(s).per_inference.rate for s in scenarios]
        assume(len(set(values)) == len(values))
        scaled = [
            CostScenario(s.name, (CapexItem("c", Money(s.capex[0].amount.amount * k)),),
                         OpexModel(PerInferenceRate(s.opex.per_inference.rate * k)),
                         s.volume, s.horizon)
            for s in scenarios
        ]
        original_order = [r.scenario_name for r in compare(scenarios)]
        scaled_order = [r.scenario_name for r in compare(scaled)]
        assert original_order == scaled_order


@st.composite
def _scenarios(draw):
    """A scenario of 1-12 periods, discounted or not, with fixed OPEX; its
    name is set by the test."""
    periods = draw(st.integers(min_value=1, max_value=12))
    horizon = Horizon(periods, draw(st.sampled_from((1, 3, 6, 12))))
    volumes = draw(st.lists(st.integers(min_value=0, max_value=10**7),
                            min_size=periods, max_size=periods))
    assume(sum(volumes))
    capex = tuple(
        CapexItem(f"item {k}", Money(draw(st.integers(min_value=0, max_value=10**12))),
                  draw(st.sampled_from((HORIZON_LIFE, 1, 5, 24, 60, 240))))
        for k in range(draw(st.integers(min_value=0, max_value=3))))
    opex = OpexModel(PerInferenceRate(draw(st.integers(min_value=0, max_value=20_000))),
                     Money(draw(st.integers(min_value=0, max_value=10**10))))
    rate = draw(st.sampled_from((None, "0", "0.05", "0.08", "0.105")))
    discount = DiscountPolicy() if rate is None else DiscountPolicy(
        "wacc", Fraction(rate), draw(st.booleans()))
    return CostScenario("unnamed", capex, opex, VolumeProjection(volumes), horizon, discount)


def _row_from_compute_lcoai(scenario: CostScenario) -> ComparisonRow:
    result = compute_lcoai(scenario)
    return ComparisonRow(scenario.name, scenario.capex_total, scenario.opex.per_inference,
                         result.total_inferences, result.total_opex, result.per_thousand)


class TestCompareAgainstComputeLcoai:
    @settings(max_examples=80)
    @given(data=st.data(), bases=st.lists(_scenarios(), min_size=1, max_size=5))
    def test_rows_and_order(self, data, bases):
        scenarios = []
        for i, base in enumerate(bases):
            # twins cost the same per 1,000: one differs only in name, the
            # other also in raw CAPEX, through an item that charges nothing
            # within the horizon (its share rounds to 0 micro-dollars)
            extra = data.draw(st.integers(min_value=1, max_value=1_000))
            idle = CapexItem("idle", Money(extra), 2 * extra * base.horizon.months + 1)
            fields = (base.opex, base.volume, base.horizon, base.discount)
            scenarios += [CostScenario(f"{i}-c", base.capex, *fields),
                          CostScenario(f"{i}-b", base.capex, *fields),
                          CostScenario(f"{i}-a", base.capex + (idle,), *fields)]
        scenarios = data.draw(st.permutations(scenarios))
        expected = sorted(map(_row_from_compute_lcoai, scenarios),
                          key=lambda r: (r.per_thousand, r.capex_total, r.scenario_name))
        assert compare(scenarios) == expected


class TestBaselineSavings:
    def test_llama_against_human_labor_baseline(self, llama):
        result = baseline_savings(compute_lcoai(llama), Money.from_usd("300"))
        assert result.savings_per_thousand == Money.from_usd("275.20")
        assert result.savings_ratio == Fraction(27_520, 30_000)

    def test_gpt41_against_human_labor_baseline(self, gpt41):
        result = baseline_savings(compute_lcoai(gpt41), Money.from_usd("300"))
        assert result.savings_per_thousand == Money.from_usd("285.00")

    def test_equal_baseline_gives_zero_savings(self, gpt41):
        result = baseline_savings(compute_lcoai(gpt41), Money.from_usd("15.00"))
        assert result.savings_per_thousand == Money(0)
        assert result.savings_ratio == 0

    def test_cheaper_baseline_gives_negative_savings(self, llama):
        result = baseline_savings(compute_lcoai(llama), Money.from_usd("10"))
        assert result.savings_per_thousand == Money.from_usd("-14.80")
        assert result.savings_ratio < 0

    def test_zero_baseline_has_no_ratio(self, llama):
        result = baseline_savings(compute_lcoai(llama), Money(0))
        assert result.savings_ratio is None

    def test_negative_baseline_rejected(self, llama):
        with pytest.raises(ValueError):
            baseline_savings(compute_lcoai(llama), Money(-1))

    @settings(max_examples=100)
    @given(baseline_micro=st.integers(min_value=0, max_value=10**12))
    def test_savings_are_baseline_minus_lcoai(self, baseline_micro):
        result = compute_lcoai(simple_scenario("s", "0", "0.001", 1_000))
        comparison = baseline_savings(result, Money(baseline_micro))
        assert comparison.savings_per_thousand.amount == \
            baseline_micro - result.per_thousand.amount


class TestFineTuneThreshold:
    def test_halved_rate_with_50k_investment(self):
        decision = fine_tune_threshold(
            PerInferenceRate.from_usd("0.010"),
            PerInferenceRate.from_usd("0.005"),
            Money.from_usd("50000"))
        assert decision.threshold_volume == 10_000_001
        # oracle: evaluate both cost curves either side of the threshold
        v = decision.threshold_volume
        base, tuned, capex = 10_000, 5_000, Money.from_usd("50000").amount
        assert capex + tuned * v < base * v
        assert capex + tuned * (v - 1) >= base * (v - 1)

    def test_no_rate_advantage_is_never(self):
        rate = PerInferenceRate.from_usd("0.01")
        assert fine_tune_threshold(rate, rate, Money.from_usd("1")).threshold_volume is None
        worse = PerInferenceRate.from_usd("0.02")
        assert fine_tune_threshold(rate, worse, Money(0)).threshold_volume is None

    def test_free_improvement_pays_off_immediately(self):
        decision = fine_tune_threshold(
            PerInferenceRate.from_usd("0.01"),
            PerInferenceRate.from_usd("0.005"),
            Money(0))
        assert decision.threshold_volume == 1

    def test_zero_capex_degenerate_case_means_domination(self):
        # with no tuning investment the pair has no capital gap: the
        # threshold is volume 1, which break_even expresses as outright
        # domination by the tuned deployment
        decision = fine_tune_threshold(PerInferenceRate(10), PerInferenceRate(5), Money(0))
        assert decision.threshold_volume == 1
        untuned = simple_scenario("untuned", "0", "0.00001", 1)
        tuned = simple_scenario("tuned", "0", "0.000005", 1)
        crossing = break_even(untuned, tuned)
        assert crossing.crossover_volume is None
        assert crossing.cheaper_below == crossing.cheaper_above == "tuned"

    @settings(max_examples=100)
    @given(
        base=st.integers(min_value=1, max_value=10**5),
        tuned=st.integers(min_value=0, max_value=10**5),
        capex=st.integers(min_value=1, max_value=10**11),
    )
    def test_agrees_with_break_even(self, base, tuned, capex):
        decision = fine_tune_threshold(
            PerInferenceRate(base), PerInferenceRate(tuned), Money(capex))
        untuned = CostScenario(
            "untuned", (), OpexModel(PerInferenceRate(base)),
            VolumeProjection((1,)), Horizon(1, 12))
        tuned_scenario = CostScenario(
            "tuned", (CapexItem("tuning", Money(capex)),),
            OpexModel(PerInferenceRate(tuned)),
            VolumeProjection((1,)), Horizon(1, 12))
        crossing = break_even(untuned, tuned_scenario, search_max=10**18)
        assert decision.threshold_volume == crossing.crossover_volume

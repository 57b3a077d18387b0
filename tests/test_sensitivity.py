"""Sweeps, break-even volumes, and tornado summaries."""

from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from lcoai import (
    BreakEvenResult,
    CapexItem,
    CostScenario,
    Horizon,
    IncompatibleScenariosError,
    Money,
    OpexModel,
    PerInferenceRate,
    SweepSpec,
    VolumeProjection,
    break_even,
    compute_lcoai,
    sweep,
    tornado,
    with_capex_scaled,
    with_total_volume,
)
from lcoai.sensitivity import MAX_SEARCH_MAX, _break_even_bisect

from conftest import simple_scenario


def _rate(usd):
    return PerInferenceRate.from_usd(usd)


class TestSweepSpec:
    def test_points_must_be_strictly_increasing(self):
        with pytest.raises(ValueError):
            SweepSpec("volume", (5, 5))
        with pytest.raises(ValueError):
            SweepSpec("volume", (5, 4))

    def test_points_must_be_non_empty(self):
        with pytest.raises(ValueError):
            SweepSpec("volume", ())

    def test_zero_volume_point_is_allowed(self):
        assert SweepSpec("volume", (0, 10)).points == (0, 10)

    def test_capex_multipliers_must_be_positive(self):
        with pytest.raises(ValueError):
            SweepSpec("capex_multiplier", (Fraction(0), Fraction(1)))

    def test_capex_sign_is_checked_before_order(self):
        with pytest.raises(ValueError, match="capex multipliers must be positive"):
            SweepSpec("capex_multiplier", (1, 0))

    @pytest.mark.parametrize("points", [
        (Fraction(1, 3), Fraction(2, 6)), (Fraction(2, 3), Fraction(3, 5)),
        (Fraction(1, 2), Fraction(3, 4), Fraction(3, 4))])
    def test_capex_points_must_be_strictly_increasing(self, points):
        with pytest.raises(ValueError, match="strictly increasing"):
            SweepSpec("capex_multiplier", points)

    def test_capex_points_of_every_exact_type_become_equal_fractions(self):
        points = SweepSpec("capex_multiplier", ("0.5", Decimal("0.75"), 1, Fraction(5, 4))).points
        assert points == (Fraction(1, 2), Fraction(3, 4), Fraction(1), Fraction(5, 4))
        assert all(type(p) is Fraction for p in points)

    def test_unknown_parameter(self):
        with pytest.raises(ValueError):
            SweepSpec("latency", (1,))


class TestVolumeSweep:
    def test_llama_endpoints(self, llama):
        result = sweep(llama, SweepSpec("volume", (1_000_000, 50_000_000)))
        assert result.series == (
            (1_000_000, Money.from_usd("204.80")),
            (50_000_000, Money.from_usd("8.80")),
        )

    def test_gpt41_endpoints(self, gpt41):
        result = sweep(gpt41, SweepSpec("volume", (1_000_000, 50_000_000)))
        assert result.series == (
            (1_000_000, Money.from_usd("60.00")),
            (50_000_000, Money.from_usd("11.00")),
        )

    def test_claude_endpoints(self, claude):
        result = sweep(claude, SweepSpec("volume", (1_000_000, 50_000_000)))
        assert result.series[0][1] == Money.from_usd("54.80")
        assert result.series[1][1] == Money.from_usd("5.80")

    def test_zero_volume_point_marks_undefined_without_failing(self, llama):
        result = sweep(llama, SweepSpec("volume", (0, 10_000_000)))
        assert result.series[0] == (0, None)
        assert result.series[1] == (10_000_000, Money.from_usd("24.80"))

    def test_base_scenario_is_untouched(self, llama):
        before = llama.volume
        sweep(llama, SweepSpec("volume", (1, 2, 3)))
        assert llama.volume is before

    def test_multi_period_volume_rescales_proportionally(self):
        scenario = simple_scenario("multi", "1200", "0.01", [100, 300],
                                   horizon=Horizon(2, 12))
        derived = with_total_volume(scenario, 1000)
        assert sum(derived.volume.per_period) == 1000
        assert derived.volume.per_period == (250, 750)

    def test_rescale_total_is_exact_even_when_uneven(self):
        scenario = simple_scenario("multi", "1200", "0.01", [1, 1, 1],
                                   horizon=Horizon(3, 12))
        derived = with_total_volume(scenario, 100)
        assert sum(derived.volume.per_period) == 100


class TestOpexSweep:
    def test_llama_point(self, llama):
        result = sweep(llama, SweepSpec("opex_rate", (_rate("0.012"),)))
        assert result.series[0][1] == Money.from_usd("32.00")

    def test_gpt41_point(self, gpt41):
        result = sweep(gpt41, SweepSpec("opex_rate", (_rate("0.015"),)))
        assert result.series[0][1] == Money.from_usd("20.00")


class TestCapexSweep:
    def test_llama_multipliers(self, llama):
        spec = SweepSpec("capex_multiplier",
                         (Fraction(7, 10), Fraction(1), Fraction(13, 10)))
        result = sweep(llama, spec)
        assert [m for _, m in result.series] == [
            Money.from_usd("18.80"),
            Money.from_usd("24.80"),
            Money.from_usd("30.80"),
        ]

    def test_identity_multiplier_reproduces_baseline(self, claude):
        result = sweep(claude, SweepSpec("capex_multiplier", (Fraction(1),)))
        assert result.series[0][1] == compute_lcoai(claude).per_thousand


_volumes = st.lists(
    st.integers(min_value=1, max_value=10**5),
    min_size=2, max_size=6, unique=True,
).map(sorted)


class TestSweepProperties:
    @settings(max_examples=100)
    @given(
        capex=st.integers(min_value=0, max_value=10**11),
        rate=st.integers(min_value=0, max_value=10**5),
        volumes=_volumes,
    )
    def test_every_point_matches_an_independent_compute(self, capex, rate, volumes):
        base = CostScenario(
            name="s", capex=(CapexItem("c", Money(capex)),),
            opex=OpexModel(PerInferenceRate(rate)),
            volume=VolumeProjection((volumes[0],)), horizon=Horizon(1, 12))
        result = sweep(base, SweepSpec("volume", tuple(volumes)))
        for point, value in result.series:
            rebuilt = with_total_volume(base, point)
            assert value == compute_lcoai(rebuilt).per_thousand

    @settings(max_examples=100)
    @given(
        extra=st.integers(min_value=0, max_value=10**12),
        rate=st.integers(min_value=0, max_value=10**5),
        volumes=_volumes,
    )
    def test_volume_series_strictly_decreasing_with_capex(self, extra, rate, volumes):
        # capex chosen large enough that consecutive exact values differ by
        # at least one micro-dollar, so strictness survives rounding
        capex = volumes[-1] * volumes[-2] + extra
        base = CostScenario(
            name="s", capex=(CapexItem("c", Money(capex)),),
            opex=OpexModel(PerInferenceRate(rate)),
            volume=VolumeProjection((volumes[0],)), horizon=Horizon(1, 12))
        series = sweep(base, SweepSpec("volume", tuple(volumes))).series
        values = [m.amount for _, m in series]
        assert all(b < a for a, b in zip(values, values[1:]))

    @settings(max_examples=100)
    @given(
        rate=st.integers(min_value=0, max_value=10**5),
        volumes=_volumes,
    )
    def test_volume_series_non_increasing_without_capex(self, rate, volumes):
        base = CostScenario(
            name="s", capex=(),
            opex=OpexModel(PerInferenceRate(rate)),
            volume=VolumeProjection((volumes[0],)), horizon=Horizon(1, 12))
        series = sweep(base, SweepSpec("volume", tuple(volumes))).series
        values = [m.amount for _, m in series]
        assert all(b <= a for a, b in zip(values, values[1:]))

    @settings(max_examples=100)
    @given(
        capex=st.integers(min_value=0, max_value=10**11),
        fixed=st.integers(min_value=0, max_value=10**9),
        vols=st.lists(st.integers(min_value=1, max_value=10**6),
                      min_size=1, max_size=4),
        rates=st.lists(st.integers(min_value=0, max_value=10**5),
                       min_size=2, max_size=5, unique=True).map(sorted),
    )
    def test_opex_series_is_affine_with_slope_1000(self, capex, fixed, vols, rates):
        base = CostScenario(
            name="s", capex=(CapexItem("c", Money(capex)),),
            opex=OpexModel(PerInferenceRate(0), Money(fixed)),
            volume=VolumeProjection(tuple(vols)),
            horizon=Horizon(len(vols), 12))
        points = tuple(PerInferenceRate(r) for r in rates)
        series = sweep(base, SweepSpec("opex_rate", points)).series
        first_rate, first_value = points[0].rate, series[0][1].amount
        for point, value in series:
            assert value.amount - first_value == 1000 * (point.rate - first_rate)

    @settings(max_examples=100)
    @given(
        capex_tenths=st.integers(min_value=0, max_value=10**10),
        rate=st.integers(min_value=0, max_value=10**5),
        volume=st.integers(min_value=1, max_value=10**8),
        start_tenths=st.integers(min_value=1, max_value=20),
        step_tenths=st.integers(min_value=1, max_value=10),
    )
    def test_capex_response_is_affine(self, capex_tenths, rate, volume,
                                      start_tenths, step_tenths):
        # multipliers in tenths and amounts in multiples of 10 keep the
        # per-item scaling exact, so the unrounded response is exactly affine
        base = CostScenario(
            name="s", capex=(CapexItem("c", Money(capex_tenths * 10)),),
            opex=OpexModel(PerInferenceRate(rate)),
            volume=VolumeProjection((volume,)), horizon=Horizon(1, 12))
        ks = [Fraction(start_tenths + i * step_tenths, 10) for i in range(3)]
        exact = [compute_lcoai(with_capex_scaled(base, k)).exact_per_inference
                 for k in ks]
        assert exact[0] + exact[2] == 2 * exact[1]
        series = sweep(base, SweepSpec("capex_multiplier", tuple(ks))).series
        rounded = [m.amount for _, m in series]
        assert abs(rounded[0] + rounded[2] - 2 * rounded[1]) <= 2000


class TestBreakEven:
    def test_llama_vs_gpt41_crossover(self, llama, gpt41):
        result = break_even(llama, gpt41)
        assert result.crossover_volume == 28_846_154
        assert result.cheaper_below == "GPT-4.1 API"
        assert result.cheaper_above == "LLaMA-2-13B self-hosted"
        assert not result.search_exhausted
        # independent closed form: 150,000 USD gap / 0.0052 USD advantage
        gap = Money.from_usd("150000").amount
        advantage = 10_000 - 4_800
        assert result.crossover_volume == gap // advantage + 1

    def test_llama_vs_gpt41_grid_oracle(self, llama, gpt41):
        # brute-force scan at 1,000-inference steps: first grid volume where
        # the self-hosted curve is strictly cheaper sits within one step
        result = break_even(llama, gpt41)

        def total(scenario, volume):
            capex = scenario.capex[0].amount.amount
            return capex + scenario.opex.per_inference.rate * volume

        first_grid = next(
            v for v in range(1_000, 40_000_000, 1_000)
            if total(llama, v) < total(gpt41, v)
        )
        assert abs(first_grid - result.crossover_volume) <= 1_000

    def test_equal_rates_never_cross(self, llama, claude):
        result = break_even(llama, claude)
        assert result.crossover_volume is None
        assert result.cheaper_below == result.cheaper_above == "Claude Haiku API"

    def test_scenario_against_itself(self, llama):
        result = break_even(llama, llama)
        assert result.crossover_volume is None
        assert result.cheaper_below == llama.name
        # equal capital, tied at volume 1 only: b is cheaper at every larger
        # volume, so b dominates whichever side is passed first
        a = CostScenario("a", (CapexItem("c", Money(1_000)),),
                         OpexModel(PerInferenceRate(10)),
                         VolumeProjection((1,)), Horizon(1, 12))
        b = CostScenario("b", (CapexItem("c", Money(1_000)),),
                         OpexModel(PerInferenceRate(5), Money(5)),
                         VolumeProjection((1,)), Horizon(1, 12))
        for x, y in ((a, b), (b, a)):
            assert break_even(x, y) == BreakEvenResult(x.name, y.name, None, "b", "b")

    def test_exactly_at_crossover_is_not_yet_cheaper(self):
        # gap/advantage divides exactly: equality at V*, strictly cheaper above
        a = simple_scenario("heavy", "100", "0.001", 1)
        b = simple_scenario("light", "0", "0.002", 1)
        result = break_even(a, b)
        assert result.crossover_volume == 100_001

    def test_mismatched_horizons_are_incomparable(self, llama):
        other = simple_scenario("two-year", "50000", "0.01", [1, 1],
                                horizon=Horizon(2, 12))
        with pytest.raises(IncompatibleScenariosError):
            break_even(llama, other)

    def test_search_max_exhaustion_is_flagged(self, llama, gpt41):
        result = break_even(llama, gpt41, search_max=1_000_000)
        assert result.crossover_volume is None
        assert result.search_exhausted
        assert result.cheaper_below == "GPT-4.1 API"

    def test_search_max_is_capped(self, llama, gpt41):
        assert break_even(llama, gpt41, search_max=MAX_SEARCH_MAX).crossover_volume == 28_846_154
        fixed = simple_scenario("fixed", "0", "0.002", 1, fixed_usd="1000")
        for a, b in ((llama, gpt41), (llama, fixed)):  # closed form and bisection
            with pytest.raises(ValueError, match="at most"):
                break_even(a, b, search_max=MAX_SEARCH_MAX + 1)

    def test_non_analytic_pair_uses_exact_bisection(self):
        # fixed per-period charges push these outside the closed-form regime
        a = simple_scenario("fixed-heavy", "0", "0.001", 1, fixed_usd="5000")
        b = simple_scenario("fixed-light", "0", "0.002", 1, fixed_usd="1000")
        result = break_even(a, b)
        assert result.crossover_volume is not None
        v = result.crossover_volume

        def exact(scenario, volume):
            return compute_lcoai(with_total_volume(scenario, volume)).exact_per_inference

        assert exact(a, v) < exact(b, v)
        if v > 1:
            assert exact(a, v - 1) >= exact(b, v - 1)

    @settings(max_examples=100)
    @given(
        c_a=st.integers(min_value=0, max_value=10**7),
        c_b=st.integers(min_value=0, max_value=10**7),
        o_a=st.integers(min_value=0, max_value=10**4),
        o_b=st.integers(min_value=0, max_value=10**4),
    )
    def test_crossover_boundary_is_exact(self, c_a, c_b, o_a, o_b):
        a = CostScenario("a", (CapexItem("c", Money(c_a)),),
                         OpexModel(PerInferenceRate(o_a)),
                         VolumeProjection((1,)), Horizon(1, 12))
        b = CostScenario("b", (CapexItem("c", Money(c_b)),),
                         OpexModel(PerInferenceRate(o_b)),
                         VolumeProjection((1,)), Horizon(1, 12))
        result = break_even(a, b)

        def cost(scenario, volume):
            return scenario.capex[0].amount.amount + scenario.opex.per_inference.rate * volume

        if result.crossover_volume is None:
            return
        v = result.crossover_volume
        hi, lo = (a, b) if c_a > c_b else (b, a)
        assert cost(hi, v) < cost(lo, v)
        if v > 1:
            assert cost(hi, v - 1) >= cost(lo, v - 1)

    @settings(max_examples=300)
    @given(
        c_hi=st.integers(min_value=0, max_value=10**7),
        o_hi=st.integers(min_value=0, max_value=2 * 10**4),
        o_lo=st.integers(min_value=0, max_value=2 * 10**4),
        search_max=st.one_of(st.just(10**9), st.integers(min_value=1, max_value=10**4)),
    )
    def test_bisection_agrees_with_closed_form(self, c_hi, o_hi, o_lo, search_max):
        # every outcome: a crossover, domination either way, equal capital,
        # and a crossover beyond the search bound
        hi = CostScenario("hi", (CapexItem("c", Money(c_hi)),),
                          OpexModel(PerInferenceRate(o_hi)),
                          VolumeProjection((1,)), Horizon(1, 12))
        lo = CostScenario("lo", (),
                          OpexModel(PerInferenceRate(o_lo)),
                          VolumeProjection((1,)), Horizon(1, 12))
        for a, b in ((hi, lo), (lo, hi)):
            assert break_even(a, b, search_max) == _break_even_bisect(a, b, search_max)

    @settings(max_examples=100)
    @given(
        c_hi=st.integers(min_value=1, max_value=10**7),  # keeps the scan short
        o_lo_extra=st.integers(min_value=1_000, max_value=10**4),
        o_hi=st.integers(min_value=0, max_value=10**4),
    )
    def test_brute_force_scan_oracle(self, c_hi, o_lo_extra, o_hi):
        hi = CostScenario("hi", (CapexItem("c", Money(c_hi)),),
                          OpexModel(PerInferenceRate(o_hi)),
                          VolumeProjection((1,)), Horizon(1, 12))
        lo = CostScenario("lo", (),
                          OpexModel(PerInferenceRate(o_hi + o_lo_extra)),
                          VolumeProjection((1,)), Horizon(1, 12))
        result = break_even(hi, lo)
        expected = next(
            v for v in range(1, c_hi // o_lo_extra + 3)
            if c_hi + o_hi * v < (o_hi + o_lo_extra) * v
        )
        assert result.crossover_volume == expected


class TestTornado:
    def test_capex_swing_matches_the_sweep_endpoints(self, llama):
        entries = tornado(llama, Fraction(3, 10), {"capex"})
        assert len(entries) == 1
        assert entries[0].parameter == "capex"
        assert entries[0].low == Money.from_usd("18.80")
        assert entries[0].high == Money.from_usd("30.80")

    def test_opex_swing_matches_closed_form(self, llama):
        # oracle: capex/volume + swung rate, per 1,000
        entries = tornado(llama, Fraction(3, 10), {"opex_rate"})
        capex_share = Fraction(Money.from_usd("200000").amount, 10_000_000)
        low_rate = PerInferenceRate.from_usd("0.0048").scaled(Fraction(7, 10))
        high_rate = PerInferenceRate.from_usd("0.0048").scaled(Fraction(13, 10))
        assert low_rate == PerInferenceRate.from_usd("0.00336")
        assert high_rate == PerInferenceRate.from_usd("0.00624")
        assert entries[0].low.amount == (capex_share + low_rate.rate) * 1000
        assert entries[0].high.amount == (capex_share + high_rate.rate) * 1000
        assert entries[0].low == Money.from_usd("23.36")
        assert entries[0].high == Money.from_usd("26.24")

    def test_degenerate_swing_is_rejected(self, llama):
        with pytest.raises(ValueError):
            tornado(llama, 0)
        with pytest.raises(ValueError):
            tornado(llama, 1)

    def test_entries_ordered_by_descending_spread(self, llama):
        entries = tornado(llama, Fraction(3, 10))
        spreads = [e.spread.amount for e in entries]
        assert spreads == sorted(spreads, reverse=True)
        assert {e.parameter for e in entries} == {"capex", "opex_rate", "volume"}

    def test_unknown_parameter_rejected(self, llama):
        with pytest.raises(ValueError):
            tornado(llama, Fraction(1, 10), {"latency"})

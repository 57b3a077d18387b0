"""The compiled kernel against the per-period Fraction formula it replaced.

``reference_lcoai`` below is that formula: each period's OPEX times its
discount factor, summed as Fractions, over the (optionally discounted)
inference total. Every analysis must give exactly what it gives on scenarios
derived with the ``with_*`` functions.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lcoai import (
    HORIZON_LIFE,
    BreakEvenResult,
    CapexItem,
    CostScenario,
    DiscountPolicy,
    Horizon,
    Money,
    NO_DISCOUNT,
    OpexModel,
    PerInferenceRate,
    SweepSpec,
    UndefinedMetricError,
    VolumeProjection,
    amortize_capex,
    break_even,
    compute_lcoai,
    discount_factor,
    round_half_away,
    sweep,
    tornado,
    with_capex_scaled,
    with_opex_rate,
    with_total_volume,
)
from lcoai.cost_core import CompiledScenario
from lcoai.sensitivity import TORNADO_PARAMETERS, _limit


def reference_lcoai(s: CostScenario) -> tuple:
    """(exact per inference, per-thousand, total OPEX, charged CAPEX)."""
    volumes = s.volume.per_period
    if sum(volumes) == 0:
        raise UndefinedMetricError("zero volume")
    capex = sum(c.amount for c in amortize_capex(s.capex, s.horizon))
    factors = [discount_factor(s.discount, t, s.horizon.period_length_months)
               for t in range(1, len(volumes) + 1)]
    fixed, rate = s.opex.fixed_per_period.amount, s.opex.per_inference.rate
    opex = sum(f * (fixed + rate * v) for f, v in zip(factors, volumes))
    if s.discount.is_discounting and s.discount.discount_denominator:
        denominator = sum(f * v for f, v in zip(factors, volumes))
    else:
        denominator = Fraction(sum(volumes))
    total_opex = round_half_away(opex)
    per_inference = round_half_away(Fraction(capex + total_opex) / denominator)
    return (capex + opex) / denominator, per_inference * 1000, total_opex, capex


def reference_cost(s: CostScenario, volume: int) -> Fraction:
    return reference_lcoai(with_total_volume(s, volume))[0]


def reference_limit(s: CostScenario) -> Fraction:
    """The exact cost per inference as the total volume grows without bound:
    capital and fixed charges vanish, and each period's volume tends to its
    share of the projection shape (uniform when the projection is all zero)."""
    rate = s.opex.per_inference.rate
    if s.discount.is_discounting and s.discount.discount_denominator:
        return Fraction(rate)
    shape = s.volume.per_period if s.volume.total else (1,) * s.horizon.periods
    factors = [discount_factor(s.discount, t, s.horizon.period_length_months)
               for t in range(1, len(shape) + 1)]
    return rate * sum(f * p for f, p in zip(factors, shape)) / sum(shape)


def reference_break_even(a: CostScenario, b: CostScenario, search_max: int) -> BreakEvenResult:
    """Bisection on reference values over [1, search_max]. Without a
    crossover, the search is exhausted only when the dominated curve tends
    strictly below the dominator's."""
    def dominated(winner, loser):
        return BreakEvenResult(a.name, b.name, None, winner.name, winner.name,
                               reference_limit(loser) < reference_limit(winner))

    c_a, c_b = (sum(c.amount for c in amortize_capex(s.capex, s.horizon)) for s in (a, b))
    if c_a == c_b:
        f_low = reference_cost(a, 1) - reference_cost(b, 1)
        f_high = reference_cost(a, search_max) - reference_cost(b, search_max)
        if f_low == 0 and f_high == 0:
            return dominated(a, b)
        if f_low >= 0 and f_high >= 0:
            return dominated(b, a)
        if f_low <= 0 and f_high <= 0:
            return dominated(a, b)
        hi, lo = (a, b) if f_low > 0 else (b, a)
    else:
        hi, lo = (a, b) if c_a > c_b else (b, a)

    def diff(volume):
        return reference_cost(hi, volume) - reference_cost(lo, volume)

    if diff(1) < 0:
        return BreakEvenResult(a.name, b.name, 1, lo.name, hi.name)
    if diff(search_max) >= 0:
        return dominated(lo, hi)
    low, high = 1, search_max
    while high - low > 1:
        mid = (low + high) // 2
        if diff(mid) < 0:
            high = mid
        else:
            low = mid
    return BreakEvenResult(a.name, b.name, high, lo.name, hi.name)


@st.composite
def horizons(draw):
    return Horizon(draw(st.integers(1, 8)), draw(st.sampled_from((12, 3))))


@st.composite
def scenarios(draw, horizon=None, name="s"):
    """Whole-year or quarterly periods, none or wacc, the denominator
    discounted or not, and asset lives shorter and longer than the horizon."""
    horizon = horizon or draw(horizons())
    months = horizon.months
    lives = st.one_of(st.just(HORIZON_LIFE), st.integers(1, months),
                      st.integers(months, 4 * months))
    capex = draw(st.lists(st.builds(lambda amount, life: CapexItem("c", Money(amount), life),
                                    st.integers(0, 10**12), lives), max_size=3))
    mode = draw(st.sampled_from(("none", "wacc")))
    rate = Fraction(draw(st.integers(0, 40)), 100) if mode == "wacc" else None
    # tiny volumes make one micro-dollar of rounding visible in the rate
    counts = st.one_of(st.integers(0, 3), st.integers(0, 10**8))
    volumes = draw(st.lists(counts, min_size=horizon.periods, max_size=horizon.periods))
    return CostScenario(
        name, capex,
        OpexModel(PerInferenceRate(draw(st.integers(0, 10**5))),
                  Money(draw(st.sampled_from((0, 0, 10**6, 7_654_321_987))))),
        VolumeProjection(volumes), horizon, DiscountPolicy(mode, rate, draw(st.booleans())))


def _capital_free(s: CostScenario, rate: int) -> CostScenario:
    """``s`` with no CAPEX and the per-inference rate ``rate``, fixed OPEX kept."""
    return CostScenario(s.name, (), OpexModel(PerInferenceRate(rate), s.opex.fixed_per_period),
                        s.volume, s.horizon, s.discount)


_multipliers = st.lists(st.fractions(min_value=Fraction(1, 20), max_value=5, max_denominator=40),
                        min_size=1, max_size=4, unique=True).map(sorted)


class TestAgainstReference:
    @settings(max_examples=200)
    @given(data=st.data(), periods=st.integers(1, 8), plm=st.integers(1, 12))
    def test_charged_capex_is_the_amortized_total(self, data, periods, plm):
        horizon = Horizon(periods, plm)
        lives = st.one_of(st.just(HORIZON_LIFE), st.integers(1, horizon.months),
                          st.integers(horizon.months, 4 * horizon.months))
        items = data.draw(st.lists(st.builds(lambda amount, life: CapexItem("c", Money(amount), life),
                                             st.integers(0, 10**12), lives), max_size=4))
        s = CostScenario("s", items, OpexModel(PerInferenceRate(1)),
                         VolumeProjection((1,) * periods), horizon)
        assert CompiledScenario(s).capex == sum(c.amount for c in amortize_capex(s.capex, horizon))

    @settings(max_examples=100)
    @given(s=scenarios())
    def test_limit_is_where_the_cost_per_inference_tends(self, s):
        limit = _limit(CompiledScenario(s))
        assert limit == reference_limit(s)
        volume = 10**40  # capital, fixed charges and rescale rounding are below 10**-20
        assert abs(reference_cost(s, volume) - limit) < Fraction(1, 10**20)

    @pytest.mark.parametrize("policy", [NO_DISCOUNT, DiscountPolicy("wacc", Fraction(8, 100)),
                                        DiscountPolicy("wacc", Fraction(8, 100), True)],
                             ids=["none", "wacc", "wacc-denominator"])
    def test_limit_of_an_all_zero_projection_is_the_uniform_shape(self, policy):
        s = CostScenario("idle", (), OpexModel(PerInferenceRate(1_000)),
                         VolumeProjection((0,) * 8), Horizon(8, 3), policy)
        assert _limit(CompiledScenario(s)) == reference_limit(s)

    @settings(max_examples=200)
    @given(s=scenarios())
    def test_compute(self, s):
        if s.volume.total == 0:
            with pytest.raises(UndefinedMetricError):
                compute_lcoai(s)
            return
        result = compute_lcoai(s)
        exact, per_thousand, total_opex, capex = reference_lcoai(s)
        assert result.exact_per_inference == exact
        assert result.per_thousand.amount == per_thousand
        assert result.per_inference.rate * 1000 == per_thousand
        assert (result.total_opex.amount, result.total_capex_charged.amount) == (total_opex, capex)

    @settings(max_examples=100)
    @given(
        s=scenarios(),
        volumes=st.lists(st.integers(0, 10**9), min_size=1, max_size=4, unique=True).map(sorted),
        rates=st.lists(st.integers(0, 10**5), min_size=1, max_size=4, unique=True).map(sorted),
        multipliers=_multipliers,
    )
    def test_every_sweep_parameter(self, s, volumes, rates, multipliers):
        grids = {
            "volume": (tuple(volumes), with_total_volume),
            "opex_rate": (tuple(PerInferenceRate(r) for r in rates), with_opex_rate),
            "capex_multiplier": (tuple(multipliers), with_capex_scaled),
        }
        for parameter, (points, derive) in grids.items():
            expected = []
            for point in points:
                try:
                    expected.append((point, Money(reference_lcoai(derive(s, point))[1])))
                except UndefinedMetricError:
                    expected.append((point, None))
            assert sweep(s, SweepSpec(parameter, points)).series == tuple(expected)

    @settings(max_examples=100)
    @given(s=scenarios(), swing=st.fractions(min_value=Fraction(1, 100), max_value=Fraction(99, 100),
                                             max_denominator=100))
    def test_tornado(self, s, swing):
        def at(parameter, k):
            if parameter == "opex_rate":
                rate = Money(s.opex.per_inference.rate).scaled(k).amount
                derived = with_opex_rate(s, PerInferenceRate(rate))
            elif parameter == "volume":
                derived = with_total_volume(s, round_half_away(s.volume.total * k))
            else:
                derived = with_capex_scaled(s, k)
            return reference_lcoai(derived)[1]

        try:
            expected = [(p, at(p, 1 - swing), at(p, 1 + swing)) for p in TORNADO_PARAMETERS]
        except UndefinedMetricError:
            with pytest.raises(UndefinedMetricError):
                tornado(s, swing)
            return
        expected.sort(key=lambda e: (-abs(e[2] - e[1]), e[0]))
        entries = tornado(s, swing)
        assert [(e.parameter, e.low.amount, e.high.amount) for e in entries] == expected

    @settings(max_examples=100)
    @given(data=st.data(), search_max=st.integers(1, 10**7))
    def test_break_even_matches_the_reference_bisection(self, data, search_max):
        horizon = data.draw(horizons())
        a = data.draw(scenarios(horizon, "a"))
        b = data.draw(scenarios(horizon, "b"))
        if data.draw(st.booleans()):  # no capital and a dearer rate: the curves may cross
            b = _capital_free(b, a.opex.per_inference.rate + data.draw(st.integers(1, 10**5)))
        assert break_even(a, b, search_max) == reference_break_even(a, b, search_max)

    @pytest.mark.parametrize("regime", ["undiscounted", "one-period"])
    @settings(max_examples=100)
    @given(data=st.data(), search_max=st.one_of(st.sampled_from((1, 2, 10**18)),
                                                st.integers(1, 10**9)))
    def test_equal_weights_pairs_match_the_reference_bisection(self, regime, data, search_max):
        # the closed form's regime: 1-40 undiscounted periods, or one period
        # under any policy, with fixed OPEX drawn as often as not
        months = data.draw(st.sampled_from((12, 3, 1)))
        horizon = Horizon(data.draw(st.integers(1, 40)) if regime == "undiscounted" else 1, months)
        a, b = (data.draw(scenarios(horizon, name)) for name in "ab")
        if regime == "undiscounted":
            a, b = (CostScenario(s.name, s.capex, s.opex, s.volume, s.horizon, NO_DISCOUNT)
                    for s in (a, b))
        if data.draw(st.booleans()):  # no capital and a dearer rate: the curves may cross
            b = _capital_free(b, a.opex.per_inference.rate + data.draw(st.integers(1, 10**5)))
        assert break_even(a, b, search_max) == reference_break_even(a, b, search_max)

    def test_tie_is_not_yet_a_crossover(self):
        # equal fixed-charge and rate costs at exactly 100,000 inferences
        a = CostScenario("fixed", (), OpexModel(PerInferenceRate(1_000), Money(100 * 10**6)),
                         VolumeProjection((1,)), Horizon(1, 12))
        b = CostScenario("rate", (), OpexModel(PerInferenceRate(2_000)),
                         VolumeProjection((1,)), Horizon(1, 12))
        result = break_even(a, b)
        assert result == reference_break_even(a, b, 10**9)
        assert result.crossover_volume == 100_001

    def test_tie_on_a_bisected_pair_is_not_yet_a_crossover(self):
        # weights 110 and 100 over L = 121: at an even volume V both periods
        # hold V/2, so the capital gap 105,000 * 121 equals 121 * 105 * V at 1,000
        policy, horizon = DiscountPolicy("wacc", Fraction(1, 10)), Horizon(2, 12)
        heavy = CostScenario("heavy", (CapexItem("c", Money(105_000)),),
                             OpexModel(PerInferenceRate(1_000)), VolumeProjection((1, 1)),
                             horizon, policy)
        light = CostScenario("light", (), OpexModel(PerInferenceRate(1_121)),
                             VolumeProjection((1, 1)), horizon, policy)
        assert reference_cost(heavy, 1_000) == reference_cost(light, 1_000)
        result = break_even(heavy, light)
        assert result == reference_break_even(heavy, light, 10**9)
        assert result.crossover_volume == 1_001

    def test_crossing_quarterly_wacc_pair(self):
        # a crossover inside the search range on non-whole-year factors
        policy = DiscountPolicy("wacc", Fraction(7, 100), True)
        horizon = Horizon(8, 3)
        heavy = CostScenario("heavy", (CapexItem("gpu", Money(900_000 * 10**6), 36),),
                             OpexModel(PerInferenceRate(1_500), Money(5_000 * 10**6)),
                             VolumeProjection((3, 4, 5, 6, 6, 7, 8, 9)), horizon, policy)
        light = CostScenario("light", (CapexItem("api", Money(40_000 * 10**6)),),
                             OpexModel(PerInferenceRate(7_500)),
                             VolumeProjection((5, 5, 5, 5, 6, 6, 6, 6)), horizon, policy)
        result = break_even(heavy, light)
        assert result == reference_break_even(heavy, light, 10**9)
        assert result.crossover_volume is not None and result.cheaper_above == "heavy"

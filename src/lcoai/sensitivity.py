"""Parameter sweeps, break-even volume solving, and tornado summaries.

Everything here derives fresh scenarios from a base scenario and calls the
core computation; the base is never mutated. Sweep points are independent, so
callers may evaluate them concurrently; the assembled series is identical to
sequential evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Literal, Optional, Union

from .cost_core import (
    CostScenario,
    Money,
    PerInferenceRate,
    Rational,
    VolumeProjection,
    amortize_capex,
    compute_lcoai,
    round_half_away,
)
from .errors import IncompatibleScenariosError

SweepParameter = Literal["volume", "opex_rate", "capex_multiplier"]

SWEEP_PARAMETERS = ("volume", "opex_rate", "capex_multiplier")

# volumes beyond this are reported as "no crossover" with search_exhausted set
DEFAULT_SEARCH_MAX = 10**9


@dataclass(frozen=True, slots=True)
class SweepSpec:
    """One varied parameter and the ordered grid of values to evaluate.

    Volume points are inference counts; a zero point is allowed and renders
    as an undefined entry in the series rather than failing the sweep. Opex
    points are :class:`PerInferenceRate`. Capex points are positive rational
    multipliers applied to every CAPEX item. Points must be strictly
    increasing.
    """

    parameter: SweepParameter
    points: tuple

    def __post_init__(self):
        points = tuple(self.points)
        if not points:
            raise ValueError("sweep needs at least one point")
        if self.parameter == "volume":
            for p in points:
                if isinstance(p, bool) or not isinstance(p, int) or p < 0:
                    raise ValueError("volume points must be non-negative integers")
            keys = points
        elif self.parameter == "opex_rate":
            for p in points:
                if not isinstance(p, PerInferenceRate):
                    raise ValueError("opex points must be PerInferenceRate values")
            keys = tuple(p.rate for p in points)
        elif self.parameter == "capex_multiplier":
            points = tuple(Fraction(p) for p in points)
            for p in points:
                if p <= 0:
                    raise ValueError("capex multipliers must be positive")
            keys = points
        else:
            raise ValueError(f"unknown sweep parameter {self.parameter!r}")
        if any(b <= a for a, b in zip(keys, keys[1:])):
            raise ValueError("sweep points must be strictly increasing")
        object.__setattr__(self, "points", points)


@dataclass(frozen=True, slots=True)
class SweepResult:
    """Ordered (parameter value, cost per 1,000) series for one scenario.

    A ``None`` cost marks a point where the metric is undefined (zero volume).
    """

    scenario_name: str
    parameter: SweepParameter
    series: tuple

    def __post_init__(self):
        object.__setattr__(self, "series", tuple(tuple(pair) for pair in self.series))


@dataclass(frozen=True, slots=True)
class BreakEvenResult:
    """Where, if anywhere, two cost curves cross as volume grows.

    ``crossover_volume`` is the smallest integer volume at which the
    higher-capital scenario is strictly cheaper, or ``None`` when one
    scenario weakly dominates at every volume (both ``cheaper_*`` fields then
    name the dominator). ``search_exhausted`` marks a crossover that was not
    found below the search bound; domination then holds only over the
    searched range.
    """

    scenario_a: str
    scenario_b: str
    crossover_volume: Optional[int]
    cheaper_below: str
    cheaper_above: str
    search_exhausted: bool = False


@dataclass(frozen=True, slots=True)
class TornadoEntry:
    """Cost per 1,000 at the low and high ends of one parameter's swing."""

    parameter: str
    low: Money
    high: Money

    @property
    def spread(self) -> Money:
        return Money(abs(self.high.amount - self.low.amount))


TORNADO_PARAMETERS = ("capex", "opex_rate", "volume")


def with_total_volume(scenario: CostScenario, total: int) -> CostScenario:
    """A copy of the scenario rescaled to a new total inference volume.

    Multi-period projections keep their shape: per-period counts are rescaled
    proportionally with cumulative rounding, so they stay integral and sum to
    ``total`` exactly. A projection that currently totals zero is spread
    uniformly.
    """
    if total < 0:
        raise ValueError("volume must be non-negative")
    old = scenario.volume.per_period
    if len(old) == 1:
        per_period = (total,)
    else:
        old_total = sum(old)
        weights = old if old_total else tuple(1 for _ in old)
        weight_sum = old_total or len(old)
        per_period = []
        prev = cum = 0
        for w in weights:
            cum += w
            target = (total * cum) // weight_sum
            per_period.append(target - prev)
            prev = target
        per_period = tuple(per_period)
    return replace(scenario, volume=VolumeProjection(per_period))


def with_opex_rate(scenario: CostScenario, rate: PerInferenceRate) -> CostScenario:
    """A copy with the per-inference OPEX rate replaced (fixed charge kept)."""
    return replace(scenario, opex=replace(scenario.opex, per_inference=rate))


def with_capex_scaled(scenario: CostScenario, k: Rational) -> CostScenario:
    """A copy with every CAPEX item amount scaled by the exact rational ``k``."""
    k = Fraction(k)
    if k <= 0:
        raise ValueError("capex multiplier must be positive")
    items = tuple(replace(item, amount=item.amount.scaled(k)) for item in scenario.capex)
    return replace(scenario, capex=items)


def _derive(scenario: CostScenario, parameter: str, point) -> CostScenario:
    if parameter == "volume":
        return with_total_volume(scenario, point)
    if parameter == "opex_rate":
        return with_opex_rate(scenario, point)
    return with_capex_scaled(scenario, point)


def sweep(scenario: CostScenario, spec: SweepSpec) -> SweepResult:
    """Evaluate the levelized cost across the grid of a sweep spec."""
    series = []
    for point in spec.points:
        derived = _derive(scenario, spec.parameter, point)
        if derived.volume.total == 0:
            series.append((point, None))
        else:
            series.append((point, compute_lcoai(derived).per_thousand))
    return SweepResult(scenario.name, spec.parameter, tuple(series))


def _charged_capex(scenario: CostScenario) -> int:
    return sum(c.amount for c in amortize_capex(scenario.capex, scenario.horizon))


def _is_analytic(scenario: CostScenario) -> bool:
    return (
        scenario.horizon.periods == 1
        and not scenario.discount.is_discounting
        and scenario.opex.fixed_per_period.amount == 0
    )


def _exact_at(scenario: CostScenario, volume: int) -> Fraction:
    return compute_lcoai(with_total_volume(scenario, volume)).exact_per_inference


def break_even(a: CostScenario, b: CostScenario,
               search_max: int = DEFAULT_SEARCH_MAX) -> BreakEvenResult:
    """Smallest volume at which the higher-capital scenario is strictly cheaper.

    Pairs in the analytic regime (single period, no discounting, purely
    per-inference OPEX) are solved in closed form from
    ``C_hi + o_hi * V < C_lo + o_lo * V`` in exact integer micro-dollars.
    Other pairs fall back to monotone bisection on exact per-inference values
    over [1, search_max]; the two paths agree wherever both apply. Scenarios
    with differing horizons are not comparable.
    """
    if search_max <= 0:
        raise ValueError("search_max must be positive")
    if a.horizon != b.horizon:
        raise IncompatibleScenariosError(
            f"horizons differ: {a.horizon} vs {b.horizon}")

    if _is_analytic(a) and _is_analytic(b):
        return _break_even_closed_form(a, b, search_max)
    return _break_even_bisect(a, b, search_max)


def _dominated(a: CostScenario, b: CostScenario, winner: CostScenario,
               exhausted: bool = False) -> BreakEvenResult:
    return BreakEvenResult(a.name, b.name, None, winner.name, winner.name,
                           search_exhausted=exhausted)


def _break_even_closed_form(a: CostScenario, b: CostScenario,
                            search_max: int) -> BreakEvenResult:
    c_a, c_b = _charged_capex(a), _charged_capex(b)
    o_a, o_b = a.opex.per_inference.rate, b.opex.per_inference.rate
    if c_a == c_b:
        if o_a == o_b:
            return _dominated(a, b, a)  # identical curves
        return _dominated(a, b, a if o_a < o_b else b)
    hi, lo = (a, b) if c_a > c_b else (b, a)
    o_hi, o_lo = hi.opex.per_inference.rate, lo.opex.per_inference.rate
    if o_hi >= o_lo:
        return _dominated(a, b, lo)
    delta_c = abs(c_a - c_b)
    delta_o = o_lo - o_hi
    crossover = delta_c // delta_o + 1  # strictly cheaper above delta_c/delta_o
    if crossover > search_max:
        return _dominated(a, b, lo, exhausted=True)
    return BreakEvenResult(a.name, b.name, crossover, lo.name, hi.name)


def _break_even_bisect(a: CostScenario, b: CostScenario,
                       search_max: int) -> BreakEvenResult:
    c_a, c_b = _charged_capex(a), _charged_capex(b)
    if c_a == c_b:
        # no capital gap to amortize away; the ordering is volume-independent
        # apart from fixed per-period charges, which behave like capital
        f_low = _exact_at(a, 1) - _exact_at(b, 1)
        f_high = _exact_at(a, search_max) - _exact_at(b, search_max)
        if f_low == 0 and f_high == 0:
            return _dominated(a, b, a)
        if f_low >= 0 and f_high >= 0:
            return _dominated(a, b, b)
        if f_low <= 0 and f_high <= 0:
            return _dominated(a, b, a)
        hi, lo = (a, b) if f_low > 0 else (b, a)
    else:
        hi, lo = (a, b) if c_a > c_b else (b, a)

    def diff(volume: int) -> Fraction:
        return _exact_at(hi, volume) - _exact_at(lo, volume)

    d_first = diff(1)
    if d_first < 0:
        return BreakEvenResult(a.name, b.name, 1, lo.name, hi.name)
    d_last = diff(search_max)
    if d_last >= 0:
        return _dominated(a, b, lo, exhausted=d_last < d_first)
    low, high = 1, search_max  # diff(low) >= 0 > diff(high)
    while high - low > 1:
        mid = (low + high) // 2
        if diff(mid) < 0:
            high = mid
        else:
            low = mid
    return BreakEvenResult(a.name, b.name, high, lo.name, hi.name)


def tornado(scenario: CostScenario, swing: Rational,
            parameters: Iterable[str] = TORNADO_PARAMETERS) -> list:
    """Cost per 1,000 at (1 - swing) and (1 + swing) times each parameter.

    Returns :class:`TornadoEntry` items ordered by descending spread (ties by
    parameter name). ``swing`` must lie strictly between 0 and 1.
    """
    swing = Fraction(swing)
    if not 0 < swing < 1:
        raise ValueError("swing must be strictly between 0 and 1")
    chosen = set(parameters)
    unknown = chosen - set(TORNADO_PARAMETERS)
    if unknown:
        raise ValueError(f"unknown tornado parameters: {sorted(unknown)}")
    entries = []
    for parameter in TORNADO_PARAMETERS:
        if parameter not in chosen:
            continue
        low = _tornado_point(scenario, parameter, 1 - swing)
        high = _tornado_point(scenario, parameter, 1 + swing)
        entries.append(TornadoEntry(parameter, low, high))
    entries.sort(key=lambda e: (-e.spread.amount, e.parameter))
    return entries


def _tornado_point(scenario: CostScenario, parameter: str, k: Fraction) -> Money:
    if parameter == "opex_rate":
        point = scenario.opex.per_inference.scaled(k)
    elif parameter == "volume":
        point = round_half_away(Fraction(scenario.volume.total) * k)
    else:
        point = k
    return compute_lcoai(_derive(scenario, parameter, point)).per_thousand

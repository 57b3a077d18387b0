"""Decision artifacts built on the levelized cost: multi-scenario rankings,
savings against a non-AI baseline, and fine-tuning viability thresholds."""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import Iterable, Optional

from ._value import Value
from .cost_core import (
    CompiledScenario,
    CostScenario,
    LcoaiResult,
    Money,
    PerInferenceRate,
)


class ComparisonRow(Value):
    """One ranked scenario with the columns of the comparison table."""

    __slots__ = ("scenario_name", "capex_total", "opex_rate", "volume", "opex_total",
                 "per_thousand")

    def __init__(self, scenario_name: str, capex_total: Money, opex_rate: PerInferenceRate,
                 volume: int, opex_total: Money, per_thousand: Money):
        (set_name, set_capex_total, set_opex_rate, set_volume, set_opex_total,
         set_per_thousand) = self._setters
        set_name(self, scenario_name)
        set_capex_total(self, capex_total)
        set_opex_rate(self, opex_rate)
        set_volume(self, volume)
        set_opex_total(self, opex_total)
        set_per_thousand(self, per_thousand)


class BaselineComparison(Value):
    """Savings of an AI deployment against a non-AI cost baseline, per 1,000 units.

    ``savings_per_thousand`` is exactly baseline minus LCOAI and may be
    negative. ``savings_ratio`` is savings/baseline, or ``None`` when the
    baseline is zero.
    """

    __slots__ = ("baseline_cost_per_thousand", "lcoai_per_thousand", "savings_per_thousand",
                 "savings_ratio")

    def __init__(self, baseline_cost_per_thousand: Money, lcoai_per_thousand: Money,
                 savings_per_thousand: Money, savings_ratio: Optional[Fraction]):
        self._set_fields(baseline_cost_per_thousand, lcoai_per_thousand, savings_per_thousand,
                         savings_ratio)


class FineTuneDecision(Value):
    """Volume at which paying ``tuning_capex`` for the lower rate pays off.

    ``threshold_volume`` is the smallest integer volume at which the tuned
    deployment is strictly cheaper, or ``None`` ("never") exactly when the
    tuned rate is not an improvement.
    """

    __slots__ = ("base_rate", "tuned_rate", "tuning_capex", "threshold_volume")

    def __init__(self, base_rate: PerInferenceRate, tuned_rate: PerInferenceRate,
                 tuning_capex: Money, threshold_volume: Optional[int]):
        self._set_fields(base_rate, tuned_rate, tuning_capex, threshold_volume)


def compare(scenarios: Iterable[CostScenario]) -> list:
    """Rank scenarios by cost per 1,000, cheapest first: the rows of the
    ``table`` command.

    Ties break by ascending total CAPEX, then by name, so the ordering is a
    deterministic total order. Duplicate names are an error. Each scenario is
    compiled once and evaluated once on the kernel
    (:class:`~lcoai.cost_core.CompiledScenario`), so the rows carry the
    figures :func:`~lcoai.cost_core.compute_lcoai` reports, and the ranking
    sorts on integers.
    """
    scenarios = tuple(scenarios)
    if not scenarios:
        raise ValueError("compare needs at least one scenario")
    counts = Counter(s.name for s in scenarios)
    duplicates = {n for n, c in counts.items() if c > 1}
    if duplicates:
        raise ValueError(f"duplicate scenario names: {sorted(duplicates)}")
    rows = []
    for scenario in scenarios:
        kernel = CompiledScenario(scenario)
        _, _, total_opex, rate = kernel.combine(kernel.volume_terms(kernel.volumes),
                                                kernel.rate, kernel.capex)
        rows.append(ComparisonRow(
            scenario_name=scenario.name,
            capex_total=scenario.capex_total,
            opex_rate=scenario.opex.per_inference,
            volume=sum(kernel.volumes),
            opex_total=Money(total_opex),
            per_thousand=Money(rate * 1000),
        ))
    rows.sort(key=lambda r: (r.per_thousand.amount, r.capex_total.amount, r.scenario_name))
    return rows


def baseline_savings(lcoai: LcoaiResult, baseline_per_thousand: Money) -> BaselineComparison:
    """Exact baseline minus LCOAI, per 1,000 inferences."""
    if baseline_per_thousand.amount < 0:
        raise ValueError("baseline must be non-negative")
    savings = Money(baseline_per_thousand.amount - lcoai.per_thousand.amount)
    ratio = None
    if baseline_per_thousand.amount > 0:
        ratio = Fraction(savings.amount, baseline_per_thousand.amount)
    return BaselineComparison(
        baseline_cost_per_thousand=baseline_per_thousand,
        lcoai_per_thousand=lcoai.per_thousand,
        savings_per_thousand=savings,
        savings_ratio=ratio,
    )


def fine_tune_threshold(base_rate: PerInferenceRate, tuned_rate: PerInferenceRate,
                        tuning_capex: Money) -> FineTuneDecision:
    """Smallest integer volume V with tuning_capex/V + tuned_rate < base_rate.

    The inequality is strict ("becomes viable" means strictly cheaper), so
    the threshold is floor(tuning_capex / (base_rate - tuned_rate)) + 1.
    A tuned rate that is not lower than the base rate can never pay off.
    """
    if tuning_capex.amount < 0:
        raise ValueError("tuning CAPEX must be non-negative")
    if tuned_rate.rate >= base_rate.rate:
        return FineTuneDecision(base_rate, tuned_rate, tuning_capex, None)
    advantage = base_rate.rate - tuned_rate.rate
    threshold = tuning_capex.amount // advantage + 1
    return FineTuneDecision(base_rate, tuned_rate, tuning_capex, threshold)

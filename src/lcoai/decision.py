"""Decision artifacts built on the levelized cost: multi-scenario rankings,
savings against a non-AI baseline, and fine-tuning viability thresholds."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .cost_core import (
    CostScenario,
    LcoaiResult,
    Money,
    PerInferenceRate,
    compute_lcoai,
)


@dataclass(frozen=True, slots=True)
class ComparisonRow:
    """One ranked scenario with the columns of the comparison table."""

    scenario_name: str
    capex_total: Money
    opex_rate: PerInferenceRate
    volume: int
    opex_total: Money
    per_thousand: Money


@dataclass(frozen=True, slots=True)
class BaselineComparison:
    """Savings of an AI deployment against a non-AI cost baseline, per 1,000 units.

    ``savings_per_thousand`` is exactly baseline minus LCOAI and may be
    negative. ``savings_ratio`` is savings/baseline, or ``None`` when the
    baseline is zero.
    """

    baseline_cost_per_thousand: Money
    lcoai_per_thousand: Money
    savings_per_thousand: Money
    savings_ratio: Optional[Fraction]


@dataclass(frozen=True, slots=True)
class FineTuneDecision:
    """Volume at which paying ``tuning_capex`` for the lower rate pays off.

    ``threshold_volume`` is the smallest integer volume at which the tuned
    deployment is strictly cheaper, or ``None`` ("never") exactly when the
    tuned rate is not an improvement.
    """

    base_rate: PerInferenceRate
    tuned_rate: PerInferenceRate
    tuning_capex: Money
    threshold_volume: Optional[int]


def compare(scenarios: Sequence[CostScenario]) -> list:
    """Rank scenarios by cost per 1,000, cheapest first.

    Ties break by ascending total CAPEX, then by name, so the ordering is a
    deterministic total order. Duplicate names are an error.
    """
    if not scenarios:
        raise ValueError("compare needs at least one scenario")
    counts = Counter(s.name for s in scenarios)
    duplicates = {n for n, c in counts.items() if c > 1}
    if duplicates:
        raise ValueError(f"duplicate scenario names: {sorted(duplicates)}")
    rows = []
    for scenario in scenarios:
        result = compute_lcoai(scenario)
        rows.append(ComparisonRow(
            scenario_name=scenario.name,
            capex_total=scenario.capex_total,
            opex_rate=scenario.opex.per_inference,
            volume=result.total_inferences,
            opex_total=result.total_opex,
            per_thousand=result.per_thousand,
        ))
    rows.sort(key=lambda r: (r.per_thousand.amount, r.capex_total.amount, r.scenario_name))
    return rows


def baseline_savings(lcoai: LcoaiResult, baseline_per_thousand: Money) -> BaselineComparison:
    """Exact baseline minus LCOAI, per 1,000 inferences."""
    if baseline_per_thousand.amount < 0:
        raise ValueError("baseline must be non-negative")
    savings = baseline_per_thousand - lcoai.per_thousand
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

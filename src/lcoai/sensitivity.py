"""Parameter sweeps, break-even volume solving, and tornado summaries.

Each analysis compiles its scenarios once into a
:class:`~lcoai.cost_core.CompiledScenario` and evaluates every point on that
compiled form: a point is the base scenario's per-period volumes, OPEX rate
and charged CAPEX with one of them replaced, so no scenario is derived and
nothing is re-amortized or re-validated per point. A sweep that keeps the
base volumes (``opex_rate``, ``capex_multiplier``) reduces them to their
volume terms once and finishes each point in O(1) integer operations. The
``with_*`` functions derive whole scenarios for callers that want one; a
point's value always equals :func:`~lcoai.cost_core.compute_lcoai` of the
derived scenario. The base is never mutated, and points are independent.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from operator import lt, mul
from typing import Iterable, Literal, Optional, Union

from .cost_core import (
    CompiledScenario,
    CostScenario,
    Money,
    PerInferenceRate,
    Rational,
    VolumeProjection,
    compute_lcoai,
    round_half_away,
)
from .decision import fine_tune_threshold
from .errors import IncompatibleScenariosError, UndefinedMetricError

SweepParameter = Literal["volume", "opex_rate", "capex_multiplier"]

SWEEP_PARAMETERS = ("volume", "opex_rate", "capex_multiplier")

# volumes beyond this are reported as "no crossover" with search_exhausted set
DEFAULT_SEARCH_MAX = 10**9

# largest search bound break_even accepts; bisection takes log2(bound) steps
MAX_SEARCH_MAX = 10**18


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
            if not all(isinstance(p, int) and not isinstance(p, bool) for p in points) \
                    or min(points) < 0:
                raise ValueError("volume points must be non-negative integers")
            increasing = all(map(lt, points, points[1:]))
        elif self.parameter == "opex_rate":
            if not all(isinstance(p, PerInferenceRate) for p in points):
                raise ValueError("opex points must be PerInferenceRate values")
            rates = [p.rate for p in points]
            increasing = all(map(lt, rates, rates[1:]))
        elif self.parameter == "capex_multiplier":
            points = tuple(p if isinstance(p, Fraction) else Fraction(p) for p in points)
            nums = [p.numerator for p in points]
            dens = [p.denominator for p in points]
            if min(nums) <= 0:  # denominators are positive
                raise ValueError("capex multipliers must be positive")
            # a < b exactly when a.numerator * b.denominator < b.numerator * a.denominator
            increasing = all(map(lt, map(mul, nums, dens[1:]), map(mul, nums[1:], dens)))
        else:
            raise ValueError(f"unknown sweep parameter {self.parameter!r}")
        if not increasing:
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
        object.__setattr__(self, "series", tuple(map(tuple, self.series)))


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
    return replace(scenario, volume=VolumeProjection(_rescaled(scenario.volume.per_period, total)))


def _rescaled(per_period: tuple, total: int) -> tuple:
    """Per-period counts of the same shape summing to ``total`` (see
    :func:`with_total_volume`)."""
    if len(per_period) == 1:
        return (total,)
    old_total = sum(per_period)
    weights = per_period if old_total else (1,) * len(per_period)
    weight_sum = old_total or len(per_period)
    rescaled = []
    prev = cum = 0
    for w in weights:
        cum += w
        target = (total * cum) // weight_sum
        rescaled.append(target - prev)
        prev = target
    return tuple(rescaled)


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


def _point_inputs(kernel: CompiledScenario, parameter: str, point) -> tuple:
    """(volumes, rate, capex) of the kernel's scenario with one parameter set."""
    if parameter == "volume":
        return _rescaled(kernel.volumes, point), kernel.rate, kernel.capex
    if parameter == "opex_rate":
        return kernel.volumes, point.rate, kernel.capex
    return kernel.volumes, kernel.rate, kernel.capex_scaled(point)


def sweep(scenario: CostScenario, spec: SweepSpec) -> SweepResult:
    """Evaluate the levelized cost across the grid of a sweep spec.

    ``opex_rate`` and ``capex_multiplier`` points keep the base volumes, so
    the series computes their volume terms once; at a zero-volume base every
    point is undefined.
    """
    kernel = CompiledScenario(scenario)
    combine, rate, capex, points = kernel.combine, kernel.rate, kernel.capex, spec.points
    if spec.parameter == "volume":
        volumes, volume_terms = kernel.volumes, kernel.volume_terms
        costs = []
        for point in points:
            try:
                terms = volume_terms(_rescaled(volumes, point))
            except UndefinedMetricError:  # zero volume
                costs.append(None)
            else:
                costs.append(combine(terms, rate, capex)[3])
    else:
        try:
            terms = kernel.volume_terms(kernel.volumes)
        except UndefinedMetricError:  # zero volume
            costs = [None] * len(points)
        else:
            if spec.parameter == "opex_rate":
                costs = [combine(terms, point.rate, capex)[3] for point in points]
            else:
                capex_scaled = kernel.capex_scaled
                costs = [combine(terms, rate, capex_scaled(point))[3] for point in points]
    series = tuple((point, None if cost is None else Money(cost * 1000))
                   for point, cost in zip(points, costs))
    return SweepResult(scenario.name, spec.parameter, series)


def _is_analytic(scenario: CostScenario) -> bool:
    return (
        scenario.horizon.periods == 1
        and not scenario.discount.is_discounting
        and scenario.opex.fixed_per_period.amount == 0
    )


def break_even(a: CostScenario, b: CostScenario,
               search_max: int = DEFAULT_SEARCH_MAX) -> BreakEvenResult:
    """Smallest volume at which the higher-capital scenario is strictly cheaper.

    One driver decides every outcome on each scenario's compiled form, in
    exact per-inference values. The higher-capital scenario charges more
    CAPEX; at equal CAPEX it is the one dearer at volume 1, or on a tie
    there, the one dearer at ``search_max``. It crosses at volume 1 when it
    is already strictly cheaper there. When it is not strictly cheaper at
    ``search_max`` either, the other scenario dominates, and
    ``search_exhausted`` is set only when the dominated scenario's cost per
    inference tends, as volume grows, to strictly less than the dominator's,
    so the curves cross beyond the bound. Only the crossover between the
    bounds is found two ways: pairs in the analytic regime (single period,
    no discounting, purely per-inference OPEX) solve
    ``C_hi + o_hi * V < C_lo + o_lo * V`` with
    :func:`~lcoai.decision.fine_tune_threshold`'s formula; other pairs
    bisect monotonically over [1, search_max], and confirm the crossover
    with :func:`compute_lcoai` at V-1 and V. ``search_max`` must lie in
    [1, :data:`MAX_SEARCH_MAX`]. Scenarios with differing horizons are not
    comparable.
    """
    if search_max <= 0:
        raise ValueError("search_max must be positive")
    if search_max > MAX_SEARCH_MAX:
        raise ValueError(f"search_max must be at most {MAX_SEARCH_MAX:,}")
    if a.horizon != b.horizon:
        raise IncompatibleScenariosError(
            f"horizons differ: {a.horizon} vs {b.horizon}")
    return _break_even(a, b, search_max, _is_analytic(a) and _is_analytic(b))


def _break_even_bisect(a: CostScenario, b: CostScenario,
                       search_max: int) -> BreakEvenResult:
    """:func:`break_even` with the crossover bisected even for analytic pairs."""
    return _break_even(a, b, search_max, analytic=False)


def _break_even(a: CostScenario, b: CostScenario, search_max: int,
                analytic: bool) -> BreakEvenResult:
    def exact(kernel: CompiledScenario, volume: int) -> tuple:
        # (numerator, denominator) of the exact cost per inference at a volume
        return kernel.evaluate(*_point_inputs(kernel, "volume", volume))[:2]

    def diff(x: CompiledScenario, y: CompiledScenario, volume: int) -> int:
        # has the sign of x's cost minus y's: both denominators are positive
        (nx, dx), (ny, dy) = exact(x, volume), exact(y, volume)
        return nx * dy - ny * dx

    ka, kb = CompiledScenario(a), CompiledScenario(b)
    if ka.capex != kb.capex:
        a_is_hi = ka.capex > kb.capex
    else:  # fixed charges act as capital: the side dearer at 1, else at search_max
        a_is_hi = (diff(ka, kb, 1), diff(ka, kb, search_max)) > (0, 0)
    hi, lo = (ka, kb) if a_is_hi else (kb, ka)

    if diff(hi, lo, 1) < 0:
        volume = 1
    elif diff(hi, lo, search_max) >= 0:
        # hi can still cross beyond the bound only if it tends lower
        return BreakEvenResult(a.name, b.name, None, lo.scenario.name, lo.scenario.name,
                               search_exhausted=_limit(hi) < _limit(lo))
    elif analytic:  # paying the capital gap for hi's rate is fine-tuning lo
        volume = fine_tune_threshold(lo.scenario.opex.per_inference,
                                     hi.scenario.opex.per_inference,
                                     Money(hi.capex - lo.capex)).threshold_volume
    else:
        low, volume = 1, search_max  # hi is not cheaper at low, strictly cheaper at volume
        while volume - low > 1:
            mid = (low + volume) // 2
            if diff(hi, lo, mid) < 0:
                volume = mid
            else:
                low = mid
    result = BreakEvenResult(a.name, b.name, volume, lo.scenario.name, hi.scenario.name)
    return result if analytic else _confirmed(result, hi.scenario, lo.scenario)


def _limit(kernel: CompiledScenario) -> Fraction:
    """The exact cost per inference the kernel's scenario tends to as its
    total volume grows: the OPEX rate when the denominator is discounted,
    else the rate times sum(w_t * p_t) / (L * sum(p_t)) for the projection
    shape p (uniform when it is all zero), as :func:`_rescaled` keeps it."""
    if kernel.discounts_denominator:
        return Fraction(kernel.rate)
    shape = kernel.volumes if any(kernel.volumes) else (1,) * len(kernel.volumes)
    return Fraction(kernel.rate * sum(map(mul, kernel.weights, shape)),
                    kernel.scale * sum(shape))


def _confirmed(result: BreakEvenResult, hi: CostScenario,
               lo: CostScenario) -> BreakEvenResult:
    """The result, once compute_lcoai on rescaled copies agrees that ``hi`` is
    strictly cheaper at the crossover volume V and not at V-1."""
    def cheaper(volume: int) -> bool:
        return (compute_lcoai(with_total_volume(hi, volume)).exact_per_inference
                < compute_lcoai(with_total_volume(lo, volume)).exact_per_inference)

    v = result.crossover_volume
    if not cheaper(v) or (v > 1 and cheaper(v - 1)):
        raise RuntimeError(f"break-even confirmation failed at volume {v:,} "
                           f"for {hi.name!r} against {lo.name!r}")
    return result


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
    kernel = CompiledScenario(scenario)
    entries = []
    for parameter in TORNADO_PARAMETERS:
        if parameter not in chosen:
            continue
        low = _tornado_point(kernel, parameter, 1 - swing)
        high = _tornado_point(kernel, parameter, 1 + swing)
        entries.append(TornadoEntry(parameter, low, high))
    entries.sort(key=lambda e: (-e.spread.amount, e.parameter))
    return entries


def _tornado_point(kernel: CompiledScenario, parameter: str, k: Fraction) -> Money:
    if parameter == "opex_rate":
        point = kernel.scenario.opex.per_inference.scaled(k)
    elif parameter == "volume":
        point = round_half_away(kernel.scenario.volume.total * k)
    else:
        point = k
    return Money(kernel.evaluate(*_point_inputs(kernel, parameter, point))[3] * 1000)

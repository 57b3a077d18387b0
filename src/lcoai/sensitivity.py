"""Parameter sweeps, break-even volume solving, and tornado summaries.

Each analysis compiles its scenarios once into a
:class:`~lcoai.cost_core.CompiledScenario` and evaluates every point on that
compiled form: a point is the base scenario's per-period volumes, OPEX rate
and charged CAPEX with one of them replaced, so no scenario is derived and
nothing is re-amortized or re-validated per point. Sweeps, tornado and the
``sweep`` command map a parameter and its points, as raw integers, to costs
through one series generator; a series that keeps the base volumes
(``opex_rate``, ``capex_multiplier``) reduces them to their volume terms
once and finishes each point in O(1), and a volume point is O(1) when the
kernel's weights are equal. The
``with_*`` functions derive whole scenarios for callers that want one; a
point's value always equals :func:`~lcoai.cost_core.compute_lcoai` of the
derived scenario. The base is never mutated, and points are independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from operator import lt
from typing import Iterable, Iterator, Literal, Optional

from .cost_core import (
    CompiledScenario,
    CostScenario,
    Exact,
    Money,
    PerInferenceRate,
    VolumeProjection,
    _is_int,
    _rescaled,
    compute_lcoai,
    exact_ratio,
    round_half_away,
)
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
    points are :class:`PerInferenceRate`. Capex points are positive
    multipliers, read by :func:`~lcoai.cost_core.exact_ratio`, applied to every
    CAPEX item. Points must be strictly increasing.
    """

    parameter: SweepParameter
    points: tuple

    def __post_init__(self):
        points = tuple(self.points)
        if not points:
            raise ValueError("sweep needs at least one point")
        if self.parameter == "volume":
            if not all(map(_is_int, points)) or min(points) < 0:
                raise ValueError("volume points must be non-negative integers")
        elif self.parameter == "opex_rate":
            if not all(isinstance(p, PerInferenceRate) for p in points):
                raise ValueError("opex points must be PerInferenceRate values")
        elif self.parameter == "capex_multiplier":
            points = tuple(p if isinstance(p, Fraction) else Fraction(*exact_ratio(p)) for p in points)
            if min(points) <= 0:
                raise ValueError("capex multipliers must be positive")
        else:
            raise ValueError(f"unknown sweep parameter {self.parameter!r}")
        # ints, PerInferenceRate (ordered by its rate) or Fractions
        if not all(map(lt, points, points[1:])):
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


def with_opex_rate(scenario: CostScenario, rate: PerInferenceRate) -> CostScenario:
    """A copy with the per-inference OPEX rate replaced (fixed charge kept)."""
    return replace(scenario, opex=replace(scenario.opex, per_inference=rate))


def with_capex_scaled(scenario: CostScenario, k: Exact) -> CostScenario:
    """A copy with every CAPEX item amount scaled by ``k``, read by
    :func:`~lcoai.cost_core.exact_ratio`."""
    k = Fraction(*exact_ratio(k))
    if k <= 0:
        raise ValueError("capex multiplier must be positive")
    items = tuple(replace(item, amount=item.amount.scaled(k)) for item in scenario.capex)
    return replace(scenario, capex=items)


def _series(kernel: CompiledScenario, parameter: str, points: Iterable[int],
            q: int = 1) -> Iterator[Optional[int]]:
    """Rounded cost per inference (micro-dollars) at each of one parameter's
    points, ``None`` where the volume is zero. Points are raw integers:
    volumes, OPEX rates in micro-dollars, or CAPEX multipliers as numerators
    over the common denominator ``q``. A volume point costs O(1) when the
    kernel's weights are equal (:meth:`~CompiledScenario.terms_at`);
    ``opex_rate`` and ``capex_multiplier`` points keep the base volumes and
    reduce them once."""
    combine, rate, capex = kernel.combine, kernel.rate, kernel.capex
    if parameter == "volume":
        terms_at = kernel.terms_at
        for point in points:
            try:
                terms = terms_at(point)
            except UndefinedMetricError:  # zero volume
                yield None
            else:
                yield combine(terms, rate, capex)[3]
        return
    try:
        terms = kernel.volume_terms(kernel.volumes)
    except UndefinedMetricError:  # zero volume
        for _ in points:
            yield None
        return
    if parameter == "opex_rate":
        for point in points:
            yield combine(terms, point, capex)[3]
    else:
        capex_scaled = kernel.capex_scaled
        for point in points:
            yield combine(terms, rate, capex_scaled(point, q))[3]


def _raw_points(parameter: str, points: tuple) -> tuple:
    """``(integers, q)``: a sweep's points in the form :func:`_series` reads,
    volumes as they are, OPEX rates as micro-dollars and multipliers as
    numerators over ``q``, the least common denominator of the points."""
    if parameter == "volume":
        return points, 1
    if parameter == "opex_rate":
        return tuple(point.rate for point in points), 1
    q = math.lcm(*(point.denominator for point in points))
    return tuple(point.numerator * (q // point.denominator) for point in points), q


def sweep(scenario: CostScenario, spec: SweepSpec) -> SweepResult:
    """Evaluate the levelized cost across the grid of a sweep spec (``None``
    at each point where the volume is zero)."""
    costs = _series(CompiledScenario(scenario), spec.parameter,
                    *_raw_points(spec.parameter, spec.points))
    series = tuple((point, None if cost is None else Money(cost * 1000))
                   for point, cost in zip(spec.points, costs))
    return SweepResult(scenario.name, spec.parameter, series)


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
    bounds is found two ways, chosen on the compiled forms alone. When both
    kernels' weights are equal (no discounting, or one period), each cost
    is ``(A + B*V) / (m*V)``, so ``diff(V) / V`` is affine in V: two probes
    give it, and the crossover is the first integer past its root. Other
    pairs bisect monotonically over [1, search_max], and confirm the
    crossover with :func:`compute_lcoai` at V-1 and V. ``search_max`` must
    lie in [1, :data:`MAX_SEARCH_MAX`]. Scenarios with differing horizons
    are not comparable.
    """
    if not _is_int(search_max):
        raise TypeError("search_max must be an int")
    if search_max <= 0:
        raise ValueError("search_max must be positive")
    if search_max > MAX_SEARCH_MAX:
        raise ValueError(f"search_max must be at most {MAX_SEARCH_MAX:,}")
    if a.horizon != b.horizon:
        raise IncompatibleScenariosError(
            f"horizons differ: {a.horizon} vs {b.horizon}")

    def exact(kernel: CompiledScenario, volume: int) -> tuple:
        # (numerator, denominator) of the exact cost per inference at a volume
        return kernel.combine(kernel.terms_at(volume), kernel.rate, kernel.capex)[:2]

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
    elif hi.equal_weights and lo.equal_weights:
        # diff(V) / V = g - s*V with s > 0, read at V = 1 and 2 (search_max >= 2
        # here); the first V past g / s is strictly cheaper
        d1, d2 = diff(hi, lo, 1), diff(hi, lo, 2) // 2
        volume = (2 * d1 - d2) // (d1 - d2) + 1
    else:
        low, volume = 1, search_max  # hi is not cheaper at low, strictly cheaper at volume
        while volume - low > 1:
            mid = (low + volume) // 2
            if diff(hi, lo, mid) < 0:
                volume = mid
            else:
                low = mid
        return _confirmed(BreakEvenResult(a.name, b.name, volume, lo.scenario.name,
                                          hi.scenario.name), hi.scenario, lo.scenario)
    return BreakEvenResult(a.name, b.name, volume, lo.scenario.name, hi.scenario.name)


def _limit(kernel: CompiledScenario) -> Fraction:
    """The exact cost per inference the kernel's scenario tends to as its
    total volume grows: the rate times the weighted volume over D, both from
    :meth:`~lcoai.cost_core.CompiledScenario.terms_at` the projection's own
    total (one per period when it is all zero, which :func:`_rescaled` spreads
    uniformly)."""
    weighted, denominator = kernel.terms_at(sum(kernel.volumes) or len(kernel.volumes))
    return Fraction(kernel.rate * weighted, denominator)


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


def tornado(scenario: CostScenario, swing: Exact) -> list:
    """Cost per 1,000 at (1 - swing) and (1 + swing) times each of
    :data:`TORNADO_PARAMETERS`.

    Returns one :class:`TornadoEntry` per parameter, ordered by descending
    spread (ties by parameter name); a swung point with zero volume raises
    :class:`~lcoai.errors.UndefinedMetricError`. ``swing``, read by
    :func:`~lcoai.cost_core.exact_ratio`, must lie strictly between 0 and 1.
    """
    swing = Fraction(*exact_ratio(swing))
    if not 0 < swing < 1:
        raise ValueError("swing must be strictly between 0 and 1")
    kernel = CompiledScenario(scenario)
    ks = (1 - swing, 1 + swing)
    total, rate = scenario.volume.total, kernel.rate
    # 1 - n/d and 1 + n/d stay in lowest terms over d
    points = {"capex": ("capex_multiplier", [k.numerator for k in ks], swing.denominator),
              "opex_rate": ("opex_rate", [round_half_away(rate * k) for k in ks]),
              "volume": ("volume", [round_half_away(total * k) for k in ks])}
    entries = []
    for parameter in TORNADO_PARAMETERS:
        low, high = _series(kernel, *points[parameter])
        if low is None or high is None:
            raise UndefinedMetricError(
                f"scenario {scenario.name!r} projects zero valid inferences")
        entries.append(TornadoEntry(parameter, Money(low * 1000), Money(high * 1000)))
    entries.sort(key=lambda e: (-e.spread.amount, e.parameter))
    return entries

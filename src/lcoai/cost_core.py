"""Domain types and the levelized cost-per-inference computation.

Every monetary quantity is an integer count of micro-dollars (1 USD =
1,000,000 micro-dollars), so arithmetic is exact; the single rounding rule
anywhere is round-half-away-from-zero at micro-dollar granularity. Discount
factors are ``fractions.Fraction``. All types are immutable values and all
operations are pure functions, so everything here is safe for unrestricted
concurrent use.

:class:`CompiledScenario` is the one evaluation path: ``compute_lcoai`` and
every analysis in :mod:`lcoai.sensitivity` compile a scenario once and then
evaluate each point with integer arithmetic, reducing a volume vector once
(:meth:`~CompiledScenario.volume_terms`) and finishing each point from it
(:meth:`~CompiledScenario.combine`).
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from operator import mul
from typing import Iterable, Literal, Union

from .errors import FieldError, InvalidHorizonError, UndefinedMetricError

MICRO_PER_USD = 10**6

# decimal text whose exponent in scientific notation lies outside
# ±MAX_DECIMAL_EXPONENT is rejected: "1e-999999999" would otherwise parse to a
# billion-digit integer
MAX_DECIMAL_EXPONENT = 100

# longest horizon a discounting policy may cover (100 years): each period's
# exact discount factor grows with its exponent
MAX_DISCOUNTED_MONTHS = 1_200

# CapexItem.asset_life_months sentinel: amortize over the analysis horizon.
HORIZON_LIFE = "horizon"

Rational = Union[int, Fraction]


def round_half_away(value: Rational) -> int:
    """Round an exact rational to the nearest integer, ties away from zero."""
    frac = Fraction(value)
    return _round_div(frac.numerator, frac.denominator)


def _round_div(n: int, d: int) -> int:
    """``n / d`` (``d > 0``) rounded to the nearest integer, ties away from zero."""
    q, r = divmod(abs(n), d)
    if 2 * r >= d:
        q += 1
    return q if n >= 0 else -q


def _fixed_point(scaled: int, decimals: int, prefix: str = "", group: str = "") -> str:
    """Text of ``scaled / 10**decimals`` with exactly ``decimals`` places.

    The sign goes before ``prefix`` ("-$1.50"); ``group`` is the format spec
    of the whole part ("," for thousands separators).
    """
    whole, frac = divmod(abs(scaled), 10**decimals)
    text = f"{'-' if scaled < 0 else ''}{prefix}{whole:{group}}"
    return f"{text}.{str(frac).zfill(decimals)}" if decimals else text


def decimal_text(value: Rational) -> str:
    """Shortest exact decimal text ("0.0048", "-1.5", "50000") of a rational
    whose denominator is 2^a * 5^b; any other rational raises ValueError."""
    value = Fraction(value)
    n, d = value.numerator, value.denominator
    places = decimal_places(d)
    if places is None:
        raise ValueError(f"{value} has no exact decimal representation")
    # exact at max(a, b) places, whose last digit is never 0
    return _fixed_point(n * 10**places // d, places)


def decimal_places(d: int) -> Union[int, None]:
    """Fewest decimal places that write every multiple of 1/d exactly:
    max(a, b) for ``d = 2^a * 5^b``, and None for any other positive d."""
    twos = (d & -d).bit_length() - 1
    fives = round(math.log(d >> twos, 5))
    if 5**fives << twos != d:
        return None
    return max(twos, fives)


def decimal_ratio(value: Decimal) -> tuple:
    """Exact ``(numerator, denominator)`` of a finite Decimal whose exponent
    in scientific notation lies within ±:data:`MAX_DECIMAL_EXPONENT`;
    anything else raises ``ValueError``."""
    if not value.is_finite():
        raise ValueError(f"not a finite decimal value: {str(value)!r}")
    if abs(value.adjusted()) > MAX_DECIMAL_EXPONENT:
        raise ValueError(f"the exponent of {str(value)!r} is outside "
                         f"±{MAX_DECIMAL_EXPONENT}")
    return value.as_integer_ratio()


def usd_to_micro(usd: Union[str, int, Decimal]) -> int:
    """Convert an exact decimal USD quantity to integer micro-dollars.

    Floats are refused (their binary representation would defeat exactness),
    as is anything finer than micro-dollar resolution (6 decimal places) and
    any exponent outside ±:data:`MAX_DECIMAL_EXPONENT`.
    """
    if isinstance(usd, bool):
        raise TypeError("bool is not a USD amount")
    if isinstance(usd, int):
        return usd * MICRO_PER_USD
    if isinstance(usd, float):
        raise TypeError("float USD values are not exact; pass a str, int, or Decimal")
    if isinstance(usd, str):
        try:
            usd = Decimal(usd)
        except decimal.InvalidOperation as exc:
            raise ValueError(f"not a decimal amount: {usd!r}") from exc
    if not isinstance(usd, Decimal):
        raise TypeError(f"cannot convert {type(usd).__name__} to micro-dollars")
    numerator, denominator = decimal_ratio(usd)
    micro, rest = divmod(numerator * MICRO_PER_USD, denominator)
    if rest:
        raise ValueError(f"{usd} exceeds micro-dollar resolution (6 decimal places)")
    return micro


@dataclass(frozen=True, slots=True, order=True)
class Money:
    """An exact currency amount: an integer count of micro-dollars."""

    amount: int

    def __post_init__(self):
        if isinstance(self.amount, bool) or not isinstance(self.amount, int):
            raise TypeError("Money holds an int count of micro-dollars")

    @classmethod
    def from_usd(cls, usd: Union[str, int, Decimal]) -> "Money":
        return cls(usd_to_micro(usd))

    def __add__(self, other: "Money") -> "Money":
        return Money(self.amount + other.amount)

    def __sub__(self, other: "Money") -> "Money":
        return Money(self.amount - other.amount)

    def __mul__(self, k: int) -> "Money":
        if isinstance(k, bool) or not isinstance(k, int):
            raise TypeError("Money multiplies exactly by int only; use scaled() for rationals")
        return Money(self.amount * k)

    __rmul__ = __mul__

    def __neg__(self) -> "Money":
        return Money(-self.amount)

    def __abs__(self) -> "Money":
        return Money(abs(self.amount))

    def scaled(self, k: Rational) -> "Money":
        """Scale by an exact non-binary rational, rounding half away from zero."""
        return Money(round_half_away(Fraction(self.amount) * Fraction(k)))

    def per_inference(self, count: int) -> "PerInferenceRate":
        """Divide by an inference count under the declared rounding rule."""
        if count <= 0:
            raise ValueError("inference count must be positive")
        return PerInferenceRate(round_half_away(Fraction(self.amount, count)))

    def as_usd(self) -> Decimal:
        """Exact USD value as a Decimal."""
        return Decimal(self.amount).scaleb(-6)

    def usd_string(self) -> str:
        return decimal_text(Fraction(self.amount, MICRO_PER_USD))

    def __str__(self) -> str:
        return f"${self.usd_string()}"


ZERO = Money(0)


@dataclass(frozen=True, slots=True, order=True)
class PerInferenceRate:
    """Micro-dollars per single inference. Non-negative."""

    rate: int

    def __post_init__(self):
        if isinstance(self.rate, bool) or not isinstance(self.rate, int):
            raise TypeError("PerInferenceRate holds an int count of micro-dollars")
        if self.rate < 0:
            raise ValueError("per-inference rate must be non-negative")

    @classmethod
    def from_usd(cls, usd: Union[str, int, Decimal]) -> "PerInferenceRate":
        return cls(usd_to_micro(usd))

    def per_thousand(self) -> Money:
        """The reporting unit: exact cost per 1,000 inferences."""
        return Money(self.rate * 1000)

    def total_for(self, inferences: int) -> Money:
        """Exact cost of the given inference count at this rate."""
        if inferences < 0:
            raise ValueError("inference count must be non-negative")
        return Money(self.rate * inferences)

    def scaled(self, k: Rational) -> "PerInferenceRate":
        return PerInferenceRate(round_half_away(Fraction(self.rate) * Fraction(k)))

    def as_usd(self) -> Decimal:
        return Decimal(self.rate).scaleb(-6)

    def usd_string(self) -> str:
        return decimal_text(Fraction(self.rate, MICRO_PER_USD))


@dataclass(frozen=True, slots=True)
class CapexItem:
    """One upfront investment (hardware, fine-tuning, integration, licensing).

    ``asset_life_months`` is either a positive month count for straight-line
    amortization over the asset's useful life, or :data:`HORIZON_LIFE` to
    allocate the full amount over the analysis horizon.
    """

    label: str
    amount: Money
    asset_life_months: Union[int, str] = HORIZON_LIFE

    def __post_init__(self):
        if not isinstance(self.label, str) or not self.label:
            raise FieldError("label", "required non-empty string")
        life = self.asset_life_months
        if life != HORIZON_LIFE and (
                isinstance(life, bool) or not isinstance(life, int) or life <= 0):
            raise FieldError("asset_life_months", 'must be a positive integer or "horizon"')
        if self.amount.amount < 0:
            raise ValueError("CAPEX amount must be non-negative")


@dataclass(frozen=True, slots=True)
class OpexModel:
    """Recurring costs: a per-inference rate plus an optional fixed charge per period."""

    per_inference: PerInferenceRate
    fixed_per_period: Money = ZERO

    def __post_init__(self):
        if self.fixed_per_period.amount < 0:
            raise ValueError("fixed_per_period must be non-negative")

    def period_total(self, inferences: int) -> Money:
        """Exact OPEX for one period with the given inference count."""
        return self.fixed_per_period + self.per_inference.total_for(inferences)


@dataclass(frozen=True, slots=True)
class VolumeProjection:
    """Projected valid-inference counts, one entry per horizon period."""

    per_period: tuple

    def __post_init__(self):
        entries = tuple(self.per_period)
        object.__setattr__(self, "per_period", entries)
        if not entries:
            raise FieldError("per_period", "projection needs at least one period")
        for k, v in enumerate(entries):
            if isinstance(v, bool) or not isinstance(v, int) or v < 0:
                raise FieldError(f"per_period[{k}]", "must be a non-negative integer")

    @property
    def total(self) -> int:
        return sum(self.per_period)


@dataclass(frozen=True, slots=True)
class Horizon:
    """The analysis span: a count of uniform periods, each a whole number of months."""

    periods: int
    period_length_months: int = 12

    def __post_init__(self):
        if isinstance(self.periods, bool) or not isinstance(self.periods, int) or self.periods <= 0:
            raise InvalidHorizonError("horizon needs a positive period count")
        plm = self.period_length_months
        if isinstance(plm, bool) or not isinstance(plm, int) or plm <= 0:
            raise InvalidHorizonError("period length must be a positive month count")

    @property
    def months(self) -> int:
        return self.periods * self.period_length_months


@dataclass(frozen=True, slots=True)
class DiscountPolicy:
    """Whether and how future cash flows are discounted.

    ``wacc`` mode applies 1/(1+annual_rate)^years to each period's cash
    flows; capital charges are commissioning-time (period 0) lumps and are
    never discounted. ``discount_denominator`` extends the discounting to the
    inference denominator (the levelized-output convention) and is off by
    default.
    """

    mode: Literal["none", "wacc"] = "none"
    annual_rate: Union[Fraction, None] = None
    discount_denominator: bool = False

    def __post_init__(self):
        if self.mode not in ("none", "wacc"):
            raise FieldError("mode", 'must be "none" or "wacc"')
        if not isinstance(self.discount_denominator, bool):
            raise FieldError("discount_denominator", "must be a boolean")
        if self.mode == "wacc":
            if self.annual_rate is None:
                raise FieldError("annual_rate", "wacc mode requires an annual_rate")
            rate = Fraction(self.annual_rate)
            object.__setattr__(self, "annual_rate", rate)
            if rate < 0:
                raise ValueError("annual_rate must be non-negative")
            if rate >= 1:
                raise ValueError("an annual rate of 100% or more is rejected")

    @property
    def is_discounting(self) -> bool:
        """True when the policy changes any cash flow (wacc with a positive rate)."""
        return self.mode == "wacc" and bool(self.annual_rate)


NO_DISCOUNT = DiscountPolicy()


@dataclass(frozen=True, slots=True)
class CostScenario:
    """A named deployment alternative.

    Combines CAPEX items, an OPEX model, a per-period volume projection, the
    analysis horizon, and a discount policy. A scenario whose projection
    totals zero is constructible (sweeps may start at zero volume) but its
    levelized cost is undefined and rejected at computation time.
    """

    name: str
    capex: tuple
    opex: OpexModel
    volume: VolumeProjection
    horizon: Horizon
    discount: DiscountPolicy = NO_DISCOUNT

    def __post_init__(self):
        if not isinstance(self.name, str) or not self.name:
            raise FieldError("name", "required non-empty string")
        object.__setattr__(self, "capex", tuple(self.capex))
        if self.discount.is_discounting and self.horizon.months > MAX_DISCOUNTED_MONTHS:
            raise FieldError("horizon", f"a discounted horizon may cover at most "
                                        f"{MAX_DISCOUNTED_MONTHS:,} months")
        if len(self.volume.per_period) != self.horizon.periods:
            raise ValueError(
                f"projection covers {len(self.volume.per_period)} periods "
                f"but the horizon has {self.horizon.periods}"
            )

    @property
    def capex_total(self) -> Money:
        """Raw (unamortized) sum of all CAPEX items."""
        return Money(sum(item.amount.amount for item in self.capex))


@dataclass(frozen=True, slots=True)
class LcoaiResult:
    """The levelized cost together with its full decomposition.

    ``per_inference`` equals (total_capex_charged + total_opex) divided by
    the denominator under the round-half-away rule; the denominator is
    ``total_inferences`` unless the policy discounts it. ``per_thousand`` is
    exactly ``per_inference`` times 1,000 and keeps micro-dollar resolution;
    rounding to cents happens only in the reporting layer.
    ``exact_per_inference`` is the unrounded value, kept for property checks
    and exact curve comparisons; the repr leaves it out, as it can run to more
    digits than ``int`` will print. ``short_horizon_discounted`` flags
    discounting applied to a horizon of 24 months or less (normally omitted
    at that span).
    """

    scenario_name: str
    total_capex_charged: Money
    total_opex: Money
    total_inferences: int
    per_inference: PerInferenceRate
    per_thousand: Money
    discounted: bool
    exact_per_inference: Fraction = field(repr=False)
    short_horizon_discounted: bool = False


def _uniform_stream(total_micro: int, periods: int) -> list:
    # residual micro-dollars from uneven division land in the final period
    base = total_micro // periods
    stream = [base] * periods
    stream[-1] = total_micro - base * (periods - 1)
    return stream


def _charged(micro: int, life: Union[int, str], months: int) -> int:
    """Capital an item of ``micro`` micro-dollars charges within ``months``:
    all of it, unless its numeric asset life outlasts the horizon."""
    if life == HORIZON_LIFE or life <= months:
        return micro
    return _round_div(micro * months, life)


def amortize_capex(items: Iterable[CapexItem], horizon: Horizon) -> list:
    """Per-period capital charge stream (list of Money) over the horizon.

    ``HORIZON_LIFE`` items spread their full amount uniformly across the
    horizon. A numeric asset life at least as long as the horizon charges
    the straight-line share amount * horizon_months / asset_life_months,
    spread uniformly. A shorter life charges the full amount within the life
    span, month by month (cumulative rounding keeps the stream total exact).
    The stream total never exceeds the item total.
    """
    periods = horizon.periods
    plm = horizon.period_length_months
    total_months = horizon.months
    charges = [0] * periods
    for item in items:
        micro = item.amount.amount
        life = item.asset_life_months
        if life == HORIZON_LIFE or life >= total_months:
            for i, c in enumerate(_uniform_stream(_charged(micro, life, total_months), periods)):
                charges[i] += c
        else:
            prev = 0
            for p in range(1, periods + 1):
                covered = min(p * plm, life)
                cum = round_half_away(Fraction(micro * covered, life))
                charges[p - 1] += cum - prev
                prev = cum
    return [Money(c) for c in charges]


def discount_factor(policy: DiscountPolicy, period_index: int,
                    period_length_months: int = 12) -> Fraction:
    """Present-value factor for one period's cash flows.

    Periods are indexed from 1; the factor is 1/(1+annual_rate)^y with
    y = period_index * period_length_months / 12. Period 0 is commissioning
    time and always carries factor 1 (capital is charged there).

    What "exact" means here: a whole-year exponent gives the exact rational
    power. A non-integral exponent (a period grid that misses year
    boundaries, such as quarters) is evaluated to 50 significant digits, and
    the factor is the exact Fraction of that decimal power, so results stay
    deterministic. Every result downstream is the exact rational that
    follows from these factors; :class:`CompiledScenario` only rearranges
    the sums over them and yields the same rational.
    """
    if period_index < 0:
        raise ValueError("period_index starts at 0 (commissioning)")
    if not policy.is_discounting or period_index == 0:
        return Fraction(1)
    years = Fraction(period_index * period_length_months, 12)
    base = 1 + policy.annual_rate
    if years.denominator == 1:
        return Fraction(1) / base ** years.numerator
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        b = Decimal(base.numerator) / Decimal(base.denominator)
        y = Decimal(years.numerator) / Decimal(years.denominator)
        return Fraction(1) / Fraction(b**y)


class CompiledScenario:
    """A scenario compiled once for repeated exact evaluation.

    Compiling sums the charged CAPEX once and computes each period's discount
    factor f_t once, then writes the factors over one common denominator L as
    integer weights w_t = f_t * L. A point, given by per-period volumes v_t,
    a per-inference rate o (micro-dollars) and a charged CAPEX C, then costs
    integer arithmetic only::

        exact = (C*L + sum(w_t * (F + o*v_t))) / D

    where F is the fixed OPEX per period and D is sum(w_t * v_t) when the
    denominator is discounted, L * sum(v_t) otherwise. This is the
    per-period Fraction formula with its sums rearranged: the rational is the
    same. Evaluation is split in two: :meth:`volume_terms` reduces a volume
    vector to ``(sum(w_t * v_t), D)`` in O(periods), and :meth:`combine`
    finishes a point from those terms, o and C in O(1), so a series that
    keeps its volumes computes the terms once. :meth:`evaluate` is the two
    steps in turn. Instances are never mutated after construction.
    """

    __slots__ = ("scenario", "volumes", "rate", "capex", "fixed", "scale", "weights",
                 "weight_sum", "discounts_denominator")

    def __init__(self, scenario: CostScenario):
        horizon, policy = scenario.horizon, scenario.discount
        self.scenario = scenario
        self.volumes = scenario.volume.per_period
        self.rate = scenario.opex.per_inference.rate
        self.fixed = scenario.opex.fixed_per_period.amount
        self.capex = self.capex_scaled(1)
        if policy.is_discounting:
            plm = horizon.period_length_months
            factors = [discount_factor(policy, t, plm) for t in range(1, horizon.periods + 1)]
            self.scale = math.lcm(*(f.denominator for f in factors))
            self.weights = tuple(f.numerator * (self.scale // f.denominator) for f in factors)
        else:
            self.scale, self.weights = 1, (1,) * horizon.periods
        self.weight_sum = sum(self.weights)
        self.discounts_denominator = policy.is_discounting and policy.discount_denominator

    def capex_scaled(self, k: Rational) -> int:
        """Charged CAPEX with every item amount scaled by ``k > 0`` and rounded
        per item, as :meth:`Money.scaled` rounds; ``k = 1`` gives the total
        of the :func:`amortize_capex` stream."""
        p, q = k.numerator, k.denominator
        half, months = 2 * q, self.scenario.horizon.months
        total = 0
        for item in self.scenario.capex:
            # amounts and k are non-negative, so half away from zero is half up
            total += _charged((item.amount.amount * p * 2 + q) // half,
                              item.asset_life_months, months)
        return total

    def volume_terms(self, volumes: tuple) -> tuple:
        """``(sum(w_t * v_t), D)`` for per-period volumes: the weighted volume
        and the denominator of the exact cost per inference. Raises
        :class:`~lcoai.errors.UndefinedMetricError` at zero volume."""
        weighted = sum(map(mul, self.weights, volumes))
        denominator = weighted if self.discounts_denominator else self.scale * sum(volumes)
        if not denominator:
            raise UndefinedMetricError(
                f"scenario {self.scenario.name!r} projects zero valid inferences")
        return weighted, denominator

    def combine(self, terms: tuple, rate: int, capex: int) -> tuple:
        """``(numerator, denominator, total_opex, per_inference)`` at one point,
        from :meth:`volume_terms` of its volumes, its per-inference rate and
        its charged CAPEX.

        The exact cost per inference is ``numerator / denominator``; the total
        OPEX and the per-inference rate are micro-dollars rounded as
        :func:`compute_lcoai` reports them (the rate from the rounded OPEX).
        """
        weighted, denominator = terms
        scale = self.scale
        opex = self.fixed * self.weight_sum + rate * weighted
        # every quantity is non-negative, so half away from zero is half up
        total_opex = (2 * opex + scale) // (2 * scale)
        numerator = capex * scale + opex
        per_inference = (2 * (capex + total_opex) * scale + denominator) // (2 * denominator)
        return numerator, denominator, total_opex, per_inference

    def evaluate(self, volumes: tuple, rate: int, capex: int) -> tuple:
        """:meth:`combine` at :meth:`volume_terms` of ``volumes``."""
        return self.combine(self.volume_terms(volumes), rate, capex)


def compute_lcoai(scenario: CostScenario) -> LcoaiResult:
    """Levelized cost of the scenario, with full decomposition.

    The numerator is the capital charged within the horizon (an undiscounted
    commissioning-time lump) plus every period's OPEX, discounted per policy.
    The denominator is the total projected inference count, discounted only
    when ``discount_denominator`` is set. Raises
    :class:`~lcoai.errors.UndefinedMetricError` when the projection totals
    zero.
    """
    kernel = CompiledScenario(scenario)
    numerator, denominator, total_opex, rate = kernel.evaluate(
        kernel.volumes, kernel.rate, kernel.capex)
    discounted = scenario.discount.is_discounting
    return LcoaiResult(
        scenario_name=scenario.name,
        total_capex_charged=Money(kernel.capex),
        total_opex=Money(total_opex),
        total_inferences=sum(kernel.volumes),
        per_inference=PerInferenceRate(rate),
        per_thousand=Money(rate * 1000),
        discounted=discounted,
        exact_per_inference=Fraction(numerator, denominator),
        short_horizon_discounted=discounted and scenario.horizon.months <= 24,
    )

"""Domain types and the levelized cost-per-inference computation.

Every monetary quantity is an integer count of micro-dollars (1 USD =
1,000,000 micro-dollars), so arithmetic is exact; the single rounding rule
anywhere is round-half-away-from-zero at micro-dollar granularity. Discount
factors are ``fractions.Fraction``. All types are immutable values and all
operations are pure functions, so everything here is safe for unrestricted
concurrent use.

:class:`CompiledScenario` is the one evaluation path: ``compute_lcoai``,
``decision.compare`` (the ``table`` ranking) and every analysis in
:mod:`lcoai.sensitivity` compile a scenario once and then
evaluate each point with integer arithmetic, reducing a volume vector once
(:meth:`~CompiledScenario.volume_terms`) and finishing each point from it
(:meth:`~CompiledScenario.combine`).
"""

from __future__ import annotations

import decimal
import math
from decimal import Decimal
from fractions import Fraction
from operator import mul
from typing import Iterable, Literal, Union

from ._value import OrderedValue, Value
from .errors import FieldError, InvalidHorizonError, UndefinedMetricError

MICRO_PER_USD = 10**6

# decimal text whose exponent in scientific notation lies outside
# ±MAX_DECIMAL_EXPONENT is rejected: "1e-999999999" would otherwise parse to a
# billion-digit integer
MAX_DECIMAL_EXPONENT = 100

# reading decimal text and rounding discount_factor's base run in this
# context: 50 digits, half-even and the default traps, independent of the
# caller's context (its flags are set but never read)
_POWER_DIGITS = 50
_DECIMAL_CONTEXT = decimal.Context(
    prec=_POWER_DIGITS, rounding=decimal.ROUND_HALF_EVEN,
    traps=[decimal.InvalidOperation, decimal.DivisionByZero, decimal.Overflow])

# longest horizon a discounting policy may cover (100 years): each period's
# exact discount factor grows with its exponent
MAX_DISCOUNTED_MONTHS = 1_200

# CapexItem.asset_life_months sentinel: amortize over the analysis horizon.
HORIZON_LIFE = "horizon"

Rational = Union[int, Fraction]
Exact = Union[str, int, Decimal, Fraction]


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


def _echo(text: str) -> str:
    """An input value as an error message shows it: whole up to 60
    characters, else its first and last 20 around the count of those left
    out, so that a 5,000-digit amount cannot make a 5,000-character message."""
    if len(text) <= 60:
        return text
    return f"{text[:20]}[{len(text) - 40:,} characters left out]{text[-20:]}"


def _is_int(value) -> bool:
    """An int or an int subclass, but not a bool: the one integer rule for
    counts, amounts and bounds."""
    return type(value) is int or isinstance(value, int) and not isinstance(value, bool)


def exact_ratio(value: Exact) -> tuple:
    """Exact ``(numerator, denominator)`` of decimal text, an int, a Decimal or
    a Fraction: the one way an amount, rate, multiplier or swing enters lcoai.

    Floats (whose binary value would defeat exactness), bools and other types
    raise ``TypeError``. Malformed text, non-finite values and text or
    Decimals whose exponent in scientific notation lies outside
    ±:data:`MAX_DECIMAL_EXPONENT` raise ``ValueError``. Neither the result
    nor a message depends on the caller's decimal context.
    """
    if isinstance(value, str):  # what a scenario file holds, so tested first
        try:
            value = Decimal(value, _DECIMAL_CONTEXT)
        except decimal.InvalidOperation:
            raise ValueError(f"not a decimal value: {_echo(value)!r}") from None
    elif isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        return value.numerator, value.denominator
    elif not isinstance(value, Decimal):
        raise TypeError(f"{type(value).__name__} is not an exact decimal; write a decimal string")
    if not value.is_finite():
        raise ValueError(f"not a finite decimal value: "
                         f"{_echo(_DECIMAL_CONTEXT.to_sci_string(value))!r}")
    if abs(value.adjusted()) > MAX_DECIMAL_EXPONENT:
        raise ValueError(f"the exponent of {_echo(_DECIMAL_CONTEXT.to_sci_string(value))!r} "
                         f"is outside ±{MAX_DECIMAL_EXPONENT}")
    return value.as_integer_ratio()


def bounded_places(value: Exact) -> Fraction:
    """The Fraction of ``value``, read by :func:`exact_ratio`, when it has at
    most :data:`MAX_DECIMAL_EXPONENT` decimal places; a larger denominator
    raises ``ValueError``. The exponent bound alone leaves the digits of text
    such as "0.1111..." unbounded."""
    value = Fraction(*exact_ratio(value))
    if value.denominator > 10**MAX_DECIMAL_EXPONENT:
        raise ValueError(f"more than {MAX_DECIMAL_EXPONENT} decimal places "
                         f"(a denominator over 10^{MAX_DECIMAL_EXPONENT})")
    return value


def usd_to_micro(usd: Exact) -> int:
    """Convert an exact USD quantity, read by :func:`exact_ratio`, to integer
    micro-dollars; anything finer than micro-dollar resolution (6 decimal
    places) raises ``ValueError``."""
    numerator, denominator = exact_ratio(usd)
    micro, rest = divmod(numerator * MICRO_PER_USD, denominator)
    if rest:
        # Decimal writes an int past the interpreter's integer-string limit,
        # where str() of a Fraction raises
        text = (f"{Decimal(numerator)}/{Decimal(denominator)}" if isinstance(usd, Fraction)
                else str(usd))
        raise ValueError(f"{_echo(text)} exceeds micro-dollar resolution (6 decimal places)")
    return micro


class Money(OrderedValue):
    """An exact currency amount: an integer count of micro-dollars."""

    __slots__ = ("amount",)

    def __init__(self, amount: int):
        if not _is_int(amount):
            raise TypeError("Money holds an int count of micro-dollars")
        self._setters[0](self, amount)

    @classmethod
    def from_usd(cls, usd: Exact) -> "Money":
        return cls(usd_to_micro(usd))

    def scaled(self, k: Exact) -> "Money":
        """Scale by ``k``, read by :func:`exact_ratio`, rounding half away from zero."""
        p, q = exact_ratio(k)
        return Money(_round_div(self.amount * p, q))

    def usd_string(self) -> str:
        return decimal_text(Fraction(self.amount, MICRO_PER_USD))

    def __str__(self) -> str:
        return f"${self.usd_string()}"


ZERO = Money(0)


class PerInferenceRate(OrderedValue):
    """Micro-dollars per single inference. Non-negative."""

    __slots__ = ("rate",)

    def __init__(self, rate: int):
        if not _is_int(rate):
            raise TypeError("PerInferenceRate holds an int count of micro-dollars")
        if rate < 0:
            raise ValueError("per-inference rate must be non-negative")
        self._setters[0](self, rate)

    @classmethod
    def from_usd(cls, usd: Exact) -> "PerInferenceRate":
        return cls(usd_to_micro(usd))

    def usd_string(self) -> str:
        return decimal_text(Fraction(self.rate, MICRO_PER_USD))


class CapexItem(Value):
    """One upfront investment (hardware, fine-tuning, integration, licensing).

    ``asset_life_months`` is either a positive month count for straight-line
    amortization over the asset's useful life, or :data:`HORIZON_LIFE` to
    allocate the full amount over the analysis horizon.
    """

    __slots__ = ("label", "amount", "asset_life_months")

    def __init__(self, label: str, amount: Money,
                 asset_life_months: Union[int, str] = HORIZON_LIFE):
        if not isinstance(label, str) or not label:
            raise FieldError("label", "required non-empty string")
        life = asset_life_months
        if life != HORIZON_LIFE and (not _is_int(life) or life <= 0):
            raise FieldError("asset_life_months", 'must be a positive integer or "horizon"')
        if amount.amount < 0:
            raise ValueError("CAPEX amount must be non-negative")
        set_label, set_amount, set_life = self._setters
        set_label(self, label)
        set_amount(self, amount)
        set_life(self, life)


class OpexModel(Value):
    """Recurring costs: a per-inference rate plus an optional fixed charge per period."""

    __slots__ = ("per_inference", "fixed_per_period")

    def __init__(self, per_inference: PerInferenceRate, fixed_per_period: Money = ZERO):
        if fixed_per_period.amount < 0:
            raise ValueError("fixed_per_period must be non-negative")
        set_per_inference, set_fixed = self._setters
        set_per_inference(self, per_inference)
        set_fixed(self, fixed_per_period)


class VolumeProjection(Value):
    """Projected valid-inference counts, one entry per horizon period."""

    __slots__ = ("per_period",)

    def __init__(self, per_period: tuple):
        entries = tuple(per_period)
        if not entries:
            raise FieldError("per_period", "projection needs at least one period")
        for k, v in enumerate(entries):
            if not _is_int(v) or v < 0:
                raise FieldError(f"per_period[{k}]", "must be a non-negative integer")
        self._setters[0](self, entries)

    @property
    def total(self) -> int:
        return sum(self.per_period)


class Horizon(Value):
    """The analysis span: a count of uniform periods, each a whole number of months."""

    __slots__ = ("periods", "period_length_months")

    def __init__(self, periods: int, period_length_months: int = 12):
        if not _is_int(periods) or periods <= 0:
            raise InvalidHorizonError("horizon needs a positive period count")
        if not _is_int(period_length_months) or period_length_months <= 0:
            raise InvalidHorizonError("period length must be a positive month count")
        set_periods, set_period_length = self._setters
        set_periods(self, periods)
        set_period_length(self, period_length_months)

    @property
    def months(self) -> int:
        return self.periods * self.period_length_months


class DiscountPolicy(Value):
    """Whether and how future cash flows are discounted.

    ``wacc`` mode applies 1/(1+annual_rate)^years to each period's cash
    flows; a rate, in any mode, is read by :func:`exact_ratio` into a
    Fraction. Capital charges are commissioning-time (period 0) lumps and are
    never discounted. ``discount_denominator`` extends the discounting to the
    inference denominator (the levelized-output convention) and is off by
    default.
    """

    __slots__ = ("mode", "annual_rate", "discount_denominator")

    def __init__(self, mode: Literal["none", "wacc"] = "none",
                 annual_rate: Union[Exact, None] = None, discount_denominator: bool = False):
        if mode not in ("none", "wacc"):
            raise FieldError("mode", 'must be "none" or "wacc"')
        if not isinstance(discount_denominator, bool):
            raise FieldError("discount_denominator", "must be a boolean")
        if annual_rate is not None:
            try:
                # whole-year factors are exact powers of the rate
                annual_rate = bounded_places(annual_rate)
            except ValueError as exc:
                raise FieldError("annual_rate", str(exc)) from None
            if annual_rate < 0:
                raise ValueError("annual_rate must be non-negative")
            if annual_rate >= 1:
                raise ValueError("an annual rate of 100% or more is rejected")
        elif mode == "wacc":
            raise FieldError("annual_rate", "wacc mode requires an annual_rate")
        set_mode, set_rate, set_discount_denominator = self._setters
        set_mode(self, mode)
        set_rate(self, annual_rate)
        set_discount_denominator(self, discount_denominator)

    @property
    def is_discounting(self) -> bool:
        """True when the policy changes any cash flow (wacc with a positive rate)."""
        return self.mode == "wacc" and bool(self.annual_rate)


NO_DISCOUNT = DiscountPolicy()


class CostScenario(Value):
    """A named deployment alternative.

    Combines CAPEX items, an OPEX model, a per-period volume projection, the
    analysis horizon, and a discount policy. A scenario whose projection
    totals zero is constructible (sweeps may start at zero volume) but its
    levelized cost is undefined and rejected at computation time.
    """

    __slots__ = ("name", "capex", "opex", "volume", "horizon", "discount")

    def __init__(self, name: str, capex: tuple, opex: OpexModel, volume: VolumeProjection,
                 horizon: Horizon, discount: DiscountPolicy = NO_DISCOUNT):
        if not isinstance(name, str) or not name:
            raise FieldError("name", "required non-empty string")
        capex = tuple(capex)
        if discount.is_discounting and horizon.months > MAX_DISCOUNTED_MONTHS:
            raise FieldError("horizon", f"a discounted horizon may cover at most "
                                        f"{MAX_DISCOUNTED_MONTHS:,} months")
        if len(volume.per_period) != horizon.periods:
            raise ValueError(
                f"projection covers {len(volume.per_period)} periods "
                f"but the horizon has {horizon.periods}"
            )
        set_name, set_capex, set_opex, set_volume, set_horizon, set_discount = self._setters
        set_name(self, name)
        set_capex(self, capex)
        set_opex(self, opex)
        set_volume(self, volume)
        set_horizon(self, horizon)
        set_discount(self, discount)

    @property
    def capex_total(self) -> Money:
        """Raw (unamortized) sum of all CAPEX items."""
        return Money(sum(item.amount.amount for item in self.capex))


class LcoaiResult(Value):
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

    __slots__ = ("scenario_name", "total_capex_charged", "total_opex", "total_inferences",
                 "per_inference", "per_thousand", "discounted", "exact_per_inference",
                 "short_horizon_discounted")
    _hidden = ("exact_per_inference",)

    def __init__(self, scenario_name: str, total_capex_charged: Money, total_opex: Money,
                 total_inferences: int, per_inference: PerInferenceRate, per_thousand: Money,
                 discounted: bool, exact_per_inference: Fraction,
                 short_horizon_discounted: bool = False):
        self._set_fields(scenario_name, total_capex_charged, total_opex, total_inferences,
                         per_inference, per_thousand, discounted, exact_per_inference,
                         short_horizon_discounted)


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
                cum = _round_div(micro * covered, life)
                charges[p - 1] += cum - prev
                prev = cum
    return [Money(c) for c in charges]


def _rescaled(per_period: tuple, total: int) -> tuple:
    """Per-period counts of the same shape summing to ``total`` exactly:
    proportional, with cumulative rounding down. A projection that totals
    zero is spread uniformly."""
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


# _root_power scales the power by 10^_ROOT_SCALE, so that its floor keeps at
# least ten digits past the 50 it rounds to (the power is at least 1)
_ROOT_SCALE = _POWER_DIGITS + 10


def discount_factor(policy: DiscountPolicy, period_index: int,
                    period_length_months: int = 12) -> Fraction:
    """Present-value factor for one period's cash flows.

    Periods are indexed from 1; the factor is 1/(1+annual_rate)^y with
    y = period_index * period_length_months / 12. Period 0 is commissioning
    time and always carries factor 1 (capital is charged there).

    What "exact" means here: a whole-year exponent gives the exact rational
    power. A non-integral exponent n/k (a period grid that misses year
    boundaries, such as quarters or months) raises b, 1+annual_rate rounded
    half-even to 50 significant digits, to n/k and rounds that power
    correctly, half-even, to 50 significant digits (:func:`_root_power`);
    the factor is the exact Fraction of 1 over the rounded power, so results
    stay deterministic. Every decimal step runs in one fixed context,
    whatever the caller's. Every result downstream is the exact
    rational that follows from these factors; :class:`CompiledScenario`
    only rearranges the sums over them and yields the same rational.
    """
    if period_index < 0:
        raise ValueError("period_index starts at 0 (commissioning)")
    if not policy.is_discounting or period_index == 0:
        return Fraction(1)
    years = Fraction(period_index * period_length_months, 12)
    base = 1 + policy.annual_rate
    n, k = years.numerator, years.denominator
    if k == 1:
        return Fraction(1) / base ** n
    b = _DECIMAL_CONTEXT.divide(Decimal(base.numerator), Decimal(base.denominator))
    return Fraction(10**_ROOT_SCALE, _root_power(*b.as_integer_ratio(), n, k))


def _root_power(bn: int, bd: int, n: int, k: int) -> int:
    """(bn/bd)^(n/k) * 10^_ROOT_SCALE for k dividing 12 and bn >= bd > 0,
    with the power rounded half-even to 50 significant digits.

    The scaled root of the exact ratio bn^n/bd^n is floored by integer roots
    of the floored quotient, one square root per factor 2 of k and one cube
    root if 3 divides k; the steps compose, as the floor of a root of a floor
    is the floor of the root. The 50 leading digits of that floor are then
    rounded, and the one case its digits leave open (a remainder of exactly
    half) is settled by comparing exact integers.
    """
    num, den = bn**n, bd**n
    scaled = num * 10**(k * _ROOT_SCALE)
    root = scaled // den
    if k % 2 == 0:
        root = math.isqrt(root)
    if k % 4 == 0:
        root = math.isqrt(root)
    if k % 3 == 0:
        root = _icbrt(root)
    # Decimal(root) counts digits without str(), so the interpreter's
    # integer-string limit plays no part
    unit = 10**(Decimal(root).adjusted() + 1 - _POWER_DIGITS)
    q, rest = divmod(root, unit)
    half = unit // 2
    if rest > half or rest == half and (q & 1 or root**k * den != scaled):
        q += 1
    return q * unit


def _icbrt(x: int) -> int:
    """Floor of the cube root of ``x > 0``: Newton's iteration, which from a
    start above the root decreases until it reaches the floor."""
    root = 1 << -(-x.bit_length() // 3)
    while True:
        step = (2 * root + x // (root * root)) // 3
        if step >= root:
            return root
        root = step


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
    keeps its volumes computes the terms once. :meth:`terms_at` gives the
    terms of the projection rescaled to a new total, in O(1) when every
    weight is equal. Instances are never mutated after construction.
    """

    __slots__ = ("scenario", "volumes", "rate", "capex", "fixed", "scale", "weights",
                 "weight_sum", "equal_weights", "discounts_denominator")

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
        self.equal_weights = self.weights.count(self.weights[0]) == len(self.weights)
        self.discounts_denominator = policy.is_discounting and policy.discount_denominator

    def capex_scaled(self, p: int, q: int = 1) -> int:
        """Charged CAPEX with every item amount scaled by ``p / q > 0`` and
        rounded per item, as :meth:`Money.scaled` rounds; ``p = q`` gives the
        total of the :func:`amortize_capex` stream."""
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
        return self._terms(sum(map(mul, self.weights, volumes)), sum(volumes))

    def terms_at(self, total: int) -> tuple:
        """:meth:`volume_terms` of the projection rescaled to ``total``
        inferences (:func:`_rescaled`). When every weight is equal (no
        discounting, or one period) the weighted volume is that weight times
        ``total``, since the rescaled volumes sum to ``total`` exactly, so a
        point costs O(1) whatever the period count."""
        if self.equal_weights:
            return self._terms(self.weights[0] * total, total)
        return self.volume_terms(_rescaled(self.volumes, total))

    def _terms(self, weighted: int, volume: int) -> tuple:
        denominator = weighted if self.discounts_denominator else self.scale * volume
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
    numerator, denominator, total_opex, rate = kernel.combine(
        kernel.volume_terms(kernel.volumes), kernel.rate, kernel.capex)
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

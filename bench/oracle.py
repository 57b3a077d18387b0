"""Expected outputs, computed without importing the package under test.

Everything here works from the generator's own scenario specs (plain integer
micro-dollars) and re-derives each documented rule from the README and the
docstrings: round half away from zero at micro-dollar granularity, capital
charged as an undiscounted commissioning lump, per-period OPEX discounted by
1/(1+r)^years, and the cent/4-decimal rendering of the CLI.

Single-period undiscounted scenarios use integer closed forms. Discounted
scenarios use this module's levelized formula over a precomputed discount
vector. A bisection break-even result is confirmed at V-1 and V rather than
searched for.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Optional, Tuple, Union

MICRO = 10**6
SEARCH_MAX = 10**9  # the CLI's default --search-max
TABLE_COLUMNS = (
    "Scenario",
    "CAPEX (USD)",
    "OPEX per Inference (USD)",
    "Annual Inference Volume",
    "Total OPEX (USD)",
    "LCOAI ($/1,000 Inferences)",
)


@dataclass(frozen=True)
class Spec:
    """A generated scenario, in integer micro-dollars.

    ``capex`` holds ``(label, micro, life)`` triples where ``life`` is a month
    count or ``"horizon"``. ``wacc`` is the annual rate as a decimal string,
    or ``None`` for no discounting.
    """

    name: str
    capex: Tuple[Tuple[str, int, Union[int, str]], ...]
    rate: int
    fixed: int
    volumes: Tuple[int, ...]
    period_months: int = 12
    wacc: Optional[str] = None
    discount_denominator: bool = False

    @property
    def months(self) -> int:
        return len(self.volumes) * self.period_months

    def to_json(self) -> dict:
        entry = {
            "name": self.name,
            "capex": [{"label": label, "amount_usd": usd_text(micro),
                       "asset_life_months": life}
                      for label, micro, life in self.capex],
            "opex": {"per_inference_usd": usd_text(self.rate),
                     "fixed_per_period_usd": usd_text(self.fixed)},
            "volume": {"per_period": list(self.volumes)},
            "horizon": {"periods": len(self.volumes),
                        "period_length_months": self.period_months},
        }
        if self.wacc is not None:
            entry["discount"] = {"mode": "wacc", "annual_rate": self.wacc,
                                 "discount_denominator": self.discount_denominator}
        return entry


def usd_text(micro: int) -> str:
    """Decimal USD text for a non-negative micro-dollar count."""
    whole, frac = divmod(micro, MICRO)
    return f"{whole}.{frac:06d}".rstrip("0").rstrip(".")


def half_away(x: Fraction) -> int:
    """Nearest integer, halves away from zero."""
    x = Fraction(x)
    mag = (2 * abs(x.numerator) + x.denominator) // (2 * x.denominator)
    return mag if x >= 0 else -mag


# --------------------------------------------------------------------------
# rendering, as documented for the CLI

def money(micro: int, decimals: int = 2, symbol: bool = True) -> str:
    scaled = half_away(Fraction(micro, 10 ** (6 - decimals)))
    whole, frac = divmod(abs(scaled), 10**decimals)
    sign = "-" if scaled < 0 else ""
    if symbol:
        return f"{sign}${whole:,}.{frac:0{decimals}d}"
    return f"{sign}{whole}.{frac:0{decimals}d}"


def percent(ratio: Fraction) -> str:
    hundredths = half_away(ratio * 10000)
    whole, frac = divmod(abs(hundredths), 100)
    return ("-" if hundredths < 0 else "") + f"{whole}.{frac:02d}%"


# --------------------------------------------------------------------------
# the levelized cost

def charged_capex(spec: Spec, scale: Fraction = Fraction(1)) -> int:
    """Capital charged within the horizon; items scaled first when asked."""
    total = 0
    for _, micro, life in spec.capex:
        micro = half_away(micro * scale) if scale != 1 else micro
        if life == "horizon" or life < spec.months:
            total += micro  # a life within the horizon is charged in full
        else:
            total += half_away(Fraction(micro * spec.months, life))
    return total


_DISCOUNT_CACHE: dict = {}


def discount_vector(spec: Spec) -> Tuple[Fraction, ...]:
    """Factors for periods 1..n: 1/(1+r)^(t*months/12).

    Whole-year exponents are exact; others are the exact value of the 50-digit
    decimal power, which is how the documented policy defines them.
    """
    periods = len(spec.volumes)
    if spec.wacc is None or Decimal(spec.wacc) == 0:
        return (Fraction(1),) * periods
    key = (spec.wacc, spec.period_months, periods)
    if key not in _DISCOUNT_CACHE:
        base = 1 + Decimal(spec.wacc)
        factors = []
        for t in range(1, periods + 1):
            years = Fraction(t * spec.period_months, 12)
            if years.denominator == 1:
                factors.append(1 / Fraction(base) ** years.numerator)
            else:
                with localcontext() as ctx:
                    ctx.prec = 50
                    power = base ** (Decimal(years.numerator) / Decimal(years.denominator))
                factors.append(1 / Fraction(power))
        _DISCOUNT_CACHE[key] = tuple(factors)
    return _DISCOUNT_CACHE[key]


def rescaled(volumes: Tuple[int, ...], total: int) -> Tuple[int, ...]:
    """Per-period volumes keeping the projection's shape and summing to total."""
    if len(volumes) == 1:
        return (total,)
    weight = sum(volumes)
    shares = volumes if weight else (1,) * len(volumes)
    weight = weight or len(volumes)
    out, prev, cum = [], 0, 0
    for w in shares:
        cum += w
        target = total * cum // weight
        out.append(target - prev)
        prev = target
    return tuple(out)


@dataclass(frozen=True)
class Levelized:
    capex: int
    total_opex: int
    inferences: int
    per_inference: int
    exact: Fraction

    @property
    def per_thousand(self) -> int:
        return self.per_inference * 1000


def levelized(spec: Spec, volumes: Optional[Tuple[int, ...]] = None,
              rate: Optional[int] = None, capex_scale: Fraction = Fraction(1)) -> Levelized:
    volumes = spec.volumes if volumes is None else volumes
    rate = spec.rate if rate is None else rate
    capex = charged_capex(spec, capex_scale)
    inferences = sum(volumes)
    if spec.wacc is None and len(volumes) == 1:
        opex = spec.fixed + rate * inferences
        numerator = capex + opex
        per = (2 * numerator + inferences) // (2 * inferences)
        return Levelized(capex, opex, inferences, per, Fraction(numerator, inferences))
    factors = discount_vector(spec)
    opex_exact = sum(d * (spec.fixed + rate * v) for d, v in zip(factors, volumes))
    total_opex = half_away(opex_exact)
    if spec.wacc is not None and spec.discount_denominator:
        denominator = sum(d * v for d, v in zip(factors, volumes))
    else:
        denominator = Fraction(inferences)
    per = half_away((capex + total_opex) / denominator)
    return Levelized(capex, total_opex, inferences, per, (capex + opex_exact) / denominator)


# --------------------------------------------------------------------------
# expected CLI output per command

def compute_text(spec: Spec) -> str:
    r = levelized(spec)
    lines = [
        f"scenario: {spec.name}",
        f"capex charged: {money(r.capex)}",
        f"total opex: {money(r.total_opex)}",
        f"valid inferences: {r.inferences:,}",
        f"per inference: {money(r.per_inference, 4)}",
        f"LCOAI: {money(r.per_thousand)} per 1,000 inferences",
    ]
    if spec.wacc is not None:
        lines.append("discounted: yes")
        if spec.months <= 24:
            lines.append("note: discounting applied to a horizon of 24 months or less")
    return "\n".join(lines) + "\n"


def table_text(specs, fmt: str) -> str:
    rows = []
    for spec in specs:
        r = levelized(spec)
        raw_capex = sum(micro for _, micro, _ in spec.capex)
        rows.append(((r.per_thousand, raw_capex, spec.name),
                     (spec.name, money(raw_capex), money(spec.rate, 4),
                      f"{r.inferences:,}", money(r.total_opex), money(r.per_thousand))))
    rows.sort(key=lambda row: row[0])
    cells = [cells for _, cells in rows]
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\r\n")
        writer.writerow(TABLE_COLUMNS)
        writer.writerows(cells)
        return buf.getvalue()

    def line(row):
        return "| " + " | ".join(c.replace("|", "\\|") for c in row) + " |"
    return "\n".join([line(TABLE_COLUMNS), line(["---"] * 6)] + [line(c) for c in cells]) + "\n"


def baseline_text(spec: Spec, baseline_micro: int) -> str:
    lcoai = levelized(spec).per_thousand
    savings = baseline_micro - lcoai
    return (f"baseline: {money(baseline_micro)} per 1,000\n"
            f"LCOAI: {money(lcoai)} per 1,000\n"
            f"savings: {money(savings)} per 1,000 "
            f"({percent(Fraction(savings, baseline_micro))} of baseline)\n")


def finetune_text(base: int, tuned: int, capex: int) -> str:
    if tuned >= base:
        return "threshold: never (tuned rate is not lower than the base rate)\n"
    volume = capex // (base - tuned) + 1
    assert capex + tuned * volume < base * volume <= capex + tuned * volume + (base - tuned)
    return f"threshold: {volume:,} inferences\n"


def _crossing_text(volume: int, lo: Spec, hi: Spec) -> str:
    return (f"crossover: {volume:,} inferences\n"
            f"cheaper below: {lo.name}\n"
            f"cheaper at or above: {hi.name}\n")


def _dominated_text(winner: Spec, exhausted: bool) -> str:
    note = f"{winner.name} is cheaper at every volume"
    if exhausted:
        note += f" up to the search bound of {SEARCH_MAX:,}"
    return f"crossover: none ({note})\n"


def closed_form_breakeven_text(a: Spec, b: Spec) -> str:
    """Single period, undiscounted, no fixed OPEX: C + o*V compared exactly."""
    assert a.fixed == b.fixed == 0 and len(a.volumes) == len(b.volumes) == 1
    c_a, c_b = charged_capex(a), charged_capex(b)
    if c_a == c_b:
        return _dominated_text(a if a.rate <= b.rate else b, False)
    hi, lo = (a, b) if c_a > c_b else (b, a)
    c_hi, c_lo = max(c_a, c_b), min(c_a, c_b)
    if hi.rate >= lo.rate:
        return _dominated_text(lo, False)
    volume = (c_hi - c_lo) // (lo.rate - hi.rate) + 1
    if volume > SEARCH_MAX:
        return _dominated_text(lo, True)
    assert c_hi + hi.rate * volume < c_lo + lo.rate * volume
    assert c_hi + hi.rate * (volume - 1) >= c_lo + lo.rate * (volume - 1)
    return _crossing_text(volume, lo, hi)


def confirm_breakeven(a: Spec, b: Spec, output: str) -> bool:
    """Check a reported crossover V: the higher-capital scenario is not cheaper
    at V-1 and strictly cheaper at V, with each scenario rescaled to V."""
    hi, lo = (a, b) if charged_capex(a) > charged_capex(b) else (b, a)
    lines = output.splitlines()
    if len(lines) != 3 or not lines[0].startswith("crossover: "):
        return False
    try:
        volume = int(lines[0][len("crossover: "):].split(" ")[0].replace(",", ""))
    except ValueError:
        return False
    if not 1 < volume <= SEARCH_MAX or output != _crossing_text(volume, lo, hi):
        return False

    def diff(v: int) -> Fraction:
        return (levelized(hi, rescaled(hi.volumes, v)).exact
                - levelized(lo, rescaled(lo.volumes, v)).exact)
    return diff(volume - 1) >= 0 > diff(volume)


# --------------------------------------------------------------------------
# sweeps and tornado

def sweep_text(spec: Spec, parameter: str, start: str, stop: str, step: str) -> Tuple[str, int]:
    """Expected CSV series and its point count."""
    rows = [f"{parameter},lcoai_per_1000_usd"]
    if parameter == "volume":
        for v in range(int(start), int(stop) + 1, int(step)):
            vols = rescaled(spec.volumes, v)
            cost = "NA" if v == 0 else money(levelized(spec, vols).per_thousand, symbol=False)
            rows.append(f"{v},{cost}")
    elif parameter == "opex_rate":
        first, last, delta = (int(Decimal(x).scaleb(6)) for x in (start, stop, step))
        for rate in range(first, last + 1, delta):
            cost = money(levelized(spec, rate=rate).per_thousand, symbol=False)
            rows.append(f"{money(rate, 4, symbol=False)},{cost}")
    else:
        first, last, delta = Decimal(start), Decimal(stop), Decimal(step)
        k = first
        while k <= last:
            cost = money(levelized(spec, capex_scale=Fraction(k)).per_thousand, symbol=False)
            rows.append(f"{format(k.normalize(), 'f')},{cost}")
            k += delta
    return "\r\n".join(rows) + "\r\n", len(rows) - 1


def tornado_entries(spec: Spec, swing: Fraction) -> list:
    """(parameter, low, high) per-thousand micro-dollars, widest spread first."""
    def at(parameter: str, k: Fraction) -> int:
        if parameter == "capex":
            return levelized(spec, capex_scale=k).per_thousand
        if parameter == "opex_rate":
            return levelized(spec, rate=half_away(spec.rate * k)).per_thousand
        total = half_away(sum(spec.volumes) * k)
        return levelized(spec, rescaled(spec.volumes, total)).per_thousand

    entries = [(p, at(p, 1 - swing), at(p, 1 + swing))
               for p in ("capex", "opex_rate", "volume")]
    entries.sort(key=lambda e: (-abs(e[2] - e[1]), e[0]))
    return entries


# --------------------------------------------------------------------------
# telemetry

def ingest_text(tally: dict) -> str:
    text = (f"valid={tally['valid']} "
            f"excluded_nonproductive={tally['nonproductive']} "
            f"excluded_failed={tally['failed']} "
            f"out_of_range={tally['out_of_range']}\n")
    if tally["skipped"]:
        text += f"skipped_malformed={tally['skipped']}\n"
    buckets = tally["buckets"]
    if buckets:
        text += "period_buckets: " + " ".join(f"{k}:{buckets[k]}" for k in sorted(buckets)) + "\n"
    return text

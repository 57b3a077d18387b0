"""Command-line surface and report rendering.

Loads scenario configuration files (JSON, schema v1), dispatches to the
analysis modules, and emits cent-exact Markdown/CSV tables and plot-data
series. Exit codes: 0 success, 1 usage, 2 not found, 3 metric undefined,
4 parse error.
"""

from __future__ import annotations

import argparse
import csv
import decimal
import io
import json
import math
import sys
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence, Union

from .cost_core import (
    HORIZON_LIFE,
    CapexItem,
    CostScenario,
    DiscountPolicy,
    Horizon,
    Money,
    OpexModel,
    PerInferenceRate,
    VolumeProjection,
    _fixed_point,
    _round_div,
    compute_lcoai,
    decimal_places,
    decimal_ratio,
    decimal_text,
    round_half_away,
    usd_to_micro,
)
from .decision import baseline_savings, compare, fine_tune_threshold
from .errors import (
    FieldError,
    IncompatibleScenariosError,
    LogParseError,
    ScenarioFileError,
    UndefinedMetricError,
)
from .ingest import VolumeCount, count_valid, parse_log, parse_rfc3339
from .sensitivity import (
    DEFAULT_SEARCH_MAX,
    SWEEP_PARAMETERS,
    SweepResult,
    SweepSpec,
    break_even,
    sweep,
)

SCHEMA_VERSION = 1

# largest grid a sweep command will build
MAX_SWEEP_POINTS = 1_000_000

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NOT_FOUND = 2
EXIT_UNDEFINED = 3
EXIT_PARSE = 4

TABLE_COLUMNS = (
    "Scenario",
    "CAPEX (USD)",
    "OPEX per Inference (USD)",
    "Annual Inference Volume",
    "Total OPEX (USD)",
    "LCOAI ($/1,000 Inferences)",
)


# ---------------------------------------------------------------------------
# rendering helpers

def format_usd(money: Money, decimals: int = 2) -> str:
    """Render with a $ sign, thousands separators, and a fixed decimal count."""
    return _usd_fixed_point(money, decimals, "$", ",")


def format_rate(rate: PerInferenceRate) -> str:
    """Per-inference rates render with 4 decimals ($0.0048 style)."""
    return format_usd(Money(rate.rate), decimals=4)


def _usd_fixed_point(money: Money, decimals: int, prefix: str, group: str) -> str:
    if not 0 <= decimals <= 6:
        raise ValueError("decimals must be between 0 and 6")
    return _fixed_point(_round_div(money.amount, 10 ** (6 - decimals)), decimals, prefix, group)


def _format_percent(ratio: Fraction) -> str:
    return _fixed_point(round_half_away(ratio * 10000), 2) + "%"  # two decimals of a percentage


# ---------------------------------------------------------------------------
# tables

@dataclass(frozen=True, slots=True)
class ReportTable:
    """Rectangular cells plus a render format (markdown pipe table or CSV)."""

    columns: tuple
    rows: tuple
    format: str = "markdown"

    def __post_init__(self):
        columns = tuple(str(c) for c in self.columns)
        rows = tuple(tuple(str(c) for c in row) for row in self.rows)
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "rows", rows)
        if self.format not in ("markdown", "csv"):
            raise ValueError(f"unknown table format {self.format!r}")
        for row in rows:
            if len(row) != len(columns):
                raise ValueError("every row must have one cell per column")

    def render(self) -> str:
        if self.format == "csv":
            return _render_csv(self.columns, self.rows)
        return _render_markdown(self.columns, self.rows)


def _render_markdown(columns: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    def line(cells: Sequence[str]) -> str:
        return "| " + " | ".join(c.replace("|", "\\|") for c in cells) + " |"

    out = [line(columns), line(["---"] * len(columns))]
    out.extend(line(row) for row in rows)
    return "\n".join(out) + "\n"


def _render_csv(columns: Sequence[str], rows: Iterable[Sequence[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")  # RFC 4180 line endings
    writer.writerow(columns)
    writer.writerows(rows)
    return buf.getvalue()


def build_comparison_table(scenarios: Sequence[CostScenario],
                           fmt: str = "markdown") -> ReportTable:
    """The six-column comparison table, rows in ranking order."""
    rows = []
    if scenarios:
        for row in compare(scenarios):
            rows.append((
                row.scenario_name,
                format_usd(row.capex_total),
                format_rate(row.opex_rate),
                f"{row.volume:,}",
                format_usd(row.opex_total),
                format_usd(row.per_thousand),
            ))
    return ReportTable(TABLE_COLUMNS, tuple(rows), fmt)


def sweep_series_csv(result: SweepResult) -> str:
    """Two-column RFC 4180 CSV of a sweep series, ready for external plotting."""
    point_cell = _point_formatter(result.parameter, [point for point, _ in result.series])
    return _render_csv(
        (result.parameter, "lcoai_per_1000_usd"),
        ((point_cell(point), "NA" if cost is None else _fixed_point(_round_div(cost.amount, 10**4), 2))
         for point, cost in result.series))


def _point_formatter(parameter: str, points: Sequence) -> Callable:
    """The point-cell formatter of one series: volumes as integers, OPEX
    rates in USD to 4 decimals, multipliers as shortest exact decimals."""
    if parameter == "volume":
        return str
    if parameter == "opex_rate":
        return lambda point: _fixed_point(_round_div(point.rate, 100), 4)
    places = decimal_places(math.lcm(*(point.denominator for point in points)))
    if not places:  # all integers, or a point such as 1/3 with no exact decimal form
        return _multiplier_cell
    unit = 10**places
    # exact at the places of the series; dropping trailing zeros leaves each
    # point's shortest text, as decimal_text writes it
    return lambda point: _fixed_point(point.numerator * (unit // point.denominator),
                                      places).rstrip("0").rstrip(".")


def _multiplier_cell(point: Fraction) -> str:
    try:
        return decimal_text(point)
    except ValueError:
        return str(point)


# ---------------------------------------------------------------------------
# scenario files (JSON, schema v1)

def load_scenarios(path) -> list:
    """Load scenario definitions from a JSON file.

    Money is given as decimal-string USD and parsed exactly to micro-dollars;
    more than 6 fractional digits is a resolution error. Missing horizon and
    discount sections default to one 12-month period and no discounting.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ScenarioFileError("$", f"not valid JSON: {exc.msg} "
                                         f"(line {exc.lineno})") from exc
        except UnicodeDecodeError as exc:
            raise ScenarioFileError("$", "not valid UTF-8") from exc
        except (RecursionError, ValueError) as exc:  # too deep, or too many digits
            raise ScenarioFileError("$", f"not valid JSON: {exc}") from None
    return scenarios_from_dict(doc)


def scenarios_from_dict(doc) -> list:
    _require_dict(doc, "$")
    version = doc.get("version")
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ScenarioFileError(
            "version", f"unknown version {version!r} (expected {SCHEMA_VERSION})")
    scenarios = []
    seen = set()
    for i, entry in enumerate(_require_list(doc.get("scenarios"), "scenarios")):
        scenario = _scenario_from_dict(entry, f"scenarios[{i}]")
        if scenario.name in seen:
            raise ScenarioFileError(f"scenarios[{i}].name",
                                    f"duplicate scenario name {scenario.name!r}")
        seen.add(scenario.name)
        scenarios.append(scenario)
    return scenarios


def _require_dict(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ScenarioFileError(path, "must be an object")
    return value


def _require_list(value, path: str) -> list:
    if not isinstance(value, list):
        raise ScenarioFileError(path, "must be a list")
    return value


def _require_str(value, path: str) -> str:
    if not isinstance(value, str):
        raise ScenarioFileError(path, "must be a string")
    return value


def _parsed(obj: dict, key: str, parse, default=None):
    """``parse(obj[key])``, with a conversion error reported at ``key``."""
    raw = obj.get(key, default)
    try:
        if isinstance(raw, float):
            raise TypeError("write a decimal string, not a JSON float")
        return parse(raw)
    except (TypeError, ValueError) as exc:
        raise FieldError(key, str(exc)) from None


def _decimal_fraction(text: str) -> Fraction:
    """Exact value of finite decimal text such as "0.08" or "1.5", with an
    exponent in scientific notation within ±MAX_DECIMAL_EXPONENT."""
    if not isinstance(text, str):
        raise TypeError("must be a decimal string")
    try:
        value = Decimal(text)
    except decimal.InvalidOperation:
        raise ValueError(f"not a decimal value: {text!r}") from None
    return Fraction(*decimal_ratio(value))


def _scenario_from_dict(entry, path: str) -> CostScenario:
    """JSON shape checks here; the domain constructors validate every value."""
    entry = _require_dict(entry, path)
    name = _require_str(entry.get("name"), f"{path}.name")
    at = path  # the object being built; a FieldError names one of its fields
    try:
        capex = []
        for j, raw in enumerate(_require_list(entry.get("capex", []), f"{path}.capex")):
            at = f"{path}.capex[{j}]"
            raw = _require_dict(raw, at)
            capex.append(CapexItem(_require_str(raw.get("label"), f"{at}.label"),
                                   _parsed(raw, "amount_usd", Money.from_usd),
                                   raw.get("asset_life_months", HORIZON_LIFE)))
        at = f"{path}.opex"
        raw = _require_dict(entry.get("opex"), at)
        opex = OpexModel(_parsed(raw, "per_inference_usd", PerInferenceRate.from_usd),
                         _parsed(raw, "fixed_per_period_usd", Money.from_usd, 0))
        at = f"{path}.volume"
        raw = _require_dict(entry.get("volume"), at)
        volume = VolumeProjection(_require_list(raw.get("per_period"), f"{at}.per_period"))
        at = f"{path}.horizon"
        raw = _require_dict(entry.get("horizon", {}), at)
        horizon = Horizon(raw.get("periods", 1), raw.get("period_length_months", 12))
        at = f"{path}.discount"
        raw = _require_dict(entry.get("discount", {}), at)
        mode = raw.get("mode", "none")
        # a rate given alongside mode "none" is unused; normalize it away
        rate = _parsed(raw, "annual_rate", _decimal_fraction) if mode == "wacc" else None
        discount = DiscountPolicy(mode, rate, raw.get("discount_denominator", False))
        at = path
        return CostScenario(name, capex, opex, volume, horizon, discount)
    except ScenarioFileError:
        raise
    except FieldError as exc:
        raise ScenarioFileError(f"{at}.{exc.field}", exc.message) from None
    except (TypeError, ValueError) as exc:
        raise ScenarioFileError(at, str(exc)) from None


def scenarios_to_dict(scenarios: Iterable[CostScenario]) -> dict:
    return {
        "version": SCHEMA_VERSION,
        "scenarios": [_scenario_to_dict(s) for s in scenarios],
    }


def _scenario_to_dict(s: CostScenario) -> dict:
    discount = {
        "mode": s.discount.mode,
        "discount_denominator": s.discount.discount_denominator,
    }
    if s.discount.mode == "wacc":
        discount["annual_rate"] = decimal_text(s.discount.annual_rate)
    return {
        "name": s.name,
        "capex": [
            {
                "label": item.label,
                "amount_usd": item.amount.usd_string(),
                "asset_life_months": item.asset_life_months,
            }
            for item in s.capex
        ],
        "opex": {
            "per_inference_usd": s.opex.per_inference.usd_string(),
            "fixed_per_period_usd": s.opex.fixed_per_period.usd_string(),
        },
        "volume": {"per_period": list(s.volume.per_period)},
        "horizon": {
            "periods": s.horizon.periods,
            "period_length_months": s.horizon.period_length_months,
        },
        "discount": discount,
    }


def save_scenarios(path, scenarios: Iterable[CostScenario]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scenarios_to_dict(scenarios), fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# CLI

class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; this toolkit reserves 2 for not-found
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lcoai",
        description="Levelized cost analysis for AI deployment scenarios.",
    )
    parser.add_argument("--format", choices=("markdown", "csv"),
                        default="markdown", help="table output format")
    parser.add_argument("--strict", action="store_true",
                        help="abort on the first malformed telemetry line")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("compute", help="levelized cost of one scenario")
    p.add_argument("scenario_file")
    p.add_argument("name", help="scenario name inside the file")
    p.set_defaults(handler=_cmd_compute)

    p = sub.add_parser("table", help="comparison table of every scenario in a file")
    p.add_argument("scenario_file")
    p.set_defaults(handler=_cmd_table)

    p = sub.add_parser("sweep", help="one-parameter sensitivity series as CSV")
    p.add_argument("scenario_file")
    p.add_argument("name")
    p.add_argument("parameter", choices=SWEEP_PARAMETERS)
    p.add_argument("--start", required=True, help="first grid value")
    p.add_argument("--stop", required=True, help="last grid value (inclusive)")
    p.add_argument("--step", required=True, help="grid spacing")
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("breakeven", help="crossover volume between two scenarios")
    p.add_argument("scenario_file")
    p.add_argument("name_a")
    p.add_argument("name_b")
    p.add_argument("--search-max", type=int, default=DEFAULT_SEARCH_MAX,
                   help="largest volume to consider")
    p.set_defaults(handler=_cmd_breakeven)

    p = sub.add_parser("finetune", help="volume at which a tuned rate pays off")
    p.add_argument("--base", required=True, help="base per-inference rate, USD")
    p.add_argument("--tuned", required=True, help="tuned per-inference rate, USD")
    p.add_argument("--capex", required=True, help="tuning investment, USD")
    p.set_defaults(handler=_cmd_finetune)

    p = sub.add_parser("baseline", help="savings against a non-AI cost baseline")
    p.add_argument("scenario_file")
    p.add_argument("name")
    p.add_argument("--baseline", required=True,
                   help="baseline cost per 1,000 units, USD")
    p.set_defaults(handler=_cmd_baseline)

    p = sub.add_parser("ingest", help="count valid inferences in a telemetry log")
    p.add_argument("logfile", help="JSONL telemetry path, or - for stdin")
    p.add_argument("--start", help="horizon start (RFC 3339); default: earliest record")
    p.add_argument("--periods", type=int, default=1)
    p.add_argument("--period-months", type=int, default=12)
    p.add_argument("--include-failed", action="store_true",
                   help="count errored inferences as valid output")
    p.set_defaults(handler=_cmd_ingest)

    return parser


def _pick(scenarios: Sequence[CostScenario], name: str) -> CostScenario:
    for scenario in scenarios:
        if scenario.name == name:
            return scenario
    raise LookupError(name)


def _cmd_compute(args) -> int:
    scenario = _pick(load_scenarios(args.scenario_file), args.name)
    result = compute_lcoai(scenario)
    print(f"scenario: {result.scenario_name}")
    print(f"capex charged: {format_usd(result.total_capex_charged)}")
    print(f"total opex: {format_usd(result.total_opex)}")
    print(f"valid inferences: {result.total_inferences:,}")
    print(f"per inference: {format_rate(result.per_inference)}")
    print(f"LCOAI: {format_usd(result.per_thousand)} per 1,000 inferences")
    if result.discounted:
        print("discounted: yes")
        if result.short_horizon_discounted:
            print("note: discounting applied to a horizon of 24 months or less")
    return EXIT_OK


def _cmd_table(args) -> int:
    scenarios = load_scenarios(args.scenario_file)
    table = build_comparison_table(scenarios, fmt=args.format)
    print(table.render(), end="")
    return EXIT_OK


def _sweep_points(parameter: str, start: str, stop: str, step: str) -> list:
    if parameter == "volume":
        first, last, delta = int(start), int(stop), int(step)
    elif parameter == "opex_rate":
        first, last, delta = (usd_to_micro(v) for v in (start, stop, step))
    else:
        first, last, delta = (_decimal_fraction(v) for v in (start, stop, step))
    if delta <= 0:
        raise ValueError("step must be positive")
    if last < first:
        raise ValueError("stop must be at least start")
    count = (last - first) // delta + 1
    if count > MAX_SWEEP_POINTS:
        raise ValueError(f"the grid has {count:,} points; the limit is {MAX_SWEEP_POINTS:,}")
    if parameter == "volume":
        return list(range(first, first + count * delta, delta))
    if parameter == "opex_rate":
        return [PerInferenceRate(p) for p in range(first, first + count * delta, delta)]
    # numerators over one common denominator q: start + k * step = (n0 + k * dn) / q
    q = math.lcm(first.denominator, delta.denominator)
    n0, dn = first.numerator * (q // first.denominator), delta.numerator * (q // delta.denominator)
    return [Fraction(n, q) for n in range(n0, n0 + count * dn, dn)]


def _cmd_sweep(args) -> int:
    scenario = _pick(load_scenarios(args.scenario_file), args.name)
    points = _sweep_points(args.parameter, args.start, args.stop, args.step)
    result = sweep(scenario, SweepSpec(args.parameter, tuple(points)))
    print(sweep_series_csv(result), end="")
    return EXIT_OK


def _cmd_breakeven(args) -> int:
    scenarios = load_scenarios(args.scenario_file)
    a = _pick(scenarios, args.name_a)
    b = _pick(scenarios, args.name_b)
    result = break_even(a, b, args.search_max)
    if result.crossover_volume is None:
        note = f"{result.cheaper_below} is cheaper at every volume"
        if result.search_exhausted:
            note += f" up to the search bound of {args.search_max:,}"
        print(f"crossover: none ({note})")
    else:
        print(f"crossover: {result.crossover_volume:,} inferences")
        print(f"cheaper below: {result.cheaper_below}")
        print(f"cheaper at or above: {result.cheaper_above}")
    return EXIT_OK


def _cmd_finetune(args) -> int:
    decision = fine_tune_threshold(
        PerInferenceRate.from_usd(args.base),
        PerInferenceRate.from_usd(args.tuned),
        Money.from_usd(args.capex),
    )
    if decision.threshold_volume is None:
        print("threshold: never (tuned rate is not lower than the base rate)")
    else:
        print(f"threshold: {decision.threshold_volume:,} inferences")
    return EXIT_OK


def _cmd_baseline(args) -> int:
    scenario = _pick(load_scenarios(args.scenario_file), args.name)
    result = compute_lcoai(scenario)
    comparison = baseline_savings(result, Money.from_usd(args.baseline))
    print(f"baseline: {format_usd(comparison.baseline_cost_per_thousand)} per 1,000")
    print(f"LCOAI: {format_usd(comparison.lcoai_per_thousand)} per 1,000")
    savings = format_usd(comparison.savings_per_thousand)
    if comparison.savings_ratio is None:
        print(f"savings: {savings} per 1,000")
    else:
        print(f"savings: {savings} per 1,000 "
              f"({_format_percent(comparison.savings_ratio)} of baseline)")
    return EXIT_OK


def _cmd_ingest(args) -> int:
    if args.logfile == "-":
        parsed = parse_log(sys.stdin.buffer, strict=args.strict)
    else:
        with open(args.logfile, "rb") as fh:
            parsed = parse_log(fh, strict=args.strict)
    horizon = Horizon(args.periods, args.period_months)
    if args.start:
        start = parse_rfc3339(args.start)
    elif parsed.records:
        start = min(r.timestamp for r in parsed.records)
    else:
        start = None
    if start is None:
        counts = VolumeCount(0, 0, 0, 0, {})
    else:
        counts = count_valid(parsed.records, horizon, start,
                             include_failed=args.include_failed)
    print(f"valid={counts.valid} "
          f"excluded_nonproductive={counts.excluded_nonproductive} "
          f"excluded_failed={counts.excluded_failed} "
          f"out_of_range={counts.out_of_range}")
    if parsed.skipped:
        print(f"skipped_malformed={len(parsed.skipped)}")
    if counts.period_buckets:
        cells = " ".join(f"{k}:{v}" for k, v in sorted(counts.period_buckets.items()))
        print(f"period_buckets: {cells}")
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.handler(args)
    except (ScenarioFileError, LogParseError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_PARSE
    except UndefinedMetricError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_UNDEFINED
    except LookupError as err:
        print(f"error: scenario {err.args[0]!r} not found", file=sys.stderr)
        return EXIT_NOT_FOUND
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NOT_FOUND
    except (IncompatibleScenariosError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

"""Command-line surface and report rendering.

Loads scenario configuration files (JSON, schema v1, read by
:mod:`lcoai.schema`), dispatches to the analysis modules, and emits
cent-exact Markdown/CSV tables and plot-data series. Exit codes: 0 success,
1 usage, 2 not found, 3 metric undefined, 4 parse error.
"""

from __future__ import annotations

import argparse
import csv
import gc
import io
import math
import os
import sys
from fractions import Fraction
from functools import cache
from itertools import chain, islice
from typing import Iterable, Iterator, Optional, Sequence

from ._value import Value
# Every analysis module is imported here, not in the handler that uses it:
# bench/tracing.py looks each of them up in sys.modules once this module is
# imported.
from .cost_core import (
    CompiledScenario,
    CostScenario,
    Horizon,
    Money,
    PerInferenceRate,
    _echo,
    _fixed_point,
    _round_div,
    bounded_places,
    compute_lcoai,
    decimal_places,
    decimal_text,
    exact_ratio,
    round_half_away,
    usd_to_micro,
)
from .decision import baseline_savings, compare, fine_tune_threshold
from .errors import (
    IncompatibleScenariosError,
    LogParseError,
    ScenarioFileError,
    UndefinedMetricError,
)
from .ingest import VolumeCount, count_valid, parse_log, parse_rfc3339
# the commands call load_scenarios by this module's name, which is where
# bench/tracing.py times a load
from .schema import load_scenarios
from .sensitivity import (
    DEFAULT_SEARCH_MAX,
    SWEEP_PARAMETERS,
    SweepResult,
    SweepSpec,
    _raw_points,
    _series,
    break_even,
    checked_search_max,
)

# largest grid a sweep command will build
MAX_SWEEP_POINTS = 1_000_000

# lines a sweep command renders and writes at a time
SWEEP_CHUNK_ROWS = 4_096

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NOT_FOUND = 2
EXIT_UNDEFINED = 3
EXIT_PARSE = 4
# what a shell reports for a writer killed by SIGPIPE (128 + 13)
EXIT_BROKEN_PIPE = 141

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

def format_usd(money: Money) -> str:
    """Render with a $ sign, thousands separators and cents ("$1,234.57"),
    rounded half away from zero."""
    return _usd_text(money.amount, 2)


def _usd_text(micro: int, decimals: int) -> str:
    """``micro`` micro-dollars as "$1,234.57" text with ``decimals`` (0-6)
    places, rounded half away from zero."""
    return _fixed_point(_round_div(micro, 10 ** (6 - decimals)), decimals, "$", ",")


def _format_percent(ratio: Fraction) -> str:
    return _fixed_point(round_half_away(ratio * 10000), 2) + "%"  # two decimals of a percentage


# ---------------------------------------------------------------------------
# tables

class ReportTable(Value):
    """Rectangular cells plus a render format (markdown pipe table or CSV)."""

    __slots__ = ("columns", "rows", "format")

    def __init__(self, columns: tuple, rows: tuple, format: str = "markdown"):
        columns = tuple(str(c) for c in columns)
        rows = tuple(tuple(map(str, row)) for row in rows)
        if format not in ("markdown", "csv"):
            raise ValueError(f"unknown table format {format!r}")
        for row in rows:
            if len(row) != len(columns):
                raise ValueError("every row must have one cell per column")
        self._set_fields(columns, rows, format)

    def render(self) -> str:
        if self.format == "csv":
            return _render_csv(self.columns, self.rows)
        return _render_markdown(self.columns, self.rows)


def _markdown_cell(text: str) -> str:
    """``\\`` and ``|`` escaped with a backslash, each line break (CR, LF or
    CRLF) written as ``<br>``, so the cell stays on its row."""
    text = text.replace("\\", "\\\\").replace("|", "\\|")
    return text.replace("\r\n", "<br>").replace("\r", "<br>").replace("\n", "<br>")


def _render_markdown(columns: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    lines = [columns, ["---"] * len(columns), *rows]
    # few tables need escaping, so one scan over all cells decides it
    text = "".join(chain.from_iterable(lines))
    if any(special in text for special in "\\|\r\n"):
        lines = [[_markdown_cell(c) for c in cells] for cells in lines]
    return "".join(f"| {' | '.join(cells)} |\n" for cells in lines)


def _render_csv(columns: Sequence[str], rows: Iterable[Sequence[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")  # RFC 4180 line endings
    writer.writerow(columns)
    writer.writerows(rows)
    return buf.getvalue()


def build_comparison_table(scenarios: Iterable[CostScenario],
                           fmt: str = "markdown") -> ReportTable:
    """The six-column comparison table, rows in ranking order."""
    scenarios = tuple(scenarios)
    ranked = compare(scenarios) if scenarios else ()
    return ReportTable(TABLE_COLUMNS, ((
        row.scenario_name,
        _usd_text(row.capex_total.amount, 2),
        _usd_text(row.opex_rate.rate, 4),
        f"{row.volume:,}",
        _usd_text(row.opex_total.amount, 2),
        _usd_text(row.per_thousand.amount, 2),
    ) for row in ranked), fmt)


def sweep_series_csv(result: SweepResult) -> str:
    """Two-column RFC 4180 CSV of a sweep series, ready for external plotting."""
    points, q = _raw_points(result.parameter, tuple(point for point, _ in result.series))
    costs = (None if cost is None else cost.amount for _, cost in result.series)
    return "".join(_series_lines(result.parameter, _point_cells(result.parameter, points, q),
                                 costs))


def _series_lines(parameter: str, cells: Iterable[str], costs: Iterable) -> Iterator[str]:
    """The CSV lines of a sweep series: the header, then each point cell with
    its cost per 1,000 (micro-dollars) in USD to the cent, or NA where it is
    undefined. No cell needs quoting, so every line is written directly."""
    yield f"{parameter},lcoai_per_1000_usd\r\n"
    for cell, cost in zip(cells, costs):
        if cost is None:
            yield f"{cell},NA\r\n"
        else:
            yield f"{cell},{_fixed_point(_round_div(cost, 10**4), 2)}\r\n"


def _point_cells(parameter: str, points: Iterable[int], q: int) -> Iterator[str]:
    """The point cells of one series, from the integers
    :func:`~lcoai.sensitivity._series` reads: volumes as integers, OPEX rates
    in USD to 4 decimals, multipliers (numerators over ``q``) as shortest
    exact decimals, or as fractions when the series has no exact decimal
    form."""
    if parameter == "volume":
        return map(str, points)
    if parameter == "opex_rate":
        return (_fixed_point(_round_div(point, 100), 4) for point in points)
    places = decimal_places(q)
    if places is None:  # a point such as 1/3 has no exact decimal form
        return (_multiplier_cell(Fraction(point, q)) for point in points)
    if not places:
        return map(str, points)
    unit = 10**places // q
    # exact at the places of the series; dropping trailing zeros leaves each
    # point's shortest text, as decimal_text writes it
    return (_fixed_point(point * unit, places).rstrip("0").rstrip(".") for point in points)


def _multiplier_cell(point: Fraction) -> str:
    try:
        return decimal_text(point)
    except ValueError:
        return str(point)


# ---------------------------------------------------------------------------
# CLI

class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; this toolkit reserves 2 for not-found
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")

    def print_help(self, file=None):
        # argparse drops a failed write of the help text; main() reports it
        (sys.stdout if file is None else file).write(self.format_help())


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lcoai",
        description="Levelized cost analysis for AI deployment scenarios.",
        epilog="A scenario name that starts with '-' goes after '--', with every option "
               "before it: lcoai sweep FILE --start 1 --stop 2 --step 1 -- -a_1 volume",
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
    p.add_argument("--search-max", default=str(DEFAULT_SEARCH_MAX),
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
    p.add_argument("--periods", default="1")
    p.add_argument("--period-months", default="12")
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
    print(f"per inference: {_usd_text(result.per_inference.rate, 4)}")
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


def _whole(text: str) -> int:
    """A whole number of the command line, read by
    :func:`~lcoai.cost_core.exact_ratio`: "1e3" and "1000.0" read as 1000,
    and "1.5" raises ``ValueError``."""
    numerator, denominator = exact_ratio(text)
    if denominator != 1:
        raise ValueError(f"not a whole number: {_echo(text)!r}")
    return numerator


def _sweep_grid(parameter: str, start: str, stop: str, step: str) -> tuple:
    """``(points, q)``: the grid start, start + step, ... up to stop as a
    range of the integers :func:`~lcoai.sensitivity._series` reads (volumes,
    micro-dollar rates, or multiplier numerators over ``q``). Every check
    runs before any point is built."""
    if parameter == "volume":
        first, last, delta = map(_whole, (start, stop, step))
    elif parameter == "opex_rate":
        first, last, delta = map(usd_to_micro, (start, stop, step))
    else:  # bounded before any grid point is built
        first, last, delta = map(bounded_places, (start, stop, step))
    if delta <= 0:
        raise ValueError("step must be positive")
    if last < first:
        raise ValueError("stop must be at least start")
    count = (last - first) // delta + 1
    if count > MAX_SWEEP_POINTS:
        raise ValueError(f"the grid has {count:,} points; the limit is {MAX_SWEEP_POINTS:,}")
    # the library's own rules check the first point; the others only grow
    SweepSpec(parameter, (PerInferenceRate(first) if parameter == "opex_rate" else first,))
    q = 1
    if parameter == "capex_multiplier":
        # numerators over one common denominator q: start + k * step = (n0 + k * dn) / q
        q = math.lcm(first.denominator, delta.denominator)
        first, delta = (first.numerator * (q // first.denominator),
                        delta.numerator * (q // delta.denominator))
    return range(first, first + count * delta, delta), q


def _cmd_sweep(args) -> int:
    scenario = _pick(load_scenarios(args.scenario_file), args.name)
    parameter = args.parameter
    points, q = _sweep_grid(parameter, args.start, args.stop, args.step)
    costs = _series(CompiledScenario(scenario), parameter, points, q)
    lines = _series_lines(parameter, _point_cells(parameter, points, q),
                          (None if cost is None else cost * 1000 for cost in costs))
    # written a chunk at a time, so memory stays flat in the point count
    write = sys.stdout.write
    write(next(lines))  # the header
    for _ in range(0, len(points), SWEEP_CHUNK_ROWS):
        write("".join(islice(lines, SWEEP_CHUNK_ROWS)))
    return EXIT_OK


def _cmd_breakeven(args) -> int:
    search_max = checked_search_max(_whole(args.search_max))
    scenarios = load_scenarios(args.scenario_file)
    a = _pick(scenarios, args.name_a)
    b = _pick(scenarios, args.name_b)
    result = break_even(a, b, search_max)
    if result.crossover_volume is None:
        note = f"{result.cheaper_below} is cheaper at every volume"
        if result.search_exhausted:
            note += f" up to the search bound of {search_max:,}"
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
    # every option is checked before the log is opened
    horizon = Horizon(_whole(args.periods), _whole(args.period_months))
    start = parse_rfc3339(args.start) if args.start else None
    if args.logfile == "-":
        parsed = parse_log(sys.stdin.buffer, strict=args.strict)
    else:
        with open(args.logfile, "rb") as fh:
            parsed = parse_log(fh, strict=args.strict)
    if start is None:
        start = min((r.timestamp for r in parsed.records), default=None)
    counts = (count_valid(parsed.records, horizon, start, include_failed=args.include_failed)
              if start is not None else VolumeCount(0, 0, 0, 0, {}))
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


def _discard_stdout() -> None:
    """Point stdout's file descriptor at :data:`os.devnull`, so that the
    interpreter's final flush of what is still buffered writes nowhere
    instead of failing again."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):  # no descriptor behind it
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


@cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser every :func:`main` call in a process uses: built once, as
    ``parse_args`` reads it without changing it."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one ``lcoai`` command and return its exit code.

    The cyclic garbage collector is paused for the whole call (parsing, the
    command and the final flush), and a ``finally`` sets it back as the
    caller had it: on again if it was on, never on if the caller had turned
    it off. No command leaves cyclic garbage, so the pause frees nothing
    later than a collection would. It saves the collector's repeated passes
    over the objects a command keeps alive: a ``table`` of 2,000 scenarios
    ran some 70 collections without it. Library functions leave the
    collector to their caller.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if enabled:
            gc.enable()


def _run(argv: Optional[Sequence[str]]) -> int:
    parser = _shared_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:  # after --help, or a usage error
            status = exc.code if isinstance(exc.code, int) else EXIT_USAGE
        else:
            status = args.handler(args)
        sys.stdout.flush()  # a failed write shows here, not at interpreter exit
        return status
    except (ScenarioFileError, LogParseError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_PARSE
    except UndefinedMetricError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_UNDEFINED
    except LookupError as err:
        print(f"error: scenario {err.args[0]!r} not found", file=sys.stderr)
        return EXIT_NOT_FOUND
    except BrokenPipeError:  # the reader closed the pipe: end quietly
        _discard_stdout()
        return EXIT_BROKEN_PIPE
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        if err.filename is not None:  # open() names the file it could not read
            return EXIT_NOT_FOUND
        _discard_stdout()  # a failed write: what is still buffered would fail again
        return EXIT_USAGE
    except (IncompatibleScenariosError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE

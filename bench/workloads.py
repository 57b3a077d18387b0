"""Seeded workload generators and the fixed request stream of each workload.

A generator writes the workload's input files from ``--seed`` alone and pairs
every request with its expected output from :mod:`oracle`. The program sees
only the generated files and the request arguments. The seed decides the data;
the request mix and order are fixed, so the median and tail of a mix fall in
the same request class on every seed.

- ``portfolio``: one schema-v1 file with thousands of distinct single-period,
  undiscounted scenarios; tables, compute, baseline, closed-form break-even and
  finetune. Loads cli_report (schema, argparse, render) and decision.compare.
- ``horizon-sweeps``: a few scenarios evaluated many times; 5k-point sweeps on
  a single-period scenario, 20-point sweeps, tornado and compute on 20-period
  quarterly WACC scenarios with a discounted denominator, and bisection
  break-even between WACC pairs. Loads sensitivity and cost_core.
- ``telemetry``: generated JSONL logs for lenient and strict ingest. Loads
  ingest only; cost_core stays idle.
"""

from __future__ import annotations

import calendar
import json
import random
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Optional

import oracle
from oracle import MICRO, Spec, usd_text

WORKLOADS = ("portfolio", "horizon-sweeps", "telemetry")

# Input sizes. "full" is what the benchmark measures; "tiny" keeps the smoke
# test fast while exercising every request kind and every oracle path. The
# horizon-sweeps sizes keep one pass near 2 to 3 s, so that each request
# repeats about 12 times in a 30 s run.
SIZES = {
    "full": {
        "portfolio_scenarios": 2000, "portfolio_mix": (2, 2, 6, 4, 4, 2),
        "single_sweep_points": 5_000, "wacc_sweep_points": 20, "wacc_periods": 20,
        "log_lines": 20_000, "clean_log_lines": 12_000, "ingest_mix": (2, 1),
    },
    "tiny": {
        "portfolio_scenarios": 16, "portfolio_mix": (1, 1, 2, 1, 1, 1),
        "single_sweep_points": 50, "wacc_sweep_points": 3, "wacc_periods": 20,
        "log_lines": 400, "clean_log_lines": 200, "ingest_mix": (1, 1),
    },
}

# Requests are interleaved in one fixed order, independent of the seed.
ORDER_SEED = 20250902


@dataclass
class Request:
    """One client request and what a correct answer looks like.

    ``argv`` is passed to ``lcoai.cli_report.main``; ``library`` names a
    library call for a feature the CLI lacks. ``confirm``, when set, checks
    the output in place of equality with ``expected``. ``units`` counts the
    table rows, sweep/tornado points or log lines the request produces.
    """

    kind: str
    expected: Any
    units: int = 0
    argv: Optional[tuple] = None
    library: Optional[tuple] = None
    confirm: Optional[Callable[[str], bool]] = None


@dataclass
class Workload:
    name: str
    requests: list
    setup_input: tuple  # ("scenarios" | "log", path) loaded by the set-up probe
    sizes: dict = field(default_factory=dict)


def build(name: str, seed: int, out_dir: Path, scale: str = "full") -> Workload:
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{name}:{seed}")
    generate = {"portfolio": _portfolio, "horizon-sweeps": _horizon_sweeps,
                "telemetry": _telemetry}[name]
    workload = generate(rng, out_dir, SIZES[scale])
    random.Random(ORDER_SEED).shuffle(workload.requests)
    return workload


def _write_scenarios(path: Path, specs) -> None:
    doc = {"version": 1, "scenarios": [s.to_json() for s in specs]}
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


# --------------------------------------------------------------------------
# portfolio

VENDORS = ("Acme", "Northwind, Ltd.", "Globex", "Initech", "Umbrella", "Contoso")
TIERS = ("API", "self-hosted", "fine-tuned", "distilled", "batch")


def _portfolio_spec(rng: random.Random, i: int) -> Spec:
    items = []
    for j in range(rng.randint(1, 3)):
        micro = rng.randint(1_000, 500_000) * MICRO + rng.choice((0, 0, rng.randrange(MICRO)))
        items.append((f"item {j}", micro, rng.choice(("horizon", "horizon", 6, 12, 24, 36, 60))))
    fixed = 0 if rng.random() < 0.7 else rng.randint(1_000, 200_000) * MICRO
    return Spec(name=f"{rng.choice(VENDORS)} {rng.choice(TIERS)} {i:05d}",
                capex=tuple(items), rate=rng.randint(50, 20_000), fixed=fixed,
                volumes=(rng.randint(10**5, 2 * 10**8),))


def _crossing_pairs(rng: random.Random, specs, count: int) -> list:
    """Pairs with no fixed OPEX (closed-form path) whose curves cross below the
    search bound, so each break-even answer is a crossover volume."""
    pool = [s for s in specs if s.fixed == 0]
    pairs = []
    for _ in range(10_000):
        a, b = rng.sample(pool, 2)
        c_a, c_b = oracle.charged_capex(a), oracle.charged_capex(b)
        if c_a == c_b:
            continue
        hi, lo = (a, b) if c_a > c_b else (b, a)
        if hi.rate < lo.rate and (abs(c_a - c_b) // (lo.rate - hi.rate) + 1) <= oracle.SEARCH_MAX:
            pairs.append((a, b))
            if len(pairs) == count:
                return pairs
    raise RuntimeError("could not draw crossing break-even pairs")


def _portfolio(rng: random.Random, out_dir: Path, size: dict) -> Workload:
    specs = [_portfolio_spec(rng, i) for i in range(size["portfolio_scenarios"])]
    path = out_dir / "portfolio.json"
    _write_scenarios(path, specs)
    p = str(path)
    n_md, n_csv, n_compute, n_baseline, n_breakeven, n_finetune = size["portfolio_mix"]
    requests = []
    md, csv_text = oracle.table_text(specs, "markdown"), oracle.table_text(specs, "csv")
    requests += [Request("table", md, len(specs), ("table", p)) for _ in range(n_md)]
    requests += [Request("table", csv_text, len(specs), ("--format", "csv", "table", p))
                 for _ in range(n_csv)]
    for spec in rng.sample(specs, n_compute):
        requests.append(Request("compute", oracle.compute_text(spec), 1, ("compute", p, spec.name)))
    for spec in rng.sample(specs, n_baseline):
        baseline = rng.randint(1, 2_000_000) * 10**4  # whole cents
        requests.append(Request("baseline", oracle.baseline_text(spec, baseline), 1,
                                ("baseline", p, spec.name, "--baseline", usd_text(baseline))))
    for a, b in _crossing_pairs(rng, specs, n_breakeven):
        requests.append(Request("breakeven", oracle.closed_form_breakeven_text(a, b), 1,
                                ("breakeven", p, a.name, b.name)))
    for _ in range(n_finetune):
        base = rng.randint(1_000, 20_000)
        tuned = rng.randint(100, base - 1)
        capex = rng.randint(1_000, 500_000) * MICRO
        requests.append(Request("finetune", oracle.finetune_text(base, tuned, capex), 1,
                                ("finetune", "--base", usd_text(base), "--tuned", usd_text(tuned),
                                 "--capex", usd_text(capex))))
    return Workload("portfolio", requests, ("scenarios", p),
                    {"scenarios": len(specs), "requests_per_pass": len(requests)})


# --------------------------------------------------------------------------
# horizon-sweeps

WACC_RATES = ("0.06", "0.07", "0.08", "0.09")  # similar exact-arithmetic cost


def _growing(rng: random.Random, periods: int) -> tuple:
    base = rng.randint(2_000_000, 8_000_000)
    growth = 1000 + rng.randint(0, 40)  # up to 4% per quarter
    return tuple(base * growth**t // 1000**t for t in range(periods))


def _wacc_pair(rng: random.Random, periods: int, wacc: str, tag: str,
               capital_life: int) -> tuple:
    """A capital-heavy WACC scenario and a cheaper-to-start rival whose curves
    cross well inside the search range."""
    for _ in range(1000):
        heavy = Spec(
            name=f"wacc {tag} self-hosted",
            capex=(("GPU cluster", rng.randint(600_000, 2_000_000) * MICRO, capital_life),
                   ("integration", rng.randint(50_000, 150_000) * MICRO, "horizon")),
            rate=rng.randint(500, 3_000), fixed=rng.randint(2_000, 10_000) * MICRO,
            volumes=_growing(rng, periods), period_months=3, wacc=wacc,
            discount_denominator=True)
        light = Spec(
            name=f"wacc {tag} managed API",
            capex=(("integration", rng.randint(20_000, 80_000) * MICRO, "horizon"),),
            rate=heavy.rate + rng.randint(3_000, 9_000), fixed=0,
            volumes=_growing(rng, periods), period_months=3, wacc=wacc,
            discount_denominator=True)
        # affine estimate of the crossover: (dC + dF * sum d) / (w * do)
        factors = [float(d) for d in oracle.discount_vector(heavy)]
        shares = [v / sum(heavy.volumes) for v in heavy.volumes]
        weight = sum(d * s for d, s in zip(factors, shares))
        gap = (oracle.charged_capex(heavy) - oracle.charged_capex(light)
               + heavy.fixed * sum(factors))
        estimate = gap / (weight * (light.rate - heavy.rate))
        if 10**6 <= estimate <= 5 * 10**8:
            return heavy, light
    raise RuntimeError("could not draw a crossing WACC pair")


def _sweep_request(path: str, spec: Spec, parameter: str, start: str, step: str,
                   points: int) -> Request:
    if parameter == "volume":
        stop = str(int(start) + int(step) * (points - 1))
    else:
        stop = str(Decimal(start) + Decimal(step) * (points - 1))
    text, count = oracle.sweep_text(spec, parameter, start, stop, step)
    assert count == points
    return Request("sweep", text, count,
                   ("sweep", path, spec.name, parameter, "--start", start, "--stop", stop,
                    "--step", step))


def _analysis_requests(rng: random.Random, path: str, spec: Spec, points: int,
                       grids: dict) -> list:
    requests = [_sweep_request(path, spec, parameter, start, step, points)
                for parameter, (start, step) in grids.items()]
    swing = Fraction(rng.choice((10, 20, 25, 30)), 100)
    requests.append(Request("tornado", oracle.tornado_entries(spec, swing), 6,
                            library=("tornado", path, spec.name, swing)))
    requests.append(Request("compute", oracle.compute_text(spec), 1, ("compute", path, spec.name)))
    return requests


def _horizon_sweeps(rng: random.Random, out_dir: Path, size: dict) -> Workload:
    periods = size["wacc_periods"]
    single = Spec(
        name="single-period self-hosted",
        capex=(("GPU cluster", rng.randint(100_000, 400_000) * MICRO, "horizon"),
               ("fine-tuning", rng.randint(10_000, 90_000) * MICRO, 36)),
        rate=rng.randint(1_000, 9_000), fixed=0, volumes=(rng.randint(10**7, 10**8),))
    wacc = rng.choice(WACC_RATES)
    short_heavy, short_light = _wacc_pair(rng, periods, wacc, "short-life", 36)
    long_heavy, long_light = _wacc_pair(rng, periods, wacc, "long-life", 120)
    specs = [single, short_heavy, short_light, long_heavy, long_light]
    path = out_dir / "horizon.json"
    _write_scenarios(path, specs)
    p = str(path)

    requests = _analysis_requests(rng, p, single, size["single_sweep_points"], {
        "volume": ("0", "10000"), "opex_rate": ("0.0001", "0.000001"),
        "capex_multiplier": ("0.5", "0.0001")})
    wacc_grids = {"volume": ("10000000", "5000000"), "opex_rate": ("0.0005", "0.0005"),
                  "capex_multiplier": ("0.5", "0.025")}
    for spec in (short_heavy, long_heavy):
        requests += _analysis_requests(rng, p, spec, size["wacc_sweep_points"], wacc_grids)
    for heavy, light in ((short_heavy, short_light), (long_heavy, long_light)):
        check = _memoized(lambda out, a=heavy, b=light: oracle.confirm_breakeven(a, b, out))
        requests.append(Request("breakeven", None, 1, ("breakeven", p, heavy.name, light.name),
                                confirm=check))
    return Workload("horizon-sweeps", requests, ("scenarios", p),
                    {"scenarios": len(specs), "wacc_periods": periods, "wacc_rate": wacc,
                     "single_sweep_points": size["single_sweep_points"],
                     "wacc_sweep_points": size["wacc_sweep_points"],
                     "requests_per_pass": len(requests)})


def _memoized(check: Callable[[str], bool]) -> Callable[[str], bool]:
    seen: dict = {}

    def confirm(output: str) -> bool:
        if output not in seen:
            seen[output] = check(output)
        return seen[output]
    return confirm


# --------------------------------------------------------------------------
# telemetry

HORIZON_START = datetime(2025, 1, 1, tzinfo=timezone.utc)
START_TEXT = "2025-01-01T00:00:00Z"
PERIODS, PERIOD_MONTHS = 4, 3  # quarterly buckets over one year
KINDS = (("inference", 0.85), ("health_check", 0.08), ("admin", 0.03), ("background", 0.04))
OFFSETS = ("+00:00", "+02:00", "-05:00", "+05:30", "-03:30", "+09:00", "-08:00")
MODELS = ("haiku", "gpt-4.1", "llama-2-13b")

# Lines that every supported Python rejects. Forms that Python 3.11's
# fromisoformat accepts but RFC 3339 does not (20250101T000000Z, week dates,
# minutes without seconds) are left out: whether they are skipped is a known
# defect whose fix changes these tallies.
MALFORMED = (
    b'{"ts": "2025-03-01T10:00:00Z", "kind": "inference"',
    b'[1, 2, 3]',
    b'"inference"',
    b'{"ts": "2025-03-01T10:00:00Z", "kind": "inference"}',
    b'{"ts": "2025-03-01T10:00:00Z", "kind": "batch", "status": "ok"}',
    b'{"ts": "2025-03-01T10:00:00Z", "kind": "inference", "status": "timeout"}',
    b'{"ts": 1740823200, "kind": "inference", "status": "ok"}',
    b'{"ts": "2025-03-01T10:00:00", "kind": "inference", "status": "ok"}',
    b'{"ts": "2025-02-30T10:00:00Z", "kind": "inference", "status": "ok"}',
    b'{"ts": "yesterday", "kind": "inference", "status": "ok"}',
    b'{"ts": "2025-03-01T10:00:00Z", "kind": "inf\xff", "status": "ok"}',
)


def _pick_kind(rng: random.Random) -> str:
    r = rng.random()
    for kind, share in KINDS:
        if r < share:
            return kind
        r -= share
    return KINDS[-1][0]


def _timestamp(rng: random.Random, month: int) -> str:
    """A random instant in the given month (0 = the horizon's first month),
    written with a random RFC 3339 offset and fraction."""
    year, mon = 2025 + (month // 12), month % 12 + 1
    day = rng.randint(1, calendar.monthrange(year, mon)[1])
    instant = datetime(year, mon, day, rng.randrange(24), rng.randrange(60), rng.randrange(60),
                       rng.choice((0, rng.randrange(1000) * 1000, rng.randrange(10**6))),
                       tzinfo=timezone.utc)
    r = rng.random()
    if r < 0.6:
        suffix, local = "Z", instant
    elif r < 0.65:
        suffix, local = "z", instant
    else:
        suffix = rng.choice(OFFSETS)
        sign = 1 if suffix[0] == "+" else -1
        delta = timedelta(hours=int(suffix[1:3]), minutes=int(suffix[4:6])) * sign
        local = instant + delta
    text = local.strftime("%Y-%m-%dT%H:%M:%S")
    if instant.microsecond:
        digits = 3 if instant.microsecond % 1000 == 0 else 6
        text += "." + f"{instant.microsecond:06d}"[:digits]
    return text + suffix


def _write_log(rng: random.Random, path: Path, lines: int, malformed: bool,
               include_failed: bool) -> dict:
    """Write a log and return the tallies it must produce."""
    tally = {"valid": 0, "nonproductive": 0, "failed": 0, "out_of_range": 0,
             "skipped": 0, "buckets": {}}
    records = []
    for _ in range(lines):
        r = rng.random()
        if r < 0.005:
            records.append((0, rng.choice((b"", b"   ", b"\t"))))
            continue
        if malformed and r < 0.015:
            tally["skipped"] += 1
            records.append((0, rng.choice(MALFORMED)))
            continue
        kind = _pick_kind(rng)
        status = "error" if rng.random() < 0.03 else "ok"
        u = rng.random()
        month = rng.randrange(12) if u < 0.9 else (rng.randrange(-2, 0) if u < 0.95
                                                    else rng.randrange(12, 15))
        if kind != "inference":
            tally["nonproductive"] += 1
        elif status == "error" and not include_failed:
            tally["failed"] += 1
        elif 0 <= month < PERIODS * PERIOD_MONTHS:
            tally["valid"] += 1
            bucket = month // PERIOD_MONTHS
            tally["buckets"][bucket] = tally["buckets"].get(bucket, 0) + 1
        else:
            tally["out_of_range"] += 1
        obj = {"ts": _timestamp(rng, month), "kind": kind, "status": status}
        if kind == "inference":
            obj["model"] = rng.choice(MODELS)
            obj["latency_ms"] = rng.randint(20, 4000)
        records.append((month, json.dumps(obj).encode("utf-8")))
    # chronological, then len/10 random swaps put about a fifth of the lines out of order
    order = sorted(range(len(records)), key=lambda i: (records[i][0], i))
    for _ in range(len(order) // 10):
        i, j = rng.randrange(len(order)), rng.randrange(len(order))
        order[i], order[j] = order[j], order[i]
    with open(path, "wb") as fh:
        for i in order:
            fh.write(records[i][1] + b"\n")
    return tally


def _telemetry(rng: random.Random, out_dir: Path, size: dict) -> Workload:
    lenient, clean = out_dir / "telemetry.jsonl", out_dir / "telemetry-clean.jsonl"
    lenient_tally = _write_log(rng, lenient, size["log_lines"], malformed=True,
                               include_failed=False)
    clean_tally = _write_log(rng, clean, size["clean_log_lines"], malformed=False,
                             include_failed=True)
    # --start is always passed: without it the horizon starts at the first
    # line's timestamp, a known defect that makes tallies depend on line order.
    window = ("--start", START_TEXT, "--periods", str(PERIODS),
              "--period-months", str(PERIOD_MONTHS))
    n_lenient, n_strict = size["ingest_mix"]
    requests = [Request("ingest", oracle.ingest_text(lenient_tally), size["log_lines"],
                        ("ingest", str(lenient)) + window) for _ in range(n_lenient)]
    requests += [Request("ingest", oracle.ingest_text(clean_tally), size["clean_log_lines"],
                         ("--strict", "ingest", str(clean)) + window + ("--include-failed",))
                 for _ in range(n_strict)]
    return Workload("telemetry", requests, ("log", str(lenient)),
                    {"log_lines": size["log_lines"], "clean_log_lines": size["clean_log_lines"],
                     "malformed_lines": lenient_tally["skipped"],
                     "requests_per_pass": len(requests)})


def run_library(lcoai, library: tuple):
    """Execute a library request; returns a value comparable to ``expected``."""
    kind, path, name, swing = library
    assert kind == "tornado"
    scenario = next(s for s in lcoai.load_scenarios(path) if s.name == name)
    return [(e.parameter, e.low.amount, e.high.amount) for e in lcoai.tornado(scenario, swing)]

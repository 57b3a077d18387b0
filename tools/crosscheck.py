#!/usr/bin/env python3
"""Check that lcoai prints the same bytes on several Python interpreters.

Runs one fixed corpus of commands on every interpreter named in the
``LCOAI_PYTHONS`` environment variable (paths separated by ``os.pathsep``)
and compares each case's stdout, stderr and exit code byte for byte with the
first interpreter's. Every case runs from the repository root with
``PYTHONPATH=src`` and ``python -W error``: CLI cases as ``python -m lcoai``,
the demos as scripts, and as ``-c`` code the README's library quick start,
three scripts that print the ``lcoai`` modules that ``load_scenarios``,
``parse_log`` and ``import lcoai.cli_report`` load, and ``dataclasses`` and
``inspect`` if either is loaded, and one that prints ``gc.isenabled()``
after ``main(["table", ...])`` with the collector off and then on. A warning
that one interpreter raises (a deprecation, say) is then an error there, and
so a difference.
The ``table`` cases run ``fixtures/table1.json`` with its scenarios in every
order under three hash seeds, and must also print the same as each other.

    LCOAI_PYTHONS=/usr/bin/python3.10:/usr/bin/python3.13 python3 tools/crosscheck.py

Exits 0 when every case matches, 1 naming each case that differs, and 2
when ``LCOAI_PYTHONS`` is empty. Needs only the standard library.
"""

import itertools
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TABLE1 = "fixtures/table1.json"
TELEMETRY = "fixtures/telemetry_sample.jsonl"
LLAMA, GPT = "LLaMA-2-13B self-hosted", "GPT-4.1 API"

_SCENARIO = {
    "name": "s",
    "capex": [{"label": "cluster", "amount_usd": "120000", "asset_life_months": 60},
              {"label": "tuning", "amount_usd": "5000"}],
    "opex": {"per_inference_usd": "0.0048", "fixed_per_period_usd": "1000"},
    "volume": {"per_period": [500, 600, 700]},
    "horizon": {"periods": 3, "period_length_months": 12},
    "discount": {"mode": "none"},
}

_PRINT_LOADED = ("import sys\nprint(*sorted(m for m in sys.modules if m.startswith('lcoai.')"
                 " or m in ('dataclasses', 'inspect')))\n")

_GC_AFTER_MAIN = ("import gc\nfrom lcoai.cli_report import main\n"
                  "for switch in (gc.disable, gc.enable):\n"
                  f"    switch()\n    main(['table', {TABLE1!r}])\n    print(gc.isenabled())\n")

_INFERENCE = '{"ts": "2025-01-01T00:00:01Z", "kind": "inference", "status": "ok"}\n'


def _scenario_file(directory: Path, name: str, **fields) -> str:
    """A one-scenario file ``s`` with the given top-level fields replaced."""
    path = directory / name
    path.write_text(json.dumps({"version": 1, "scenarios": [dict(_SCENARIO, **fields)]}))
    return str(path)


def _wacc(rate: str, periods: int, months: int, denominator: bool) -> dict:
    return {"volume": {"per_period": [1000 * (t + 1) for t in range(periods)]},
            "horizon": {"periods": periods, "period_length_months": months},
            "discount": {"mode": "wacc", "annual_rate": rate,
                         "discount_denominator": denominator}}


def _pair_file(directory: Path) -> str:
    """``s`` and a capital-free ``api`` on its undiscounted 3-year horizon,
    which cross on the closed form: fixed OPEX and equal weights."""
    path = directory / "pair.json"
    api = dict(_SCENARIO, name="api", capex=[], opex={"per_inference_usd": "0.03"})
    path.write_text(json.dumps({"version": 1, "scenarios": [_SCENARIO, api]}))
    return str(path)


def _readme_python(heading: str) -> str:
    """The first python code block under a README heading."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split(f"## {heading}\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def corpus(tmp: Path) -> list:
    """(name, arguments after the interpreter, extra environment, group) per case."""
    cli = ["-m", "lcoai"]
    cases = [
        # the golden outputs
        ("golden table.md", cli + ["table", TABLE1]),
        ("golden table.csv", cli + ["--format", "csv", "table", TABLE1]),
        ("golden fig2", cli + ["sweep", TABLE1, LLAMA, "volume", "--start", "1000000",
                               "--stop", "50000000", "--step", "1000000"]),
        ("golden fig3", cli + ["sweep", TABLE1, GPT, "opex_rate", "--start", "0.001",
                               "--stop", "0.02", "--step", "0.001"]),
        # the README quick starts
        ("readme library", ["-c", _readme_python("Quick start (library)")]),
        ("readme compute", cli + ["compute", TABLE1, GPT]),
        ("readme breakeven", cli + ["breakeven", TABLE1, LLAMA, GPT]),
        ("readme finetune", cli + ["finetune", "--base", "0.010", "--tuned", "0.005",
                                   "--capex", "50000"]),
        ("readme baseline", cli + ["baseline", TABLE1, LLAMA, "--baseline", "300"]),
        ("readme ingest", cli + ["ingest", TELEMETRY]),
        ("readme capex sweep", cli + ["sweep", TABLE1, LLAMA, "capex_multiplier",
                                      "--start", "0.5", "--stop", "1.5", "--step", "0.1"]),
        ("capex sweep over three chunks", cli + ["sweep", TABLE1, LLAMA, "capex_multiplier",
                                                 "--start", "0.5", "--stop", "1.4999",
                                                 "--step", "0.0001"]),
        ("breakeven 3-period pair with fixed OPEX", cli + ["breakeven", _pair_file(tmp),
                                                            "s", "api"]),
        ("help", cli + ["--help"]),
        # the lcoai modules one library call loads
        ("modules loaded by load_scenarios",
         ["-c", f"import lcoai\nlcoai.load_scenarios({TABLE1!r})\n{_PRINT_LOADED}"]),
        ("modules loaded by parse_log",
         ["-c", f"import lcoai\nwith open({TELEMETRY!r}, 'rb') as fh:\n"
                f"    lcoai.parse_log(fh)\n{_PRINT_LOADED}"]),
        ("modules loaded by the CLI module", ["-c", f"import lcoai.cli_report\n{_PRINT_LOADED}"]),
        # main() pauses the collector and gives the caller back its setting
        ("collector setting after main", ["-c", _GC_AFTER_MAIN]),
    ]
    cases += [(f"demo {demo.stem}", [str(demo.relative_to(ROOT))])
              for demo in sorted((ROOT / "demos").glob("*.py"))]

    # the just-over input for each row of the README limits table
    deep, digits = "[" * 100_000, "9" * 4_301
    deep_file, digits_file = tmp / "deep.json", tmp / "digits.json"
    deep_file.write_text(deep)
    digits_file.write_text(json.dumps({"version": 1, "scenarios": [_SCENARIO]})
                           .replace("[500, 600, 700]", f"[500, {digits}, 700]"))
    deep_log, digits_log = tmp / "deep.jsonl", tmp / "digits.jsonl"
    deep_log.write_text(_INFERENCE + deep + "\n")
    digits_log.write_text(_INFERENCE + _INFERENCE.replace('"ok"}', f'"ok", "n": {digits}}}'))
    cases += [
        ("limit sweep points", cli + ["sweep", TABLE1, GPT, "volume", "--start", "0",
                                      "--stop", "1000000", "--step", "1"]),
        ("limit exponent in file", cli + ["table", _scenario_file(
            tmp, "exponent.json", opex={"per_inference_usd": "1e-101"})]),
        ("limit exponent in file, 5,000 digits", cli + ["table", _scenario_file(
            tmp, "exponent-digits.json",
            capex=[{"label": "cluster", "amount_usd": "9" * 5_000}])]),
        ("limit annual_rate decimal places", cli + ["table", _scenario_file(
            tmp, "rate-places.json", discount={"mode": "wacc", "annual_rate": "0." + "1" * 101})]),
        ("limit exponent on command line", cli + ["sweep", TABLE1, GPT, "capex_multiplier",
                                                  "--start", "1", "--stop", "2",
                                                  "--step", "1e-101"]),
        ("limit grid value decimal places", cli + ["sweep", TABLE1, GPT, "capex_multiplier",
                                                   "--start", "1", "--stop", "2",
                                                   "--step", "0." + "1" * 101]),
        ("limit exponent of a volume grid value", cli + ["sweep", TABLE1, GPT, "volume",
                                                         "--start", "1" + "0" * 101,
                                                         "--stop", "1", "--step", "1"]),
        ("limit exponent of --search-max, 5,000 digits", cli + [
            "breakeven", TABLE1, LLAMA, GPT, "--search-max", "9" * 5_000]),
        ("limit search-max 0", cli + ["breakeven", TABLE1, LLAMA, GPT, "--search-max", "0"]),
        ("limit search-max 10^18+1", cli + ["breakeven", TABLE1, LLAMA, GPT,
                                            "--search-max", str(10**18 + 1)]),
        ("limit discounted months", cli + ["compute", _scenario_file(
            tmp, "months.json", **_wacc("0.08", 1201, 1, False)), "s"]),
        ("limit depth in file", cli + ["table", str(deep_file)]),
        ("limit depth in log", cli + ["ingest", str(deep_log)]),
        ("limit depth in log, strict", cli + ["--strict", "ingest", str(deep_log)]),
        ("limit digits in file", cli + ["table", str(digits_file)]),
        ("limit digits in log", cli + ["ingest", str(digits_log)]),
        ("limit digits in log, strict", cli + ["--strict", "ingest", str(digits_log)]),
    ]

    # numbers that are not exact decimal text where one is due
    cases += [
        ("float money in file", cli + ["table", _scenario_file(
            tmp, "float-money.json", opex={"per_inference_usd": 0.0048})]),
        ("integer annual_rate in file", cli + ["table", _scenario_file(
            tmp, "integer-rate.json", discount={"mode": "wacc", "annual_rate": 0})]),
        ("malformed capex grid value", cli + ["sweep", TABLE1, LLAMA, "capex_multiplier",
                                              "--start", "3/4", "--stop", "2", "--step", "1"]),
        ("volume grid value 1.5", cli + ["sweep", TABLE1, GPT, "volume",
                                         "--start", "1.5", "--stop", "2", "--step", "1"]),
        ("--periods 1e3", cli + ["ingest", TELEMETRY, "--periods", "1e3"]),
        ("annual_rate exponent in file", cli + ["table", _scenario_file(
            tmp, "rate-exponent.json", discount={"mode": "wacc", "annual_rate": "1e-101"})]),
    ]

    # JSON that Python 3.13 words differently from earlier Pythons
    comma_file, comma_log = tmp / "comma.json", tmp / "comma.jsonl"
    comma_file.write_text('{"version": 1,\n "scenarios": [],\n}\n')
    comma_log.write_text(_INFERENCE + "[1, ]\n")
    cases += [
        ("trailing comma in file", cli + ["table", str(comma_file)]),
        ("trailing comma in log, strict", cli + ["--strict", "ingest", str(comma_log)]),
    ]

    # WACC scenarios at the discount factors pinned in the unit tests, on
    # quarter, half-year, 9-month and monthly grids, one of them 400 quarters
    for rate, periods, months in (("0.08", 20, 3), ("0.07", 12, 1), ("0.105", 4, 3),
                                  ("0.08", 10, 6), ("0.08", 8, 9), ("0.08", 400, 3),
                                  ("0.21", 4, 6)):
        for denominator in (False, True):
            path = _scenario_file(tmp, f"wacc-{rate}-{periods}x{months}-{denominator}.json",
                                  **_wacc(rate, periods, months, denominator))
            cases.append((f"wacc {rate} {periods}x{months}-month denominator={denominator}",
                          cli + ["compute", path, "s"]))

    # the 1,200-month cap on monthly and two-month grids, at a short rate and
    # at one whose 1+rate has 50 digits: the largest cube and square roots
    for label, rate in (("0.08", "0.08"), ("50-digit", "0." + "3" * 49)):
        for periods, months in ((1200, 1), (600, 2)):
            path = _scenario_file(tmp, f"cap-{label}-{months}.json",
                                  **_wacc(rate, periods, months, False))
            cases.append((f"wacc {label} {periods}x{months}-month at the cap",
                          cli + ["compute", path, "s"]))

    # table1.json in every scenario order and under several hash seeds
    doc = json.loads((ROOT / TABLE1).read_text())
    orders = []
    for index, order in enumerate(itertools.permutations(doc["scenarios"])):
        path = tmp / f"table1-order{index}.json"
        path.write_text(json.dumps(dict(doc, scenarios=list(order))))
        for seed in ("0", "1", "2"):
            orders.append((f"table order {index} seed {seed}", cli + ["table", str(path)],
                           {"PYTHONHASHSEED": seed}, "table orders"))
    return [(name, args, {}, None) for name, args in cases] + orders


def run(python: str, args: list, env: dict) -> tuple:
    result = subprocess.run([python, "-W", "error", *args], cwd=ROOT, env=env,
                            capture_output=True, timeout=300)
    return result.returncode, result.stdout, result.stderr


def _parts(a: tuple, b: tuple) -> str:
    return ", ".join(part for part, x, y in zip(("exit code", "stdout", "stderr"), a, b)
                     if x != y)


def main() -> int:
    pythons = [p for p in os.environ.get("LCOAI_PYTHONS", "").split(os.pathsep) if p]
    if not pythons:
        print("set LCOAI_PYTHONS to interpreter paths separated by "
              f"{os.pathsep!r}", file=sys.stderr)
        return 2
    began = time.perf_counter()
    base_env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    differing = []
    with tempfile.TemporaryDirectory() as tmp:
        cases = corpus(Path(tmp))
        group_first = {}
        for name, args, env, group in cases:
            outputs = [run(python, args, dict(base_env, **env)) for python in pythons]
            reference = outputs[0]
            for python, output in zip(pythons[1:], outputs[1:]):
                if output != reference:
                    differing.append(f"{name}: {python} differs from {pythons[0]} "
                                     f"in {_parts(reference, output)}")
            if group is not None:
                first, first_output = group_first.setdefault(group, (name, reference))
                if first_output != reference:
                    differing.append(f"{name}: differs from {first} "
                                     f"in {_parts(first_output, reference)}")
    for line in differing:
        print(line)
    print(f"{len(cases)} cases on {len(pythons)} interpreters, "
          f"{len(differing)} differences, {time.perf_counter() - began:.1f} s")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())

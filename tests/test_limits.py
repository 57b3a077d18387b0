"""Every documented input limit: the just-over input of each row of the
README's limits table exits with the code the table gives, and the worst
legal discounted horizon is checked by operation counts, not wall clock."""

import json
from collections import Counter
from fractions import Fraction

import pytest

from lcoai import DiscountPolicy, Horizon, compute_lcoai
from lcoai import cost_core
from lcoai.cli_report import MAX_SWEEP_POINTS, main
from lcoai.cost_core import MAX_DECIMAL_EXPONENT, MAX_DISCOUNTED_MONTHS
from lcoai.sensitivity import MAX_SEARCH_MAX

from conftest import FIXTURES, REPO_ROOT, simple_scenario

TABLE1 = str(FIXTURES / "table1.json")
LLAMA, GPT = "LLaMA-2-13B self-hosted", "GPT-4.1 API"
_INFERENCE = '{"ts": "2025-01-01T00:00:01Z", "kind": "inference", "status": "ok"}'
_SCENARIO = {
    "name": "s",
    "capex": [{"label": "cluster", "amount_usd": "120000"}],
    "opex": {"per_inference_usd": "0.0048", "fixed_per_period_usd": "10"},
    "volume": {"per_period": [500]},
    "horizon": {"periods": 1, "period_length_months": 12},
    "discount": {"mode": "none"},
}
_DEEP = "[" * 100_000
_DIGITS = "9" * 4_301


def _scenario_file(tmp_path, **fields) -> str:
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"version": 1, "scenarios": [dict(_SCENARIO, **fields)]}))
    return str(path)


def _text_file(tmp_path, name, text) -> str:
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _discounted(months: int) -> dict:
    return {"horizon": {"periods": 1, "period_length_months": months},
            "discount": {"mode": "wacc", "annual_rate": "0.08"}}


# README limits-table row -> (case id, argv from tmp_path, exit code) per input
# just past the limit
LIMITS = {
    "Sweep grid points": [
        ("volume grid", lambda tmp: [
            "sweep", TABLE1, GPT, "volume", "--start", "0", "--stop", str(MAX_SWEEP_POINTS),
            "--step", "1"], 1),
    ],
    "Decimal exponent in scientific notation (money, `annual_rate`, grid values)": [
        ("money in a file", lambda tmp: ["table", _scenario_file(
            tmp, opex={"per_inference_usd": f"1e-{MAX_DECIMAL_EXPONENT + 1}"})], 4),
        ("annual_rate in a file", lambda tmp: ["table", _scenario_file(
            tmp, discount={"mode": "wacc", "annual_rate": f"1e-{MAX_DECIMAL_EXPONENT + 1}"})],
         4),
        ("grid step on the command line", lambda tmp: [
            "sweep", TABLE1, GPT, "capex_multiplier", "--start", "1", "--stop", "2",
            "--step", f"1e-{MAX_DECIMAL_EXPONENT + 1}"], 1),
    ],
    "`annual_rate` decimal places (and `capex_multiplier` grid values)": [
        ("annual_rate in a file", lambda tmp: ["table", _scenario_file(
            tmp, discount={"mode": "wacc",
                           "annual_rate": "0." + "1" * (MAX_DECIMAL_EXPONENT + 1)})], 4),
        ("grid step on the command line", lambda tmp: [
            "sweep", TABLE1, GPT, "capex_multiplier", "--start", "1", "--stop", "2",
            "--step", "0." + "1" * (MAX_DECIMAL_EXPONENT + 1)], 1),
    ],
    "`breakeven --search-max`": [
        ("zero", lambda tmp: ["breakeven", TABLE1, LLAMA, GPT, "--search-max", "0"], 1),
        ("past the maximum", lambda tmp: ["breakeven", TABLE1, LLAMA, GPT, "--search-max",
                                          str(MAX_SEARCH_MAX + 1)], 1),
    ],
    "Discounted horizon (`wacc` with a positive rate)": [
        ("one month over", lambda tmp: ["compute", _scenario_file(
            tmp, **_discounted(MAX_DISCOUNTED_MONTHS + 1)), "s"], 4),
    ],
    "JSON nesting depth": [
        ("scenario file", lambda tmp: ["table", _text_file(tmp, "deep.json", _DEEP)], 4),
        ("telemetry line", lambda tmp: ["ingest", _text_file(
            tmp, "deep.jsonl", f"{_INFERENCE}\n{_DEEP}\n")], 0),
        ("telemetry line, strict", lambda tmp: ["--strict", "ingest", _text_file(
            tmp, "deep.jsonl", f"{_INFERENCE}\n{_DEEP}\n")], 4),
    ],
    "JSON integer digits": [
        ("scenario file", lambda tmp: ["table", _text_file(tmp, "digits.json", json.dumps(
            {"version": 1, "scenarios": [_SCENARIO]}).replace("[500]", f"[{_DIGITS}]"))], 4),
        ("telemetry line", lambda tmp: ["ingest", _text_file(
            tmp, "digits.jsonl", f'{_INFERENCE}\n{_INFERENCE[:-1]}, "n": {_DIGITS}}}\n')], 0),
        ("telemetry line, strict", lambda tmp: ["--strict", "ingest", _text_file(
            tmp, "digits.jsonl", f'{_INFERENCE}\n{_INFERENCE[:-1]}, "n": {_DIGITS}}}\n')], 4),
    ],
    "`volume` grid value digits": [
        ("grid start on the command line", lambda tmp: [
            "sweep", TABLE1, GPT, "volume", "--start", _DIGITS, "--stop", "1", "--step", "1"],
         1),
    ],
}


def _readme_rows() -> list:
    lines = (REPO_ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    start = lines.index("| Limit | Value | Past it |") + 2
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        rows.append(line.split(" | ")[0].removeprefix("| "))
    return rows


def test_every_readme_limit_has_a_just_over_case():
    assert _readme_rows() == list(LIMITS)


@pytest.mark.parametrize("row, argv, code", [
    pytest.param(row, argv, code, id=f"{row.split(' (')[0].strip('`')}: {case}")
    for row, cases in LIMITS.items() for case, argv, code in cases])
def test_just_over_the_limit_exits_with_the_documented_code(row, argv, code, tmp_path, capsys):
    assert main(argv(tmp_path)) == code
    out, err = capsys.readouterr()
    if code:
        assert err.startswith("error: ") and "Traceback" not in err
    else:  # a lenient ingest skips the line it cannot decode
        assert "valid=1 " in out and "skipped_malformed=1" in out


def _counting(monkeypatch, calls: Counter, name: str) -> None:
    original = getattr(cost_core, name)

    def counted(*args):
        calls[name] += 1
        return original(*args)
    monkeypatch.setattr(cost_core, name, counted)


@pytest.mark.parametrize("months", [1, 3], ids=["monthly", "quarterly"])
def test_worst_legal_discounted_horizon_by_operation_counts(months, monkeypatch):
    # each period's factor is computed once per compile; the 100 whole years
    # are exact powers and every other period end takes integer roots
    periods = MAX_DISCOUNTED_MONTHS // months
    calls = Counter()
    _counting(monkeypatch, calls, "discount_factor")
    _counting(monkeypatch, calls, "_root_power")
    for denominator in (False, True):
        scenario = simple_scenario(
            "worst", "100000", "0.0001", range(1, periods + 1), fixed_usd="50",
            horizon=Horizon(periods, months),
            discount=DiscountPolicy("wacc", Fraction("0.08"), denominator))
        assert compute_lcoai(scenario).discounted
    assert calls == {"discount_factor": 2 * periods, "_root_power": 2 * (periods - 100)}


def test_just_over_the_discounted_horizon_computes_no_factor(tmp_path, monkeypatch, capsys):
    calls = Counter()
    _counting(monkeypatch, calls, "discount_factor")
    path = _scenario_file(tmp_path, **_discounted(MAX_DISCOUNTED_MONTHS + 1))
    assert main(["compute", path, "s"]) == 4
    assert f"{MAX_DISCOUNTED_MONTHS:,} months" in capsys.readouterr().err
    assert not calls

"""Scenario files, table rendering, and the command-line surface."""

import json
import re
import subprocess
import sys
from fractions import Fraction

import pytest

from lcoai import (
    DiscountPolicy,
    Horizon,
    Money,
    PerInferenceRate,
    ReportTable,
    ScenarioFileError,
    build_comparison_table,
    load_scenarios,
    save_scenarios,
    scenarios_from_dict,
    scenarios_to_dict,
    sweep_series_csv,
)
from lcoai.cli_report import MAX_SWEEP_POINTS, _sweep_points, main
from lcoai.sensitivity import SweepSpec, sweep

from conftest import FIXTURES, GOLDEN

_MISSING = object()

_FULL_SCENARIO = {
    "name": "full",
    "capex": [{"label": "cluster", "amount_usd": "120000", "asset_life_months": 60},
              {"label": "tuning", "amount_usd": "5000"}],
    "opex": {"per_inference_usd": "0.0048", "fixed_per_period_usd": "1000"},
    "volume": {"per_period": [500, 600, 700]},
    "horizon": {"periods": 3, "period_length_months": 12},
    "discount": {"mode": "wacc", "annual_rate": "0.105", "discount_denominator": True},
}

_BAD_VALUES = {"null": None, "bool": True, "float": 1.5, "empty": "", "negative": -1,
               "list": [], "object": {}, "text": "x", "missing": _MISSING}

# every field of a scenario, as a path below scenarios[0] ("" is the entry itself)
_SCHEMA_FIELDS = (
    "", "name", "capex", "capex[0]", "capex[0].label", "capex[0].amount_usd",
    "capex[0].asset_life_months", "opex", "opex.per_inference_usd",
    "opex.fixed_per_period_usd", "volume", "volume.per_period", "volume.per_period[1]",
    "horizon", "horizon.periods", "horizon.period_length_months", "discount",
    "discount.mode", "discount.annual_rate", "discount.discount_denominator",
)

# (field, bad value) cases not rejected at the field itself: the path the
# error names instead, or None where the document stays valid
_REPORTED_ELSEWHERE = {
    ("", "object"): "name",
    ("", "missing"): None,
    ("name", "text"): None,
    ("capex", "list"): None,
    ("capex", "missing"): None,
    ("capex[0]", "object"): "capex[0].label",
    ("capex[0]", "missing"): None,
    ("capex[0].label", "text"): None,
    ("capex[0].amount_usd", "negative"): "capex[0]",
    ("capex[0].asset_life_months", "missing"): None,
    ("opex", "object"): "opex.per_inference_usd",
    ("opex.fixed_per_period_usd", "negative"): "opex",
    ("opex.fixed_per_period_usd", "missing"): None,
    ("volume", "object"): "volume.per_period",
    ("volume.per_period[1]", "missing"): "",
    ("horizon", "object"): "",
    ("horizon", "missing"): "",
    **{("horizon.periods", bad): "horizon" for bad in _BAD_VALUES},
    ("horizon.periods", "missing"): "",
    **{("horizon.period_length_months", bad): "horizon" for bad in _BAD_VALUES},
    ("horizon.period_length_months", "missing"): None,
    ("discount", "object"): None,
    ("discount", "missing"): None,
    ("discount.mode", "missing"): None,
    ("discount.discount_denominator", "bool"): None,
    ("discount.discount_denominator", "missing"): None,
}


def _with_field(field: str, value) -> dict:
    """A one-scenario document with one field of _FULL_SCENARIO replaced."""
    doc = {"version": 1, "scenarios": [json.loads(json.dumps(_FULL_SCENARIO))]}
    keys = [0] + [int(k) if k.isdigit() else k for k in re.findall(r"[^.\[\]]+", field)]
    target = doc["scenarios"]
    for key in keys[:-1]:
        target = target[key]
    if value is _MISSING:
        del target[keys[-1]]
    else:
        target[keys[-1]] = value
    return doc


class TestLoadScenarios:
    def test_table1_fixture(self):
        scenarios = load_scenarios(FIXTURES / "table1.json")
        assert [s.name for s in scenarios] == [
            "GPT-4.1 API", "Claude Haiku API", "LLaMA-2-13B self-hosted"]
        gpt = scenarios[0]
        assert gpt.capex_total == Money.from_usd("50000")
        assert gpt.opex.per_inference == PerInferenceRate.from_usd("0.01")
        assert gpt.volume.total == 10_000_000
        assert gpt.horizon == Horizon(1, 12)
        assert not gpt.discount.is_discounting

    def test_defaults_for_horizon_and_discount(self, tmp_path):
        doc = {"version": 1, "scenarios": [{
            "name": "minimal",
            "opex": {"per_inference_usd": "0.01"},
            "volume": {"per_period": [100]},
        }]}
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        scenario = load_scenarios(path)[0]
        assert scenario.horizon == Horizon(1, 12)
        assert scenario.discount.mode == "none"
        assert scenario.capex == ()

    def test_sub_micro_resolution_is_rejected_with_field_path(self, tmp_path):
        doc = {"version": 1, "scenarios": [{
            "name": "too fine",
            "opex": {"per_inference_usd": "0.00000001"},
            "volume": {"per_period": [100]},
        }]}
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ScenarioFileError, match=r"scenarios\[0\].opex.per_inference_usd"):
            load_scenarios(path)

    def test_empty_scenario_list_is_valid(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text('{"version": 1, "scenarios": []}')
        assert load_scenarios(path) == []

    def test_unknown_version_rejected(self):
        with pytest.raises(ScenarioFileError, match="version"):
            scenarios_from_dict({"version": 2, "scenarios": []})

    def test_json_float_money_rejected(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"version": 1, "scenarios": [{
            "name": "floaty",
            "opex": {"per_inference_usd": 0.0048},
            "volume": {"per_period": [100]},
        }]}))
        with pytest.raises(ScenarioFileError, match="decimal string"):
            load_scenarios(path)

    def test_duplicate_names_rejected(self):
        entry = {
            "name": "twin",
            "opex": {"per_inference_usd": "0.01"},
            "volume": {"per_period": [1]},
        }
        with pytest.raises(ScenarioFileError, match="duplicate"):
            scenarios_from_dict({"version": 1, "scenarios": [entry, dict(entry)]})

    def test_malformed_json_carries_parse_context(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ScenarioFileError, match="not valid JSON"):
            load_scenarios(path)

    def test_wacc_discount_parses_exactly(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"version": 1, "scenarios": [{
            "name": "long haul",
            "opex": {"per_inference_usd": "0.004"},
            "volume": {"per_period": [1000, 1000, 1000]},
            "horizon": {"periods": 3, "period_length_months": 12},
            "discount": {"mode": "wacc", "annual_rate": "0.08"},
        }]}))
        scenario = load_scenarios(path)[0]
        assert scenario.discount == DiscountPolicy("wacc", Fraction(2, 25))

    def test_round_trip_is_identity(self, tmp_path):
        originals = load_scenarios(FIXTURES / "table1.json")
        path = tmp_path / "dumped.json"
        save_scenarios(path, originals)
        assert load_scenarios(path) == originals

    def test_round_trip_with_discounting(self, tmp_path):
        doc = {"version": 1, "scenarios": [{
            "name": "pv",
            "capex": [{"label": "cluster", "amount_usd": "120000",
                       "asset_life_months": 60}],
            "opex": {"per_inference_usd": "0.0048",
                     "fixed_per_period_usd": "1000"},
            "volume": {"per_period": [500, 600, 700]},
            "horizon": {"periods": 3, "period_length_months": 12},
            "discount": {"mode": "wacc", "annual_rate": "0.105",
                         "discount_denominator": True},
        }]}
        first = scenarios_from_dict(doc)
        second = scenarios_from_dict(scenarios_to_dict(first))
        assert first == second


class TestSchemaRejections:
    @pytest.mark.parametrize("field", _SCHEMA_FIELDS)
    def test_bad_values_are_rejected_at_their_field_path(self, field):
        outcomes, expected = {}, {}
        for bad, value in _BAD_VALUES.items():
            where = _REPORTED_ELSEWHERE.get((field, bad), field)
            expected[bad] = "valid" if where is None else f"scenarios[0].{where}".rstrip(".")
            try:
                loaded = scenarios_from_dict(_with_field(field, value))
            except ScenarioFileError as exc:
                outcomes[bad] = exc.path
            else:
                assert scenarios_from_dict(scenarios_to_dict(loaded)) == loaded
                outcomes[bad] = "valid"
        assert outcomes == expected

    @pytest.mark.parametrize("version", [True, 1.0, "1", None, 2, _MISSING])
    def test_version_must_be_the_integer_1(self, version):
        doc = _with_field("name", "v")
        if version is _MISSING:
            del doc["version"]
        else:
            doc["version"] = version
        with pytest.raises(ScenarioFileError) as info:
            scenarios_from_dict(doc)
        assert info.value.path == "version"

    @pytest.mark.parametrize("scenarios", [None, {}, "x", 1])
    def test_scenarios_must_be_a_list(self, scenarios):
        with pytest.raises(ScenarioFileError) as info:
            scenarios_from_dict({"version": 1, "scenarios": scenarios})
        assert info.value.path == "scenarios"

    @pytest.mark.parametrize("rate", ["Infinity", "-Infinity", "NaN"])
    def test_non_finite_annual_rate_exits_4(self, rate, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(_with_field("discount.annual_rate", rate)))
        assert main(["table", str(path)]) == 4
        assert "scenarios[0].discount.annual_rate:" in capsys.readouterr().err


class TestReportTable:
    def test_rectangularity_enforced(self):
        with pytest.raises(ValueError):
            ReportTable(("a", "b"), (("only one",),))

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            ReportTable(("a",), (), "html")

    def test_markdown_golden(self):
        scenarios = load_scenarios(FIXTURES / "table1.json")
        rendered = build_comparison_table(scenarios).render()
        assert rendered == (GOLDEN / "table1.md").read_text()

    def test_csv_golden(self):
        scenarios = load_scenarios(FIXTURES / "table1.json")
        rendered = build_comparison_table(scenarios, fmt="csv").render()
        assert rendered == (GOLDEN / "table1.csv").read_bytes().decode()

    def test_csv_quotes_cells_containing_commas(self):
        scenarios = load_scenarios(FIXTURES / "table1.json")
        rendered = build_comparison_table(scenarios, fmt="csv").render()
        assert '"$50,000.00"' in rendered
        assert rendered.count("\r\n") == 4  # header + three rows

    def test_empty_file_gives_header_only_table(self):
        table = build_comparison_table([])
        rendered = table.render()
        assert rendered.splitlines()[0].startswith("| Scenario |")
        assert len(rendered.splitlines()) == 2  # header + separator

    def test_render_is_deterministic(self):
        scenarios = load_scenarios(FIXTURES / "table1.json")
        a = build_comparison_table(scenarios).render()
        b = build_comparison_table(load_scenarios(FIXTURES / "table1.json")).render()
        assert a == b


class TestSweepCsv:
    def test_volume_sweep_golden(self):
        scenarios = load_scenarios(FIXTURES / "table1.json")
        llama = next(s for s in scenarios if "LLaMA" in s.name)
        points = tuple(range(1_000_000, 50_000_001, 1_000_000))
        text = sweep_series_csv(sweep(llama, SweepSpec("volume", points)))
        assert text == (GOLDEN / "fig2_volume_llama.csv").read_bytes().decode()

    def test_opex_sweep_golden(self):
        scenarios = load_scenarios(FIXTURES / "table1.json")
        gpt = next(s for s in scenarios if "GPT" in s.name)
        points = tuple(PerInferenceRate(r) for r in range(1_000, 20_001, 1_000))
        text = sweep_series_csv(sweep(gpt, SweepSpec("opex_rate", points)))
        assert text == (GOLDEN / "fig3_opex_gpt41.csv").read_bytes().decode()

    def test_undefined_point_renders_na(self, llama):
        text = sweep_series_csv(sweep(llama, SweepSpec("volume", (0, 1_000_000))))
        lines = text.splitlines()
        assert lines[1] == "0,NA"
        assert lines[2] == "1000000,204.80"


class TestCliCommands:
    def test_compute_gpt41(self, capsys):
        code = main(["compute", str(FIXTURES / "table1.json"), "GPT-4.1 API"])
        out = capsys.readouterr().out
        assert code == 0
        assert "$15.00 per 1,000" in out
        assert "capex charged: $50,000.00" in out

    def test_compute_llama(self, capsys):
        code = main(["compute", str(FIXTURES / "table1.json"), "LLaMA-2-13B self-hosted"])
        assert code == 0
        assert "$24.80 per 1,000" in capsys.readouterr().out

    def test_compute_unknown_scenario_exits_2(self, capsys):
        code = main(["compute", str(FIXTURES / "table1.json"), "Nonexistent"])
        assert code == 2
        assert "not found" in capsys.readouterr().err

    def test_compute_zero_volume_exits_3(self, tmp_path, capsys):
        path = tmp_path / "zero.json"
        path.write_text(json.dumps({"version": 1, "scenarios": [{
            "name": "idle",
            "opex": {"per_inference_usd": "0.01"},
            "volume": {"per_period": [0]},
        }]}))
        code = main(["compute", str(path), "idle"])
        assert code == 3
        assert "zero valid inferences" in capsys.readouterr().err

    def test_missing_file_exits_2(self, capsys):
        assert main(["compute", "no-such-file.json", "x"]) == 2

    def test_malformed_file_exits_4(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{")
        assert main(["table", str(path)]) == 4

    def test_usage_error_exits_1(self, capsys):
        assert main(["compute"]) == 1
        assert main(["no-such-command"]) == 1

    def test_table_matches_golden(self, capsys):
        code = main(["table", str(FIXTURES / "table1.json")])
        assert code == 0
        assert capsys.readouterr().out == (GOLDEN / "table1.md").read_text()

    def test_table_csv_format_flag(self, capsys):
        code = main(["--format", "csv", "table", str(FIXTURES / "table1.json")])
        assert code == 0
        assert capsys.readouterr().out == (GOLDEN / "table1.csv").read_bytes().decode()

    def test_sweep_matches_golden(self, capsys):
        code = main([
            "sweep", str(FIXTURES / "table1.json"), "LLaMA-2-13B self-hosted",
            "volume", "--start", "1000000", "--stop", "50000000",
            "--step", "1000000"])
        assert code == 0
        assert capsys.readouterr().out == (GOLDEN / "fig2_volume_llama.csv").read_bytes().decode()

    def test_sweep_step_larger_than_range_gives_single_row(self, capsys):
        code = main([
            "sweep", str(FIXTURES / "table1.json"), "GPT-4.1 API",
            "volume", "--start", "1000000", "--stop", "2000000",
            "--step", "99000000"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1:] == ["1000000,60.00"]

    @pytest.mark.parametrize("start, stop, step", [
        ("Infinity", "Infinity", "1"), ("0", "1", "Infinity"), ("NaN", "1", "1")])
    def test_sweep_non_finite_grid_exits_1(self, start, stop, step, capsys):
        code = main([
            "sweep", str(FIXTURES / "table1.json"), "GPT-4.1 API", "capex_multiplier",
            "--start", start, "--stop", stop, "--step", step])
        assert code == 1
        assert "not a finite decimal" in capsys.readouterr().err

    @pytest.mark.parametrize("parameter, start, stop, step", [
        ("volume", "0", "1000000000000", "1"),
        ("volume", "0", str(MAX_SWEEP_POINTS), "1"),
        ("opex_rate", "0", "1000", "0.000001"),
        ("capex_multiplier", "0.5", "2", "0.000000001"),
    ])
    def test_sweep_grid_over_the_point_cap_is_refused_before_building(
            self, parameter, start, stop, step):
        with pytest.raises(ValueError, match="limit"):
            _sweep_points(parameter, start, stop, step)

    def test_sweep_over_the_point_cap_exits_1(self, capsys):
        code = main([
            "sweep", str(FIXTURES / "table1.json"), "GPT-4.1 API", "volume",
            "--start", "0", "--stop", "1000000000000", "--step", "1"])
        assert code == 1
        assert "1,000,000,000,001 points" in capsys.readouterr().err

    def test_sweep_grid_is_start_plus_multiples_of_step(self):
        assert _sweep_points("capex_multiplier", "0.5", "1.2", "0.25") == [
            Fraction(1, 2), Fraction(3, 4), Fraction(1)]
        assert _sweep_points("volume", "0", "10", "5") == [0, 5, 10]

    def test_breakeven_prints_crossover(self, capsys):
        code = main(["breakeven", str(FIXTURES / "table1.json"),
                     "LLaMA-2-13B self-hosted", "GPT-4.1 API"])
        assert code == 0
        assert "28,846,154" in capsys.readouterr().out

    def test_breakeven_reports_domination(self, capsys):
        code = main(["breakeven", str(FIXTURES / "table1.json"),
                     "LLaMA-2-13B self-hosted", "Claude Haiku API"])
        assert code == 0
        out = capsys.readouterr().out
        assert "none" in out
        assert "Claude Haiku API" in out

    def test_finetune_prints_threshold(self, capsys):
        code = main(["finetune", "--base", "0.010", "--tuned", "0.005",
                     "--capex", "50000"])
        assert code == 0
        assert "10,000,001" in capsys.readouterr().out

    def test_finetune_never(self, capsys):
        code = main(["finetune", "--base", "0.005", "--tuned", "0.005",
                     "--capex", "1"])
        assert code == 0
        assert "never" in capsys.readouterr().out

    def test_baseline_prints_savings(self, capsys):
        code = main(["baseline", str(FIXTURES / "table1.json"),
                     "LLaMA-2-13B self-hosted", "--baseline", "300"])
        assert code == 0
        assert "$275.20" in capsys.readouterr().out

    def test_ingest_counts_fixture(self, capsys):
        code = main(["ingest", str(FIXTURES / "telemetry_sample.jsonl")])
        assert code == 0
        assert "valid=3" in capsys.readouterr().out

    def test_ingest_default_start_is_the_earliest_record(self, tmp_path, capsys):
        original = FIXTURES / "telemetry_sample.jsonl"
        reversed_log = tmp_path / "reversed.jsonl"
        reversed_log.write_text("".join(reversed(original.read_text().splitlines(True))))
        assert main(["ingest", str(original)]) == 0
        forward = capsys.readouterr().out
        assert main(["ingest", str(reversed_log)]) == 0
        assert capsys.readouterr().out == forward

    def test_ingest_lenient_by_default_tallies_skips(self, tmp_path, capsys):
        path = tmp_path / "log.jsonl"
        path.write_text('{"ts": "2025-01-01T00:00:00Z", "kind": "warmup", "status": "ok"}\n'
                        '{"ts": "2025-01-01T00:00:01Z", "kind": "inference", "status": "ok"}\n')
        code = main(["ingest", str(path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "valid=1" in out
        assert "skipped_malformed=1" in out

    def test_ingest_strict_exits_4(self, tmp_path, capsys):
        path = tmp_path / "log.jsonl"
        path.write_text('{"ts": "2025-01-01T00:00:00Z", "kind": "warmup", "status": "ok"}\n')
        code = main(["--strict", "ingest", str(path)])
        assert code == 4
        assert "line 1" in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0


class TestCliSubprocess:
    def test_module_invocation_round_trip(self):
        result = subprocess.run(
            [sys.executable, "-m", "lcoai", "table", str(FIXTURES / "table1.json")],
            capture_output=True, text=True, check=True)
        assert result.stdout == (GOLDEN / "table1.md").read_text()

    def test_exit_code_surfaces_through_interpreter(self):
        result = subprocess.run(
            [sys.executable, "-m", "lcoai", "compute",
             str(FIXTURES / "table1.json"), "missing"],
            capture_output=True, text=True)
        assert result.returncode == 2

"""Scenario files, table rendering, and the command-line surface."""

import errno
import io
import itertools
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

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
from lcoai import cli_report
from lcoai.cli_report import MAX_SWEEP_POINTS, _sweep_grid, main
from lcoai.cost_core import MAX_DECIMAL_EXPONENT, MAX_DISCOUNTED_MONTHS, decimal_text, exact_ratio
from lcoai.errors import decode_error_message
from lcoai.sensitivity import MAX_SEARCH_MAX, SweepSpec, sweep

from conftest import FIXTURES, GOLDEN, simple_scenario

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

_NO_RECORDS = "valid=0 excluded_nonproductive=0 excluded_failed=0 out_of_range=0\n"

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

    @pytest.mark.parametrize("field, text", [
        ("capex[0].amount_usd", "1e999999"),
        ("capex[0].amount_usd", "1e-999999999"),
        ("opex.per_inference_usd", "1e-999999999"),
        ("opex.fixed_per_period_usd", "1e999999"),
        ("discount.annual_rate", "1e-9999"),
    ])
    def test_extreme_exponent_exits_4_at_its_field(self, field, text, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(_with_field(field, text)))
        assert main(["table", str(path)]) == 4
        err = capsys.readouterr().err
        assert f"scenarios[0].{field}:" in err and "exponent" in err


    @pytest.mark.parametrize("text, reason", [
        ("[" * 100_000, "recursion"),
        (json.dumps(_with_field("volume.per_period", [1, 2, 3])).replace("[1, 2, 3]",
                                                                       f"[1, {'7' * 5_000}, 3]"),
         "(4300"),
    ], ids=["deep", "long-int"])
    def test_json_the_decoder_cannot_hold_exits_4(self, text, reason, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text(text)
        with pytest.raises(ScenarioFileError) as info:
            load_scenarios(path)
        assert info.value.path == "$"
        assert main(["table", str(path)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: $: not valid JSON:") and reason in err

    @pytest.mark.parametrize("horizon", [
        {"periods": 1, "period_length_months": MAX_DISCOUNTED_MONTHS + 1},
        {"periods": 1, "period_length_months": 1_200_000_001},
        {"periods": 3, "period_length_months": 401},
    ])
    def test_discounted_horizon_over_100_years_exits_4(self, horizon, tmp_path, capsys):
        doc = _with_field("horizon", horizon)
        doc["scenarios"][0]["volume"]["per_period"] = [1] * horizon["periods"]
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        assert main(["compute", str(path), "full"]) == 4
        assert "scenarios[0].horizon: a discounted horizon" in capsys.readouterr().err
        doc["scenarios"][0]["discount"] = {"mode": "none"}
        path.write_text(json.dumps(doc))
        assert main(["compute", str(path), "full"]) == 0


def _markdown_cells(line: str) -> list:
    """Cells of one rendered markdown row, un-escaped: split at each unescaped
    ``|``, drop the padding space on each side, and read ``\\x`` as ``x`` and
    ``<br>`` as a line feed."""
    cells, cell, chars = [], "", iter(line)
    for ch in chars:
        if ch == "\\":
            cell += next(chars)
        elif ch == "|":
            cells.append(cell)
            cell = ""
        else:
            cell += ch
    assert cells[0] == "" and cell == ""
    return [c[1:-1].replace("<br>", "\n") for c in cells[1:]]


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

    @settings(max_examples=150)
    @given(names=st.lists(st.text(alphabet="ab |\\\r\n", min_size=1, max_size=8),
                          min_size=1, max_size=6, unique=True))
    def test_markdown_name_cells_stay_on_their_row(self, names):
        scenarios = [simple_scenario(name, "0", "0.01", 1_000) for name in names]
        rendered = build_comparison_table(scenarios).render()
        lines = rendered.splitlines()
        assert rendered.endswith("\n") and len(lines) == len(names) + 2
        cells = [_markdown_cells(line)[0] for line in lines[2:]]
        # every line break comes back as the <br> it was written as
        expected = [re.sub(r"\r\n?", "\n", name) for name in names]
        assert sorted(cells) == sorted(expected)

    def test_markdown_escapes_backslash_before_pipe(self):
        table = ReportTable(("a", "b"), (("x\\|y", "1\r\n2\r3\n4"),))
        assert table.render().split("\n")[2] == "| x\\\\\\|y | 1<br>2<br>3<br>4 |"

    def test_render_is_deterministic(self):
        scenarios = load_scenarios(FIXTURES / "table1.json")
        a = build_comparison_table(scenarios).render()
        b = build_comparison_table(load_scenarios(FIXTURES / "table1.json")).render()
        assert a == b


def _grid_values(parameter, start, stop, step) -> list:
    """The grid of a sweep command as values: multipliers as Fractions."""
    points, q = _sweep_grid(parameter, start, stop, step)
    return [Fraction(point, q) for point in points]


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

    def test_capex_multiplier_cells(self, llama):
        points = (Fraction(7, 10**12), Fraction(1, 1024), Fraction(1, 3), Fraction(1, 2),
                  Fraction(21, 20), Fraction(3))
        text = sweep_series_csv(sweep(llama, SweepSpec("capex_multiplier", points)))
        assert text.split("\r\n") == [
            "capex_multiplier,lcoai_per_1000_usd", "0.000000000007,4.80", "0.0009765625,4.82",
            "1/3,11.47", "0.5,14.80", "1.05,25.80", "3,64.80", ""]

    def test_capex_multiplier_sweep_command(self, capsys):
        code = main(["sweep", str(FIXTURES / "table1.json"), "LLaMA-2-13B self-hosted",
                     "capex_multiplier", "--start", "0.25", "--stop", "1", "--step", "0.375"])
        assert code == 0
        assert capsys.readouterr().out.splitlines() == [
            "capex_multiplier,lcoai_per_1000_usd", "0.25,9.80", "0.625,17.30", "1,24.80"]

    def test_undefined_point_renders_na(self, llama):
        text = sweep_series_csv(sweep(llama, SweepSpec("volume", (0, 1_000_000))))
        lines = text.splitlines()
        assert lines[1] == "0,NA"
        assert lines[2] == "1000000,204.80"

    def test_zero_volume_base_on_every_parameter(self):
        base = simple_scenario("idle", "200000", "0.0048", (0, 0), horizon=Horizon(2, 3),
                               discount=DiscountPolicy("wacc", Fraction(8, 100)))
        grids = {"volume": (0, 1_000_000),
                 "opex_rate": (PerInferenceRate(1_000), PerInferenceRate(2_000)),
                 "capex_multiplier": (Fraction(1, 2), Fraction(1))}
        rows = {parameter: sweep_series_csv(sweep(base, SweepSpec(parameter, points)))
                .splitlines()[1:] for parameter, points in grids.items()}
        assert rows["opex_rate"] == ["0.0010,NA", "0.0020,NA"]
        assert rows["capex_multiplier"] == ["0.5,NA", "1,NA"]
        assert rows["volume"][0] == "0,NA"
        assert rows["volume"][1].split(",")[1] != "NA"

    @pytest.mark.parametrize("points, cells", [
        ((Fraction(1, 3),), ["1/3"]),
        ((Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)), ["1/3", "0.5", "2/3"]),
        ((Fraction(1), Fraction(2), Fraction(10)), ["1", "2", "10"]),
        ((Fraction(1, 2), Fraction(10), Fraction(201, 20)), ["0.5", "10", "10.05"]),
    ])
    def test_library_multiplier_cells(self, llama, points, cells):
        text = sweep_series_csv(sweep(llama, SweepSpec("capex_multiplier", points)))
        assert [line.split(",")[0] for line in text.splitlines()[1:]] == cells

    @settings(max_examples=100)
    @given(st.lists(st.tuples(st.integers(1, 10**9), st.integers(0, 12), st.integers(0, 12)),
                    min_size=1, max_size=8))
    def test_multiplier_cells_are_each_points_shortest_decimal(self, triples):
        points = sorted({Fraction(n, 2**a * 5**b) for n, a, b in triples})
        base = simple_scenario("s", "200000", "0.0048", 10_000_000)
        text = sweep_series_csv(sweep(base, SweepSpec("capex_multiplier", points)))
        assert [line.split(",")[0] for line in text.splitlines()[1:]] == [
            decimal_text(p) for p in points]


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

    def test_table_with_one_zero_volume_scenario_exits_3(self, tmp_path, capsys):
        doc = scenarios_to_dict(load_scenarios(FIXTURES / "table1.json"))
        doc["scenarios"].insert(1, {"name": "idle", "opex": {"per_inference_usd": "0.01"},
                                    "volume": {"per_period": [0, 0]},
                                    "horizon": {"periods": 2, "period_length_months": 6}})
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(doc))
        for argv in (["table", str(path)], ["--format", "csv", "table", str(path)]):
            assert main(argv) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: scenario 'idle' projects zero valid inferences\n"

    def test_missing_file_exits_2(self, capsys):
        assert main(["compute", "no-such-file.json", "x"]) == 2
        assert capsys.readouterr().err == (
            "error: [Errno 2] No such file or directory: 'no-such-file.json'\n")

    def test_a_directory_for_a_scenario_file_exits_2(self, tmp_path, capsys):
        assert main(["table", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: {str(tmp_path)!r}\n"

    @pytest.mark.parametrize("error, code, message", [
        (OSError(errno.ENOSPC, "No space left on device"), 1,
         "error: [Errno 28] No space left on device\n"),
        (BrokenPipeError(errno.EPIPE, "Broken pipe"), 141, ""),
    ], ids=["disk-full", "broken-pipe"])
    def test_a_failed_write_to_stdout_is_not_a_missing_file(self, monkeypatch, capsys,
                                                            error, code, message):
        class Failing(io.StringIO):  # and has no file descriptor
            def write(self, text):
                raise error

        monkeypatch.setattr(sys, "stdout", Failing())
        # argparse writes the help text itself
        for argv in (["table", str(FIXTURES / "table1.json")], ["--help"], ["sweep", "--help"]):
            assert main(argv) == code, argv
            assert capsys.readouterr().err == message

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

    def test_table_ignores_scenario_order(self, tmp_path, capsys):
        # compare breaks ties by a total order, so any permutation of the
        # file renders the same bytes in both formats
        document = json.loads((FIXTURES / "table1.json").read_text())
        permuted = tmp_path / "permuted.json"
        for order in itertools.permutations(document["scenarios"]):
            permuted.write_text(json.dumps({**document, "scenarios": list(order)}))
            for fmt in ([], ["--format", "csv"]):
                assert main([*fmt, "table", str(FIXTURES / "table1.json")]) == 0
                expected = capsys.readouterr().out
                assert main([*fmt, "table", str(permuted)]) == 0
                assert capsys.readouterr().out == expected

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
            _sweep_grid(parameter, start, stop, step)

    @pytest.mark.parametrize("parameter, start, stop, step, words", [
        ("volume", "-1", "5", "1", "volume points must be non-negative integers"),
        ("opex_rate", "-0.001", "0.002", "0.001", "per-inference rate must be non-negative"),
        ("capex_multiplier", "0", "1", "0.5", "capex multipliers must be positive"),
        ("capex_multiplier", "-0.5", "1", "0.5", "capex multipliers must be positive"),
        ("volume", "1", "5", "0", "step must be positive"),
        ("opex_rate", "0.001", "0.002", "-0.001", "step must be positive"),
        ("capex_multiplier", "2", "1", "0.5", "stop must be at least start"),
        ("volume", "0", str(MAX_SWEEP_POINTS), "1",
         f"the grid has {MAX_SWEEP_POINTS + 1:,} points; the limit is {MAX_SWEEP_POINTS:,}"),
        # the cap is checked before the sign of the first point
        ("volume", "-1", str(MAX_SWEEP_POINTS - 1), "1",
         f"the grid has {MAX_SWEEP_POINTS + 1:,} points; the limit is {MAX_SWEEP_POINTS:,}"),
    ])
    def test_sweep_grid_errors_print_nothing_to_stdout(self, parameter, start, stop, step,
                                                       words, capsys):
        argv = ["sweep", str(FIXTURES / "table1.json"), "GPT-4.1 API", parameter,
                "--start", start, "--stop", stop, "--step", step]
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"error: {words}\n")
        # an unknown scenario is reported first
        argv[2] = "Nonexistent"
        assert main(argv) == 2
        assert capsys.readouterr() == ("", "error: scenario 'Nonexistent' not found\n")

    def test_sweep_grid_at_the_point_cap_is_built(self):
        points, q = _sweep_grid("volume", "1", str(MAX_SWEEP_POINTS), "1")
        assert len(points) == MAX_SWEEP_POINTS and points[-1] == MAX_SWEEP_POINTS and q == 1

    def test_sweep_over_the_point_cap_exits_1(self, capsys):
        code = main([
            "sweep", str(FIXTURES / "table1.json"), "GPT-4.1 API", "volume",
            "--start", "0", "--stop", "1000000000000", "--step", "1"])
        assert code == 1
        assert "1,000,000,000,001 points" in capsys.readouterr().err

    @pytest.mark.parametrize("parameter, step", [
        ("capex_multiplier", "1e-9999"), ("capex_multiplier", "1e9999"),
        ("opex_rate", "1e-999999999"), ("opex_rate", "1e999999")])
    def test_sweep_extreme_exponent_exits_1(self, parameter, step, capsys):
        code = main([
            "sweep", str(FIXTURES / "table1.json"), "GPT-4.1 API", parameter,
            "--start", "1", "--stop", "2", "--step", step])
        assert code == 1
        assert "exponent" in capsys.readouterr().err

    def test_decimal_text_exponent_is_bounded(self):
        assert exact_ratio(f"1e-{MAX_DECIMAL_EXPONENT}") == (1, 10**MAX_DECIMAL_EXPONENT)
        for text in ("1e-9999", "1e9999", f"1e-{MAX_DECIMAL_EXPONENT + 1}"):
            with pytest.raises(ValueError, match="exponent"):
                exact_ratio(text)

    def test_sweep_grid_is_start_plus_multiples_of_step(self):
        assert _grid_values("capex_multiplier", "0.5", "1.2", "0.25") == [
            Fraction(1, 2), Fraction(3, 4), Fraction(1)]
        assert _grid_values("volume", "0", "10", "5") == [0, 5, 10]

    def test_sweep_capex_grid_values_have_at_most_100_places(self, capsys):
        places = "0." + "0" * (MAX_DECIMAL_EXPONENT - 1) + "1"
        assert _grid_values("capex_multiplier", "1", "1", places) == [Fraction(1)]
        # 20,000 places: refused before the grid is built, not after minutes
        step = "0.000999" + "9" * 19_994
        began = time.perf_counter()
        code = main(["sweep", str(FIXTURES / "table1.json"), "GPT-4.1 API",
                     "capex_multiplier", "--start", "1", "--stop", "2", "--step", step])
        assert time.perf_counter() - began < 1
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: more than {MAX_DECIMAL_EXPONENT} decimal places "
            f"(a denominator over 10^{MAX_DECIMAL_EXPONENT})\n")

    def test_sweep_volume_is_read_as_decimal_text(self, capsys):
        assert _grid_values("volume", " 1_000 ", "+2000", "\u0661\u0660\u0660\u0660") == [
            1000, 2000]
        assert _grid_values("volume", "1e3", "2000.0", "10E2") == [1000, 2000]
        # a whole number of 101 digits is read; the grid is its one point
        assert _grid_values("volume", "9" * 101, "9" * 101, "1") == [int("9" * 101)]
        argv = ["sweep", str(FIXTURES / "table1.json"), "GPT-4.1 API", "volume",
                "--start", "1000", "--stop", "2000", "--step", "1000"]
        assert main(argv) == 0
        expected = capsys.readouterr()
        argv[5] = "1e3"
        assert main(argv) == 0
        assert capsys.readouterr() == expected

    @pytest.mark.parametrize("start, words", [
        ("1.5", "not a whole number: '1.5'"),
        ("1000.5e-1", "not a whole number: '1000.5e-1'"),
        ("x", "not a decimal value: 'x'"),
        ("1" + "0" * 101, f"the exponent of '1{'0' * 19}[62 characters left out]{'0' * 20}' "
                          f"is outside ±{MAX_DECIMAL_EXPONENT}"),
        ("9" * 200, f"the exponent of '{'9' * 20}[160 characters left out]{'9' * 20}' "
                    f"is outside ±{MAX_DECIMAL_EXPONENT}"),
    ])
    def test_sweep_volume_that_is_not_a_bounded_whole_number_exits_1(self, start, words,
                                                                     capsys):
        code = main(["sweep", str(FIXTURES / "table1.json"), "GPT-4.1 API", "volume",
                     "--start", start, "--stop", "1" + "0" * 101, "--step", "1"])
        assert code == 1
        assert capsys.readouterr() == ("", f"error: {words}\n")

    @pytest.mark.parametrize("argv", [
        ["breakeven", "FILE", "a", "b", "--search-max"],
        ["ingest", "FILE", "--periods"],
        ["ingest", "FILE", "--period-months"],
    ], ids=["search-max", "periods", "period-months"])
    @pytest.mark.parametrize("value, words", [
        ("9" * 5_000, f"the exponent of '{'9' * 20}[4,960 characters left out]{'9' * 20}' "
                      f"is outside ±{MAX_DECIMAL_EXPONENT}"),
        ("1.5", "not a whole number: '1.5'"),
        ("x", "not a decimal value: 'x'"),
    ], ids=["5,000 digits", "fraction", "malformed"])
    def test_an_integer_option_is_read_before_any_file(self, argv, value, words, tmp_path,
                                                       capsys):
        # the file does not exist: the malformed value is reported first
        argv = [str(tmp_path / "missing") if arg == "FILE" else arg for arg in argv]
        assert main(argv + [value]) == 1
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"error: {words}\n")
        assert len(err.encode()) < 200

    def test_integer_options_read_decimal_text(self, capsys):
        table = str(FIXTURES / "table1.json")
        log = str(FIXTURES / "telemetry_sample.jsonl")
        for plain, spelled in [
                (["breakeven", table, "LLaMA-2-13B self-hosted", "Claude Haiku API",
                  "--search-max", "1000"],
                 ["breakeven", table, "LLaMA-2-13B self-hosted", "Claude Haiku API",
                  "--search-max", "1e3"]),
                (["ingest", log, "--periods", "3", "--period-months", "1"],
                 ["ingest", log, "--periods", "3.0", "--period-months", "1E0"])]:
            assert main(plain) == 0
            expected = capsys.readouterr()
            assert main(spelled) == 0
            assert capsys.readouterr() == expected

    def test_parser_is_built_once_and_reused(self, tmp_path, monkeypatch, capsys):
        log = tmp_path / "log.jsonl"
        log.write_text((FIXTURES / "telemetry_sample.jsonl").read_text() + "not json\n")
        table = str(FIXTURES / "table1.json")
        runs = (["--format", "csv", "table", table], ["table", table], ["table"],
                ["--strict", "ingest", str(log)], ["ingest", str(log)])
        fresh = []
        for argv in runs:
            cli_report._shared_parser.cache_clear()
            fresh.append((main(argv), *capsys.readouterr()))
        built = []
        build_parser = cli_report.build_parser
        monkeypatch.setattr(cli_report, "build_parser",
                            lambda: built.append(1) or build_parser())
        cli_report._shared_parser.cache_clear()
        assert [(main(argv), *capsys.readouterr()) for argv in runs] == fresh
        assert len(built) == 1
        assert [code for code, _, _ in fresh] == [0, 0, 1, 4, 0]

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

    @pytest.mark.parametrize("search_max, message", [
        ("0", "positive"), ("-5", "positive"),
        (str(MAX_SEARCH_MAX + 1), "at most"), ("9" * 101, "at most"),
        ("9" * 4000, "exponent")])
    def test_breakeven_search_max_out_of_range_exits_1(self, search_max, message, capsys):
        code = main(["breakeven", str(FIXTURES / "table1.json"),
                     "LLaMA-2-13B self-hosted", "GPT-4.1 API", "--search-max", search_max])
        assert code == 1
        assert message in capsys.readouterr().err

    def test_breakeven_never_crossing_bisected_pair_is_not_exhausted(self, tmp_path, capsys):
        # two periods send the pair through bisection; the dearer capital also
        # has the dearer rate, so the curves never cross at any volume
        horizon = {"periods": 2, "period_length_months": 12}
        cheap = {"name": "cheap", "opex": {"per_inference_usd": "0.001"},
                 "volume": {"per_period": [5, 5]}, "horizon": horizon}
        dear = {"name": "dear", "capex": [{"label": "gpu", "amount_usd": "1000"}],
                "opex": {"per_inference_usd": "0.002"},
                "volume": {"per_period": [5, 5]}, "horizon": horizon}
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"version": 1, "scenarios": [dear, cheap]}))
        assert main(["breakeven", str(path), "dear", "cheap"]) == 0
        assert capsys.readouterr().out == "crossover: none (cheap is cheaper at every volume)\n"
        dear["opex"]["per_inference_usd"] = "0.0005"  # now it crosses at 666,667
        path.write_text(json.dumps({"version": 1, "scenarios": [dear, cheap]}))
        assert main(["breakeven", str(path), "dear", "cheap", "--search-max", "1000"]) == 0
        assert capsys.readouterr().out == (
            "crossover: none (cheap is cheaper at every volume up to the search bound of 1,000)\n")

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

    def test_ingest_skips_an_instant_past_year_9999(self, tmp_path, capsys):
        path = tmp_path / "log.jsonl"
        path.write_text('{"ts": "9999-12-31T23:00:00-05:00", "kind": "inference", "status": "ok"}\n'
                        '{"ts": "2025-01-01T00:00:01Z", "kind": "inference", "status": "ok"}\n')
        assert main(["ingest", str(path)]) == 0
        out = capsys.readouterr().out
        assert "valid=1" in out
        assert "skipped_malformed=1" in out
        assert main(["--strict", "ingest", str(path)]) == 4
        err = capsys.readouterr().err
        assert "line 1" in err and "outside years 1-9999" in err

    @pytest.mark.parametrize("line, reason", [
        ("[" * 100_000, "recursion"),
        ('{"ts": "2025-01-01T00:00:00Z", "kind": "inference", "status": "ok", "n": '
         + "9" * 5_000 + "}", "(4300"),
    ], ids=["deep", "long-int"])
    def test_ingest_skips_json_the_decoder_cannot_hold(self, line, reason, tmp_path, capsys):
        path = tmp_path / "log.jsonl"
        path.write_text('{"ts": "2025-01-01T00:00:01Z", "kind": "inference", "status": "ok"}\n'
                        + line + "\n")
        assert main(["ingest", str(path)]) == 0
        out = capsys.readouterr().out
        assert "valid=1" in out and "skipped_malformed=1" in out
        assert main(["--strict", "ingest", str(path)]) == 4
        err = capsys.readouterr().err
        assert "line 2: not valid JSON:" in err and reason in err

    def test_json_the_decoder_cannot_hold_is_worded_the_same_on_every_python(
            self, tmp_path, capsys):
        deep, digits = tmp_path / "deep.json", tmp_path / "digits.json"
        deep.write_text("[" * 100_000)
        digits.write_text("[" + "9" * 4_301 + "]")
        for path, words in [
                (deep, "nested deeper than the recursion limit"),
                (digits, "an integer exceeds the limit (4300 digits) for integer string conversion")]:
            assert main(["table", str(path)]) == 4
            assert capsys.readouterr().err == f"error: $: not valid JSON: {words}\n"
            assert main(["--strict", "ingest", str(path)]) == 4
            assert capsys.readouterr().err == f"error: line 1: not valid JSON: {words}\n"

    def test_trailing_comma_is_worded_the_same_on_every_python(self, tmp_path, capsys):
        # Python 3.13's json words these differently and points at the comma
        scenarios = tmp_path / "s.json"
        scenarios.write_text('{"version": 1,\n "scenarios": [],\n}\n')
        assert main(["table", str(scenarios)]) == 4
        assert capsys.readouterr().err == (
            "error: $: not valid JSON: trailing comma before the end of an object (line 2)\n")
        log = tmp_path / "log.jsonl"
        for line, kind in [('{"ts": "2025-01-01T00:00:00Z", "kind": "inference",}', "object"),
                           ("[1, ]", "array")]:
            log.write_text(f'{{"ts": "2025-01-01T00:00:01Z", "kind": "inference", "status": "ok"}}\n'
                           f"{line}\n")
            assert main(["--strict", "ingest", str(log)]) == 4
            assert capsys.readouterr().err == (
                f"error: line 2: not valid JSON: trailing comma before the end of an {kind}\n")

    @pytest.mark.parametrize("doc, msg, pos, kind", [
        # Pythons before 3.13 point at the bracket, 3.13 at the comma; each
        # decoder's form is built here, so every branch runs on every Python
        ('{"a": 1,\n}', "Expecting property name enclosed in double quotes", 9, "object"),
        ('{"a": 1,\n}', "Illegal trailing comma before end of object", 7, "object"),
        ("[1,\r\n\t ]", "Expecting value", 7, "array"),
        ("[1, ]", "Illegal trailing comma before end of array", 2, "array"),
    ])
    def test_trailing_comma_in_either_decoders_words(self, doc, msg, pos, kind):
        assert decode_error_message(json.JSONDecodeError(msg, doc, pos)) == (
            f"not valid JSON: trailing comma before the end of an {kind}", 1)

    def test_other_decode_errors_keep_the_decoders_words(self):
        # "Expecting value" at a bracket, but after a colon, not a comma
        exc = json.JSONDecodeError("Expecting value", '{"a":\n]', 6)
        assert decode_error_message(exc) == ("not valid JSON: Expecting value", 2)

    @pytest.mark.parametrize("start", ["9999-12-31T23:00:00-05:00", "0001-01-01T00:00:00+01:00"])
    def test_ingest_start_out_of_range_exits_1(self, start, capsys):
        code = main(["ingest", str(FIXTURES / "telemetry_sample.jsonl"), "--start", start])
        assert code == 1
        assert "outside years 1-9999" in capsys.readouterr().err

    def test_ingest_empty_log_without_start_counts_nothing(self, tmp_path, capsys):
        path = tmp_path / "log.jsonl"
        path.write_text("")
        assert main(["ingest", str(path)]) == 0
        assert capsys.readouterr().out == _NO_RECORDS

    def test_ingest_malformed_lines_only_without_start_counts_nothing(self, tmp_path, capsys):
        path = tmp_path / "log.jsonl"
        path.write_text('not json\n{"ts": "2025-01-01T00:00:00Z", "kind": "warmup"}\n')
        assert main(["ingest", str(path)]) == 0
        assert capsys.readouterr().out == _NO_RECORDS + "skipped_malformed=2\n"
        assert main(["--strict", "ingest", str(path)]) == 4

    @pytest.fixture
    def dash_named(self, tmp_path):
        path = tmp_path / "dash.json"
        path.write_text(json.dumps({"version": 1,
                                    "scenarios": [dict(_FULL_SCENARIO, name="-a_1")]}))
        return str(path)

    @pytest.mark.parametrize("command", [
        ["compute", "{file}", "--", "-a_1"],
        ["baseline", "{file}", "--baseline", "300", "--", "-a_1"],
        ["sweep", "{file}", "--start", "1", "--stop", "2", "--step", "1", "--", "-a_1", "volume"],
    ], ids=["compute", "baseline", "sweep"])
    def test_dash_leading_name_after_double_dash(self, command, dash_named, capsys):
        assert main([arg.format(file=dash_named) for arg in command]) == 0
        out = capsys.readouterr().out
        if command[0] == "compute":
            assert out.startswith("scenario: -a_1\n")

    def test_dash_leading_name_without_double_dash_is_a_usage_error(self, dash_named, capsys):
        assert main(["compute", dash_named, "-a_1"]) == 1

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0


def _env(unbuffered: bool) -> dict:
    """This process's environment, with stdout unbuffered or block-buffered."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


class TestCliSubprocess:
    def test_module_invocation_round_trip(self):
        result = subprocess.run(
            [sys.executable, "-m", "lcoai", "table", str(FIXTURES / "table1.json")],
            capture_output=True, text=True, check=True)
        assert result.stdout == (GOLDEN / "table1.md").read_text()

    @pytest.mark.parametrize("window", [
        (),
        ("--start", "2025-01-15T00:00:00+01:00", "--periods", "3", "--period-months", "1"),
    ])
    def test_ingest_stdin_prints_what_the_path_prints(self, window, tmp_path):
        lines = (FIXTURES / "telemetry_sample.jsonl").read_text().splitlines(True)
        log = "".join(reversed(lines)) + "not json\n"
        path = tmp_path / "log.jsonl"
        path.write_text(log)
        command = [sys.executable, "-m", "lcoai", "ingest"]
        from_path = subprocess.run(command + [str(path), *window],
                                   capture_output=True, text=True, check=True)
        from_stdin = subprocess.run(command + ["-", *window], input=log,
                                    capture_output=True, text=True, check=True)
        assert "skipped_malformed=1" in from_path.stdout
        assert from_stdin.stdout == from_path.stdout

    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_a_reader_that_closes_the_pipe_ends_the_sweep_quietly(self, unbuffered):
        sweep = subprocess.Popen(
            [sys.executable, "-m", "lcoai", "sweep", str(FIXTURES / "table1.json"),
             "GPT-4.1 API", "volume", "--start", "1", "--stop", "1000000", "--step", "1"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_env(unbuffered))
        assert sweep.stdout.readline() == b"volume,lcoai_per_1000_usd\r\n"
        sweep.stdout.close()
        assert sweep.wait(timeout=120) == 141  # 128 + SIGPIPE, as a shell reports it
        assert sweep.stderr.read() == b""
        sweep.stderr.close()

    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_a_closed_pipe_ends_compute_quietly(self, unbuffered):
        # buffered, the lines fail only at the flush before main returns
        compute = subprocess.Popen(
            [sys.executable, "-m", "lcoai", "compute", str(FIXTURES / "table1.json"),
             "GPT-4.1 API"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_env(unbuffered))
        compute.stdout.close()
        assert compute.wait(timeout=120) == 141
        assert compute.stderr.read() == b""
        compute.stderr.close()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_a_full_disk_prints_one_error_and_exits_1(self, unbuffered):
        for argv in (["table", str(FIXTURES / "table1.json")], ["--help"]):
            with open("/dev/full", "w") as full:
                result = subprocess.run(
                    [sys.executable, "-m", "lcoai", *argv],
                    stdout=full, stderr=subprocess.PIPE, text=True, env=_env(unbuffered))
            assert result.returncode == 1, argv
            assert result.stderr == "error: [Errno 28] No space left on device\n"

    def test_exit_code_surfaces_through_interpreter(self):
        result = subprocess.run(
            [sys.executable, "-m", "lcoai", "compute",
             str(FIXTURES / "table1.json"), "missing"],
            capture_output=True, text=True)
        assert result.returncode == 2

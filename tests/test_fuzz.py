"""Hostile input through the command line.

Scenario documents and telemetry logs are mutated at random and run through
``cli_report.main`` in-process: whatever the input, no exception escapes and
the exit code is one of the documented 0-4.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from lcoai.cli_report import main

from conftest import FIXTURES

_WACC_DOC = {"version": 1, "scenarios": [
    {"name": "heavy",
     "capex": [{"label": "gpu", "amount_usd": "120000", "asset_life_months": 18},
               {"label": "tuning", "amount_usd": "5000.5"}],
     "opex": {"per_inference_usd": "0.0015", "fixed_per_period_usd": "1000"},
     "volume": {"per_period": [500, 0, 700]},
     "horizon": {"periods": 3, "period_length_months": 3},
     "discount": {"mode": "wacc", "annual_rate": "0.105", "discount_denominator": True}},
    {"name": "light",
     "opex": {"per_inference_usd": "0.0075"},
     "volume": {"per_period": [5, 5, 5]},
     "horizon": {"periods": 3, "period_length_months": 3},
     "discount": {"mode": "wacc", "annual_rate": "0.07"}},
]}
_BASE_DOCS = (json.loads((FIXTURES / "table1.json").read_text()), _WACC_DOC)

_DEEP = "[" * 100_000
_LONG_INT = "9" * 5_000

# values at and past every limit the loader, the domain types and the
# renderers check, beside JSON's other shapes
_ATOMS = st.one_of(
    st.none(), st.booleans(), st.integers(-10**6, 10**6), st.floats(), st.text(max_size=6),
    st.sampled_from([0, 1, 12, 1_200, 1_201, 10**18, 10**4_000, -10**4_000]),
    st.sampled_from(["0", "1", "-1", "0.08", "0.999999", "1e100", "1e-100", "1e101", "1e-94",
                     "0.0000001", "NaN", "Infinity", "-0", "1/3", "horizon", "wacc", "none",
                     "9" * 400, "12", " 7", "1_000"]),
)
_VALUES = st.recursive(_ATOMS, lambda inner: st.lists(inner, max_size=3)
                       | st.dictionaries(st.text(max_size=4), inner, max_size=3), max_leaves=6)


def _slots(node, path=()):
    """Every (path, key) below a JSON node that can be replaced or deleted."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield path, key
        if isinstance(child, (dict, list)):
            yield from _slots(child, path + (key,))


@st.composite
def documents(draw):
    doc = json.loads(json.dumps(draw(st.sampled_from(_BASE_DOCS))))
    for _ in range(draw(st.integers(1, 3))):
        slots = list(_slots(doc))
        if not slots:
            break
        path, key = draw(st.sampled_from(slots))
        parent = doc
        for step in path:
            parent = parent[step]
        if draw(st.integers(0, 4)) == 0:
            del parent[key]
        else:
            parent[key] = draw(_VALUES)
    hostile = draw(st.sampled_from((None, None, None, _DEEP, _LONG_INT)))
    if hostile is None:
        return json.dumps(doc)
    doc["hostile"] = "@"  # replaced by JSON the decoder itself cannot hold
    return json.dumps(doc).replace('"@"', hostile)


def _commands(path, names):
    a, b = names
    return st.sampled_from([
        ["table", path], ["--format", "csv", "table", path], ["compute", path, a],
        ["compute", path, b], ["baseline", path, a, "--baseline", "30"],
        ["sweep", path, a, "volume", "--start", "0", "--stop", "2000", "--step", "700"],
        ["sweep", path, b, "opex_rate", "--start", "0.001", "--stop", "0.01", "--step", "0.004"],
        ["sweep", path, a, "capex_multiplier", "--start", "0.5", "--stop", "2", "--step", "0.75"],
        ["breakeven", path, a, b], ["breakeven", path, b, a, "--search-max", "1000"],
    ])


def _run(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=250)
@given(data=st.data(), text=documents())
def test_mutated_scenario_documents(workdir, data, text):
    path = workdir / "scenarios.json"
    path.write_text(text, encoding="utf-8")
    names = ("LLaMA-2-13B self-hosted", "GPT-4.1 API") if "LLaMA" in text else ("heavy", "light")
    assert _run(data.draw(_commands(str(path), names))) in range(5)


_GOOD_LINE = {"ts": "2025-01-01T00:00:00Z", "kind": "inference", "status": "ok"}
_FIELD_VALUES = st.one_of(_VALUES, st.sampled_from([
    "2025-02-29T00:00:00Z", "9999-12-31T23:59:59-05:00", "0001-01-01T00:00:00+00:01",
    "2025-01-01T00:00:00.1234567890Z", "2025-01-01T00:00:60Z", "health_check", "error"]))


@st.composite
def log_lines(draw):
    lines = []
    for _ in range(draw(st.integers(1, 6))):
        line = dict(_GOOD_LINE)
        if draw(st.booleans()):
            line[draw(st.sampled_from(("ts", "kind", "status", "extra")))] = draw(_FIELD_VALUES)
        text = json.dumps(line)
        shape = draw(st.integers(0, 9))
        if shape == 0:
            text = draw(st.sampled_from((_DEEP, _LONG_INT, "{" + _LONG_INT, "{}" * 3)))
        elif shape == 1:
            text = text[:draw(st.integers(0, len(text)))]
        lines.append(text)
    return "\n".join(lines) + "\n"


@settings(max_examples=150)
@given(text=log_lines(), strict=st.booleans(), periods=st.sampled_from(("1", "3", "60")),
       start=st.sampled_from((None, "2024-12-31T23:00:00-01:00", "9999-12-31T00:00:00Z")))
def test_mutated_telemetry_logs(workdir, text, strict, periods, start):
    path = workdir / "log.jsonl"
    path.write_text(text, encoding="utf-8")
    argv = ["--strict"] if strict else []
    argv += ["ingest", str(path), "--periods", periods, "--period-months", "1"]
    if start:
        argv += ["--start", start]
    assert _run(argv) in range(5)

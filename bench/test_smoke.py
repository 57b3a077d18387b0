"""Smoke test of the benchmark on tiny inputs.

Checks outputs, metric names and units, the per-layer counts that do not
depend on timing, and that the oracle rejects wrong answers. It never gates on
wall time. Run from the repository root:

    python3 -m pytest -q bench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import metrics
import oracle
import run
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
TINY = workloads.SIZES["tiny"]


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def test_benchmark_json_matches_declarations():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert doc["command"] == ["python3", "bench/run.py"]
    assert doc["paths"] == ["bench"]
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert doc["end_to_end"] == [
        {"name": n, "unit": u, "better": b, "bound": bound}
        for n, u, b, bound, _ in metrics.END_TO_END]
    assert doc["per_layer"] == [
        {"name": n, "unit": u, "better": b} for n, u, b, _, _ in metrics.PER_LAYER]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_is_correct_and_complete(workload, trace):
    done = bench("--workload", workload, "--seed", "3", "--seconds", "0.3",
                 "--trace", str(trace), "--scale", "tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = metrics.PER_LAYER if trace else metrics.END_TO_END
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {d[0]: d[1] for d in declared}
    if trace:
        check_layer_counts(workload, {n: m["value"] for n, m in result["metrics"].items()})


def check_layer_counts(workload, values):
    """Counts repeat exactly; they show each workload loads the layers it should."""
    if workload == "portfolio":
        n_md, n_csv, *_ = TINY["portfolio_mix"]
        assert values["decision.compare_rows"] == (n_md + n_csv) * TINY["portfolio_scenarios"]
        assert values["sens.breakeven_probes"] == 0  # closed form, no probes
        assert values["ingest.lines"] == 0
    elif workload == "horizon-sweeps":
        assert values["sens.breakeven_probes"] > 0
        assert values["core.discount_calls"] > 0
        assert values["core.exact_denom_digits"] > 100
        assert values["decision.compare_rows"] == 0
    else:
        n_lenient, n_strict = TINY["ingest_mix"]
        lines = n_lenient * TINY["log_lines"] + n_strict * TINY["clean_log_lines"]
        assert values["ingest.lines"] == lines
        assert values["core.compute_calls"] == 0  # cost_core stays idle
        assert values["ingest.skipped"] > 0
        assert 0 < values["ingest.valid_ratio"] < 1
        assert values["ingest.traced_peak_mib"] > 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_oracle_rejects_wrong_outputs(workload, tmp_path):
    built = workloads.build(workload, 5, tmp_path, "tiny")
    for request in built.requests:
        if request.confirm is not None:
            continue
        expected = request.expected
        assert run.correct(request, 0, expected)
        assert not run.correct(request, 1, expected)
        if isinstance(expected, str):
            wrong = expected.replace("1", "2", 1) if "1" in expected else expected + "x"
        else:
            wrong = [(p, low + 1, high) for p, low, high in expected]
        assert not run.correct(request, 0, wrong), request.kind


def test_breakeven_confirmation_is_off_by_one_tight(tmp_path):
    built = workloads.build("horizon-sweeps", 5, tmp_path, "tiny")
    client = run.Client()
    for request in (r for r in built.requests if r.kind == "breakeven"):
        code, output = client.execute(request)
        assert code == 0 and request.confirm(output)
        first = output.splitlines()[0]
        volume = int(first.split()[1].replace(",", ""))
        for wrong in (volume - 1, volume + 1):
            shifted = output.replace(first, f"crossover: {wrong:,} inferences")
            assert not request.confirm(shifted)


def test_oracle_rounding_rules():
    assert oracle.half_away(Fraction(5, 2)) == 3
    assert oracle.half_away(Fraction(-5, 2)) == -3
    assert oracle.money(1_234_565_000) == "$1,234.57"
    assert oracle.money(48_00, 4) == "$0.0048"
    assert oracle.usd_text(50_000 * oracle.MICRO) == "50000"
    assert oracle.usd_text(4_800) == "0.0048"


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = bench("--workload", "portfolio", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout

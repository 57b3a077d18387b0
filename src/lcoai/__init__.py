"""Levelized cost of AI (LCOAI) modeling toolkit.

Computes the lifecycle cost per inference of AI deployment scenarios with
exact micro-dollar arithmetic, runs volume/OPEX/CAPEX sensitivity sweeps,
solves break-even volumes between alternatives, and counts valid inferences
from telemetry logs.

``import lcoai`` loads no submodule: each public name is looked up in its
submodule on use, and that submodule is imported the first time one of its
names is used.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# each public name -> the submodule that defines it
_SUBMODULE = {
    "HORIZON_LIFE": "cost_core",
    "NO_DISCOUNT": "cost_core",
    "CapexItem": "cost_core",
    "CostScenario": "cost_core",
    "DiscountPolicy": "cost_core",
    "Horizon": "cost_core",
    "LcoaiResult": "cost_core",
    "Money": "cost_core",
    "OpexModel": "cost_core",
    "PerInferenceRate": "cost_core",
    "VolumeProjection": "cost_core",
    "amortize_capex": "cost_core",
    "compute_lcoai": "cost_core",
    "discount_factor": "cost_core",
    "round_half_away": "cost_core",
    "usd_to_micro": "cost_core",
    "ComparisonRow": "decision",
    "baseline_savings": "decision",
    "compare": "decision",
    "fine_tune_threshold": "decision",
    "FieldError": "errors",
    "IncompatibleScenariosError": "errors",
    "InvalidHorizonError": "errors",
    "LcoaiError": "errors",
    "LogParseError": "errors",
    "ScenarioFileError": "errors",
    "UndefinedMetricError": "errors",
    "InferenceRecord": "ingest",
    "RecordKind": "ingest",
    "RecordStatus": "ingest",
    "VolumeCount": "ingest",
    "count_valid": "ingest",
    "parse_log": "ingest",
    "parse_rfc3339": "ingest",
    "BreakEvenResult": "sensitivity",
    "SweepSpec": "sensitivity",
    "break_even": "sensitivity",
    "sweep": "sensitivity",
    "tornado": "sensitivity",
    "with_capex_scaled": "sensitivity",
    "with_opex_rate": "sensitivity",
    "with_total_volume": "sensitivity",
    "load_scenarios": "schema",
    "save_scenarios": "schema",
    "scenarios_from_dict": "schema",
    "scenarios_to_dict": "schema",
    "ReportTable": "cli_report",
    "build_comparison_table": "cli_report",
    "format_usd": "cli_report",
    "sweep_series_csv": "cli_report",
}

__all__ = sorted(_SUBMODULE)


def __getattr__(name: str):
    # looked up afresh on every use and never stored here, so that a function
    # replaced in its submodule (as bench/tracing.py does) is seen at once
    try:
        module = _SUBMODULE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(_import_module(f"{__name__}.{module}"), name)


def __dir__() -> list:
    return sorted(set(globals()) | set(__all__))

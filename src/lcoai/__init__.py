"""Levelized cost of AI (LCOAI) modeling toolkit.

Computes the lifecycle cost per inference of AI deployment scenarios with
exact micro-dollar arithmetic, runs volume/OPEX/CAPEX sensitivity sweeps,
solves break-even volumes between alternatives, and counts valid inferences
from telemetry logs.
"""

from types import ModuleType as _ModuleType

from .cost_core import (
    HORIZON_LIFE,
    MICRO_PER_USD,
    NO_DISCOUNT,
    CapexItem,
    CostScenario,
    DiscountPolicy,
    Horizon,
    LcoaiResult,
    Money,
    OpexModel,
    PerInferenceRate,
    VolumeProjection,
    amortize_capex,
    compute_lcoai,
    discount_factor,
    round_half_away,
    usd_to_micro,
)
from .decision import (
    BaselineComparison,
    ComparisonRow,
    FineTuneDecision,
    baseline_savings,
    compare,
    fine_tune_threshold,
)
from .errors import (
    FieldError,
    IncompatibleScenariosError,
    InvalidHorizonError,
    LcoaiError,
    LogParseError,
    ScenarioFileError,
    UndefinedMetricError,
)
from .ingest import (
    InferenceRecord,
    ParseResult,
    RecordKind,
    RecordStatus,
    VolumeCount,
    count_valid,
    parse_log,
    parse_rfc3339,
)
from .sensitivity import (
    BreakEvenResult,
    SweepResult,
    SweepSpec,
    TornadoEntry,
    break_even,
    sweep,
    tornado,
    with_capex_scaled,
    with_opex_rate,
    with_total_volume,
)
from .cli_report import (
    ReportTable,
    build_comparison_table,
    format_rate,
    format_usd,
    load_scenarios,
    save_scenarios,
    scenarios_from_dict,
    scenarios_to_dict,
    sweep_series_csv,
)

__version__ = "0.1.0"

# every public name imported above; the submodules bound by those imports are not
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))

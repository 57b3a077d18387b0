"""The value types: every record class of lcoai is an immutable value, equal
and hashed by its fields, shown by its fields, and copied and pickled whole."""

import copy
import importlib
import pickle
from datetime import datetime, timezone
from fractions import Fraction
from operator import ge, gt, le, lt

import pytest

from lcoai import (
    CapexItem,
    ComparisonRow,
    CostScenario,
    DiscountPolicy,
    Horizon,
    InferenceRecord,
    LcoaiResult,
    Money,
    OpexModel,
    PerInferenceRate,
    RecordKind,
    RecordStatus,
    ReportTable,
    VolumeCount,
    VolumeProjection,
)
from lcoai._value import Value
from lcoai.decision import BaselineComparison, FineTuneDecision
from lcoai.ingest import ParseResult
from lcoai.sensitivity import BreakEvenResult, SweepResult, SweepSpec, TornadoEntry

UTC = timezone.utc
_RECORD = InferenceRecord(datetime(2025, 1, 1, tzinfo=UTC), RecordKind.INFERENCE, RecordStatus.OK)
_SCENARIO = CostScenario("s", (CapexItem("gpu", Money(10)),), OpexModel(PerInferenceRate(2)),
                         VolumeProjection((5, 6)), Horizon(2, 12))

# each class, every field by name in the constructor's order, and one field
# with another value
CASES = [
    (Money, {"amount": 5}, ("amount", 6)),
    (PerInferenceRate, {"rate": 5}, ("rate", 6)),
    (CapexItem, {"label": "gpu", "amount": Money(10), "asset_life_months": 36},
     ("asset_life_months", "horizon")),
    (OpexModel, {"per_inference": PerInferenceRate(2), "fixed_per_period": Money(3)},
     ("fixed_per_period", Money(4))),
    (VolumeProjection, {"per_period": (5, 6)}, ("per_period", (5, 7))),
    (Horizon, {"periods": 2, "period_length_months": 3}, ("periods", 3)),
    (DiscountPolicy, {"mode": "wacc", "annual_rate": Fraction(8, 100),
                      "discount_denominator": True}, ("annual_rate", Fraction(9, 100))),
    (CostScenario, {"name": "s", "capex": _SCENARIO.capex, "opex": _SCENARIO.opex,
                    "volume": _SCENARIO.volume, "horizon": _SCENARIO.horizon,
                    "discount": DiscountPolicy("wacc", Fraction(1, 10))}, ("name", "t")),
    (LcoaiResult, {"scenario_name": "s", "total_capex_charged": Money(1), "total_opex": Money(2),
                   "total_inferences": 3, "per_inference": PerInferenceRate(1),
                   "per_thousand": Money(1000), "discounted": True,
                   "exact_per_inference": Fraction(1, 3), "short_horizon_discounted": True},
     ("exact_per_inference", Fraction(2, 3))),
    (InferenceRecord, {"timestamp": _RECORD.timestamp, "kind": RecordKind.ADMIN,
                       "status": RecordStatus.ERROR}, ("kind", RecordKind.INFERENCE)),
    (ParseResult, {"records": (_RECORD,), "skipped": ()}, ("records", ())),
    (VolumeCount, {"valid": 1, "excluded_nonproductive": 2, "excluded_failed": 3,
                   "out_of_range": 4, "period_buckets": {0: 1}}, ("period_buckets", {1: 1})),
    (ComparisonRow, {"scenario_name": "s", "capex_total": Money(1),
                     "opex_rate": PerInferenceRate(2), "volume": 3, "opex_total": Money(4),
                     "per_thousand": Money(5)}, ("volume", 4)),
    (BaselineComparison, {"baseline_cost_per_thousand": Money(3), "lcoai_per_thousand": Money(1),
                          "savings_per_thousand": Money(2), "savings_ratio": Fraction(2, 3)},
     ("savings_ratio", None)),
    (FineTuneDecision, {"base_rate": PerInferenceRate(3), "tuned_rate": PerInferenceRate(1),
                        "tuning_capex": Money(10), "threshold_volume": 6},
     ("threshold_volume", None)),
    (SweepSpec, {"parameter": "opex_rate", "points": (PerInferenceRate(1), PerInferenceRate(2))},
     ("points", (PerInferenceRate(1),))),
    (SweepResult, {"scenario_name": "s", "parameter": "volume",
                   "series": ((1, Money(5)), (0, None))}, ("parameter", "opex_rate")),
    (BreakEvenResult, {"scenario_a": "a", "scenario_b": "b", "crossover_volume": 7,
                       "cheaper_below": "b", "cheaper_above": "a", "search_exhausted": False},
     ("crossover_volume", None)),
    (TornadoEntry, {"parameter": "capex", "low": Money(1), "high": Money(2)}, ("low", Money(0))),
    (ReportTable, {"columns": ("a", "b"), "rows": (("1", "2"),), "format": "csv"},
     ("format", "markdown")),
]
IDS = [cls.__name__ for cls, _, _ in CASES]


def test_every_value_class_is_listed():
    found = set()
    for module in ("cost_core", "decision", "ingest", "sensitivity", "cli_report"):
        namespace = vars(importlib.import_module(f"lcoai.{module}"))
        found |= {obj for obj in namespace.values()
                  if isinstance(obj, type) and issubclass(obj, Value)
                  and obj.__module__ == f"lcoai.{module}"}
    assert found == {cls for cls, _, _ in CASES}
    assert len(found) == 20


@pytest.mark.parametrize("cls, fields, change", CASES, ids=IDS)
def test_keyword_construction_sets_every_field_by_name(cls, fields, change):
    value = cls(**fields)
    assert {name: getattr(value, name) for name in fields} == fields
    assert cls(*fields.values()) == value  # positional order is the field order


@pytest.mark.parametrize("cls, fields, change", CASES, ids=IDS)
def test_equal_fields_give_equal_values_with_equal_hashes(cls, fields, change):
    a, b = cls(**fields), cls(**fields)
    assert a == b and not a != b
    name, other = change
    assert a != cls(**dict(fields, **{name: other}))
    assert a != fields and a != tuple(fields.values())
    if cls is VolumeCount:  # a dict field: unhashable, as the dict itself
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


def test_values_of_different_classes_differ_on_equal_fields():
    assert Money(5) != PerInferenceRate(5)
    assert not Money(5) == PerInferenceRate(5)
    assert Money(5).__eq__(PerInferenceRate(5)) is NotImplemented


def test_repr_shows_the_fields_by_name():
    assert repr(Horizon(1, 12)) == "Horizon(periods=1, period_length_months=12)"
    assert repr(Money(5)) == "Money(amount=5)"
    assert repr(_RECORD) == (
        "InferenceRecord(timestamp=datetime.datetime(2025, 1, 1, 0, 0, "
        "tzinfo=datetime.timezone.utc), kind=<RecordKind.INFERENCE: 'inference'>, "
        "status=<RecordStatus.OK: 'ok'>)")


def test_lcoai_result_repr_leaves_out_the_exact_value():
    cls, fields, _ = CASES[IDS.index("LcoaiResult")]
    shown = ", ".join(f"{name}={value!r}" for name, value in fields.items()
                      if name != "exact_per_inference")
    assert repr(cls(**fields)) == f"LcoaiResult({shown})"


@pytest.mark.parametrize("cls, fields, change", CASES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, fields, change):
    value = cls(**fields)
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError, match=f"'{name}'"):
            setattr(value, name, None)
        with pytest.raises(AttributeError, match=f"'{name}'"):
            delattr(value, name)
    assert value == cls(**fields)
    assert {name: getattr(value, name) for name in fields} == fields


@pytest.mark.parametrize("cls, fields, change", CASES, ids=IDS)
def test_only_money_and_rates_are_ordered(cls, fields, change):
    low = cls(**fields)
    if cls in (Money, PerInferenceRate):
        high = cls(fields[next(iter(fields))] + 1)
        assert low < high and low <= high and high > low and high >= low
        assert low <= low and low >= low and not low < low
        with pytest.raises(TypeError):
            low < (Money if cls is PerInferenceRate else PerInferenceRate)(10)
    else:
        for compare in (lt, le, gt, ge):
            with pytest.raises(TypeError):
                compare(low, cls(**fields))


def test_cost_scenarios_are_not_ordered():
    with pytest.raises(TypeError):
        _SCENARIO < _SCENARIO


@pytest.mark.parametrize("cls, fields, change", CASES, ids=IDS)
def test_copy_deepcopy_and_pickle_give_an_equal_value(cls, fields, change):
    value = cls(**fields)
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is cls
        assert twin == value


def test_each_volume_count_gets_its_own_buckets():
    a, b = VolumeCount(0, 0, 0, 0), VolumeCount(0, 0, 0, 0)
    assert a.period_buckets == {} and a.period_buckets is not b.period_buckets

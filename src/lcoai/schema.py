"""Scenario files: JSON, schema version 1.

Reads and writes the scenario documents the CLI and the library load.
JSON shape checks live here; the domain constructors of
:mod:`lcoai.cost_core` validate every value, and a rejected value is
reported as a :class:`~lcoai.errors.ScenarioFileError` at its field path.
"""

from __future__ import annotations

import json
from typing import Iterable, Optional

from .cost_core import (
    HORIZON_LIFE,
    NO_DISCOUNT,
    CapexItem,
    CostScenario,
    DiscountPolicy,
    Horizon,
    Money,
    OpexModel,
    PerInferenceRate,
    VolumeProjection,
    decimal_text,
)
from .errors import FieldError, ScenarioFileError, decode_error_message, decoder_limit_message

SCHEMA_VERSION = 1


def load_scenarios(path) -> list:
    """Load scenario definitions from a JSON file.

    Money is given as decimal-string USD and parsed exactly to micro-dollars;
    more than 6 fractional digits is a resolution error. Missing horizon and
    discount sections default to one 12-month period and no discounting.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            message, line = decode_error_message(exc)
            raise ScenarioFileError("$", f"{message} (line {line})") from exc
        except UnicodeDecodeError as exc:
            raise ScenarioFileError("$", "not valid UTF-8") from exc
        except (RecursionError, ValueError) as exc:  # too deep, or too many digits
            raise ScenarioFileError("$", decoder_limit_message(exc)) from None
    return scenarios_from_dict(doc)


def scenarios_from_dict(doc) -> list:
    if not isinstance(doc, dict):
        raise ScenarioFileError("$", "must be an object")
    version = doc.get("version")
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ScenarioFileError(
            "version", f"unknown version {version!r} (expected {SCHEMA_VERSION})")
    entries = doc.get("scenarios")
    if not isinstance(entries, list):
        raise ScenarioFileError("scenarios", "must be a list")
    scenarios = []
    seen = set()
    for i, entry in enumerate(entries):
        scenario = _scenario_from_dict(entry, i)
        if scenario.name in seen:
            raise ScenarioFileError(f"scenarios[{i}].name",
                                    f"duplicate scenario name {scenario.name!r}")
        seen.add(scenario.name)
        scenarios.append(scenario)
    return scenarios


def _require_dict(value, field: str = "") -> dict:
    if not isinstance(value, dict):
        raise FieldError(field, "must be an object")
    return value


def _require_list(value, field: str = "") -> list:
    if not isinstance(value, list):
        raise FieldError(field, "must be a list")
    return value


def _require_str(value, field: str) -> str:
    if not isinstance(value, str):
        raise FieldError(field, "must be a string")
    return value


def _parsed(obj: dict, key: str, parse, default=None):
    """``parse(obj[key])``, with a conversion error reported at ``key``."""
    try:
        return parse(obj.get(key, default))
    except (TypeError, ValueError) as exc:
        raise FieldError(key, str(exc)) from None


def _scenario_from_dict(entry, i: int) -> CostScenario:
    """Scenario ``scenarios[i]``: JSON shape checks here; the domain
    constructors validate every value. A FieldError names a field of the
    object being built: the scenario itself, or its ``section`` (capex item
    ``j`` within ``capex``). The full path is written only to raise."""
    section, j = "", None
    try:
        entry = _require_dict(entry)
        name = _require_str(entry.get("name"), "name")
        section = "capex"
        capex = []
        for j, raw in enumerate(_require_list(entry.get("capex", []))):
            raw = _require_dict(raw)
            capex.append(CapexItem(_require_str(raw.get("label"), "label"),
                                   _parsed(raw, "amount_usd", Money.from_usd),
                                   raw.get("asset_life_months", HORIZON_LIFE)))
        section, j = "opex", None
        raw = _require_dict(entry.get("opex"))
        opex = OpexModel(_parsed(raw, "per_inference_usd", PerInferenceRate.from_usd),
                         _parsed(raw, "fixed_per_period_usd", Money.from_usd, 0))
        section = "volume"
        raw = _require_dict(entry.get("volume"))
        volume = VolumeProjection(_require_list(raw.get("per_period"), "per_period"))
        section = "horizon"
        raw = _require_dict(entry.get("horizon", {}))
        horizon = Horizon(raw.get("periods", 1), raw.get("period_length_months", 12))
        section = "discount"
        raw = _require_dict(entry.get("discount", {}))
        discount = NO_DISCOUNT
        if raw:
            mode = raw.get("mode", "none")
            # a rate given alongside mode "none" is unused; normalize it away
            rate = raw.get("annual_rate") if mode == "wacc" else None
            if mode == "wacc" and not isinstance(rate, str):
                raise FieldError("annual_rate", "must be a decimal string")
            discount = DiscountPolicy(mode, rate, raw.get("discount_denominator", False))
        section = ""
        return CostScenario(name, capex, opex, volume, horizon, discount)
    except FieldError as exc:
        raise ScenarioFileError(_entry_path(i, section, j, exc.field), exc.message) from None
    except (TypeError, ValueError) as exc:
        raise ScenarioFileError(_entry_path(i, section, j), str(exc)) from None


def _entry_path(i: int, section: str, j: Optional[int], field: str = "") -> str:
    """Path of ``field`` (or of the object itself) in section ``section`` of
    ``scenarios[i]``, such as ``scenarios[2].capex[0].label``."""
    path = f"scenarios[{i}]"
    if section:
        path += f".{section}"
    if j is not None:
        path += f"[{j}]"
    return f"{path}.{field}" if field else path


def scenarios_to_dict(scenarios: Iterable[CostScenario]) -> dict:
    return {
        "version": SCHEMA_VERSION,
        "scenarios": [_scenario_to_dict(s) for s in scenarios],
    }


def _scenario_to_dict(s: CostScenario) -> dict:
    discount = {
        "mode": s.discount.mode,
        "discount_denominator": s.discount.discount_denominator,
    }
    if s.discount.mode == "wacc":
        discount["annual_rate"] = decimal_text(s.discount.annual_rate)
    return {
        "name": s.name,
        "capex": [
            {
                "label": item.label,
                "amount_usd": item.amount.usd_string(),
                "asset_life_months": item.asset_life_months,
            }
            for item in s.capex
        ],
        "opex": {
            "per_inference_usd": s.opex.per_inference.usd_string(),
            "fixed_per_period_usd": s.opex.fixed_per_period.usd_string(),
        },
        "volume": {"per_period": list(s.volume.per_period)},
        "horizon": {
            "periods": s.horizon.periods,
            "period_length_months": s.horizon.period_length_months,
        },
        "discount": discount,
    }


def save_scenarios(path, scenarios: Iterable[CostScenario]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scenarios_to_dict(scenarios), fh, indent=2)
        fh.write("\n")

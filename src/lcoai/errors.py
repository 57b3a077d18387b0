"""Exception types shared across the lcoai package."""

from __future__ import annotations


class LcoaiError(Exception):
    """Base class for all errors raised by this package."""


class InvalidHorizonError(LcoaiError, ValueError):
    """A horizon with no periods or a non-positive period length."""


class FieldError(LcoaiError, ValueError):
    """A domain value rejected for one named field of the object being built.

    ``field`` names it relative to that object, e.g. ``asset_life_months`` or
    ``per_period[3]``; the scenario loader appends it to the object's path.
    """

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field
        self.message = message


class UndefinedMetricError(LcoaiError):
    """The levelized cost is undefined (zero valid inferences)."""


class IncompatibleScenariosError(LcoaiError, ValueError):
    """Scenarios cannot be compared (mismatched horizons)."""


class LogParseError(LcoaiError, ValueError):
    """A malformed telemetry log line. Carries the 1-based line number."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class ScenarioFileError(LcoaiError, ValueError):
    """A scenario configuration file that violates the schema.

    ``path`` locates the offending field, e.g. ``scenarios[0].opex.per_inference_usd``.
    """

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path

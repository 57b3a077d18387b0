"""Exception types shared across the lcoai package."""

from __future__ import annotations

import json
import sys


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


def decoder_limit_message(exc: Exception) -> str:
    """The same words on every Python for JSON too deep or with an integer
    too long to decode (the RecursionError or ValueError it raised)."""
    if isinstance(exc, RecursionError):
        return "not valid JSON: nested deeper than the recursion limit"
    return (f"not valid JSON: an integer exceeds the limit "
            f"({sys.get_int_max_str_digits()} digits) for integer string conversion")


# json's words and position for a comma just before a closing bracket on
# Pythons before 3.13, which point at the bracket
_TRAILING_COMMA_BEFORE = {("Expecting property name enclosed in double quotes", "}"),
                          ("Expecting value", "]")}


def decode_error_message(exc: json.JSONDecodeError) -> tuple:
    """``(message, line)`` for a JSONDecodeError, the same on every Python.

    The words are the decoder's, except for a trailing comma (``{"a": 1,}``,
    ``[1,]``): Python 3.13 reports that as an "Illegal trailing comma" at
    the comma, earlier Pythons as "Expecting ..." at the bracket, so it is
    worded here and placed on the comma's line.
    """
    doc, pos, msg = exc.doc, exc.pos, exc.msg
    if msg.startswith("Illegal trailing comma"):
        comma = pos
    elif (msg, doc[pos:pos + 1]) in _TRAILING_COMMA_BEFORE:
        comma = len(doc[:pos].rstrip(" \t\n\r")) - 1
    else:
        comma = -1
    if comma < 0 or doc[comma] != ",":
        return f"not valid JSON: {msg}", exc.lineno
    kind = "array" if doc[comma + 1:].lstrip(" \t\n\r").startswith("]") else "object"
    return (f"not valid JSON: trailing comma before the end of an {kind}",
            doc.count("\n", 0, comma) + 1)

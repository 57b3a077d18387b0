"""Telemetry log parsing and valid-inference counting.

The denominator of the levelized cost only counts productive, traceable
outputs: health checks, background processes, and administrative queries are
excluded, and (by the strict default) so are errored inference calls.

Wire format: newline-delimited UTF-8 JSON objects with required string fields
"ts", "kind", and "status"; unknown extra fields are ignored. "ts" is an RFC
3339 date-time, ``YYYY-MM-DDTHH:MM:SS[.frac]`` then ``Z``, ``+HH:MM`` or
``-HH:MM`` (``t``/``z`` in either case, ASCII digits only, no second 60, no
other ISO 8601 form). Fraction digits past the sixth are truncated, and an
instant outside years 1-9999 once converted to UTC is rejected like any other
malformed timestamp. Parsing is streaming and single-pass. Counting may be
partitioned across workers and merged, since tallies add up record by record.
"""

from __future__ import annotations

import json
import re
from bisect import bisect_right
from dataclasses import dataclass, field
from datetime import MAXYEAR, datetime, timezone
from enum import Enum
from typing import TYPE_CHECKING, Iterable, Optional, Union

from .errors import LogParseError, decode_error_message, decoder_limit_message

if TYPE_CHECKING:  # an annotation only, so parsing a log never loads the cost kernel
    from .cost_core import Horizon


class RecordKind(Enum):
    """Closed taxonomy of telemetry call kinds; anything else is a parse error."""

    INFERENCE = "inference"
    HEALTH_CHECK = "health_check"
    ADMIN = "admin"
    BACKGROUND = "background"


class RecordStatus(Enum):
    OK = "ok"
    ERROR = "error"


@dataclass(frozen=True, slots=True)
class InferenceRecord:
    """One telemetry entry: when it happened, what made it, how it ended."""

    timestamp: datetime
    kind: RecordKind
    status: RecordStatus

    def __post_init__(self):
        if self.timestamp.tzinfo is None:
            raise ValueError("record timestamps must be timezone-aware")


@dataclass(frozen=True, slots=True)
class ParseResult:
    """Parsed records plus, in lenient mode, the lines that were skipped."""

    records: tuple
    skipped: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "records", tuple(self.records))
        object.__setattr__(self, "skipped", tuple(self.skipped))


@dataclass(frozen=True, slots=True)
class VolumeCount:
    """Classification tallies for a batch of records.

    ``valid``, ``excluded_nonproductive``, ``excluded_failed``, and
    ``out_of_range`` are disjoint and partition the input exactly.
    ``period_buckets`` maps 0-based period indices (aligned with
    VolumeProjection entries) to valid counts; bucket totals equal ``valid``.
    """

    valid: int
    excluded_nonproductive: int
    excluded_failed: int
    out_of_range: int
    period_buckets: dict = field(default_factory=dict)

    @property
    def total(self) -> int:
        return (self.valid + self.excluded_nonproductive
                + self.excluded_failed + self.out_of_range)


# RFC 3339 section 5.6 date-time, ASCII digits only; fromisoformat then checks
# the calendar (month length, leap years). The offset is optional here only so
# that a missing one gets its own message.
_RFC3339 = re.compile(
    r"([0-9]{4}-[0-9]{2}-[0-9]{2})[Tt]((?:[01][0-9]|2[0-3]):[0-5][0-9]:[0-5][0-9])"
    r"(?:\.([0-9]+))?([Zz]|[+-](?:[01][0-9]|2[0-3]):[0-5][0-9])?")


def parse_rfc3339(text: str) -> datetime:
    """Parse an RFC 3339 date-time (offset required) to a UTC datetime.

    Accepts ``YYYY-MM-DDTHH:MM:SS[.frac](Z|+HH:MM|-HH:MM)`` with ``t``/``z`` in
    either case and any number of fraction digits; digits past the sixth are
    truncated, so instants compare at microsecond resolution. Second 60, other
    ISO 8601 forms and instants outside years 1-9999 in UTC raise ValueError.
    """
    match = _RFC3339.fullmatch(text)
    if match is None:
        raise ValueError("not an RFC 3339 date-time "
                         "(YYYY-MM-DDTHH:MM:SS[.frac] then Z, +HH:MM or -HH:MM)")
    date, clock, fraction, offset = match.groups()
    if offset is None:
        raise ValueError("missing UTC offset")
    # the one spelling that both 3.10's and 3.11's fromisoformat accept
    if offset in ("Z", "z"):
        offset = "+00:00"
    if fraction is not None:
        clock = f"{clock}.{(fraction + '00000')[:6]}"
    parsed = datetime.fromisoformat(f"{date}T{clock}{offset}")
    try:
        return parsed.astimezone(timezone.utc)
    except OverflowError:
        raise ValueError("instant is outside years 1-9999 in UTC") from None


# one default decoder's scanner; it parses one value at an index, with no
# check for trailing data (json.loads adds that check, and the error text)
_scan_json = json.JSONDecoder().scan_once
_KINDS = {kind.value: kind for kind in RecordKind}
_STATUSES = {status.value: status for status in RecordStatus}
# _parse_line fills a record's slots directly: its fields are already checked
# (parse_rfc3339 returns aware datetimes), and the frozen dataclass __init__
# with __post_init__ costs about a fifth of parsing a line
_new_record = object.__new__
_set_timestamp = InferenceRecord.timestamp.__set__
_set_kind = InferenceRecord.kind.__set__
_set_status = InferenceRecord.status.__set__


def _parse_line(raw: Union[bytes, str], line_number: int) -> Optional[InferenceRecord]:
    if isinstance(raw, (bytes, bytearray)):
        try:
            raw = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise LogParseError(line_number, f"not valid UTF-8: {exc}") from exc
    text = raw.strip()
    if not text:
        return None
    try:
        obj, end = _scan_json(text, 0)
    except (StopIteration, ValueError, RecursionError):
        end = -1
    if end != len(text):
        # anything but one value spanning the line: json.loads words the error
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise LogParseError(line_number, decode_error_message(exc)[0]) from exc
        except (RecursionError, ValueError) as exc:  # too deep, or too many digits
            raise LogParseError(line_number, decoder_limit_message(exc)) from None
    if not isinstance(obj, dict):
        raise LogParseError(line_number, "each line must be a JSON object")
    ts, kind, status = obj.get("ts"), obj.get("kind"), obj.get("status")
    if not (isinstance(ts, str) and isinstance(kind, str) and isinstance(status, str)):
        key = next(k for k in ("ts", "kind", "status") if not isinstance(obj.get(k), str))
        raise LogParseError(line_number, f"missing or non-string field {key!r}")
    try:
        timestamp = parse_rfc3339(ts)
    except ValueError as exc:
        raise LogParseError(line_number, f"bad timestamp {ts!r}: {exc}") from exc
    record_kind = _KINDS.get(kind)
    if record_kind is None:
        raise LogParseError(line_number, f"unknown kind {kind!r}")
    record_status = _STATUSES.get(status)
    if record_status is None:
        raise LogParseError(line_number, f"unknown status {status!r}")
    record = _new_record(InferenceRecord)
    _set_timestamp(record, timestamp)
    _set_kind(record, record_kind)
    _set_status(record, record_status)
    return record


def parse_log(lines: Iterable, *, strict: bool = True) -> ParseResult:
    """Parse a stream of newline-delimited telemetry lines (bytes or text).

    Every well-formed line yields one record; blank lines are ignored. A
    malformed line raises :class:`~lcoai.errors.LogParseError` naming its
    1-based line number; with ``strict=False`` it is skipped and tallied in
    the result instead, as the error without its traceback or chained causes.
    """
    records = []
    skipped = []
    for line_number, raw in enumerate(lines, start=1):
        try:
            record = _parse_line(raw, line_number)
        except LogParseError as err:
            if strict:
                raise
            # keep the message and line number, not the frames holding the line
            err.__traceback__ = err.__cause__ = err.__context__ = None
            skipped.append(err)
            continue
        if record is not None:
            records.append(record)
    return ParseResult(tuple(records), tuple(skipped))


def _month_boundaries(start: datetime, months: int) -> list:
    """The UTC instants ``start + k months`` for k = 0, 1, ..., ``months``.

    Each keeps start's day and time of day (in UTC); a day past the end of
    its month rolls to midnight on the 1st of the next month. The list stops
    at the last boundary before ``datetime.max``, so its length is at most
    about 120,000 whatever ``months`` is.
    """
    first = start.astimezone(timezone.utc)
    origin = first.year * 12 + first.month - 1
    boundaries = []
    for index in range(origin, min(origin + months, MAXYEAR * 12 + 11) + 1):
        year, month = divmod(index, 12)
        month += 1
        try:
            boundaries.append(first.replace(year=year, month=month))
        except ValueError:  # the day is past the month's end, which December has not
            boundaries.append(datetime(year, month + 1, 1, tzinfo=timezone.utc))
    return boundaries


def count_valid(records: Iterable, horizon: Horizon, start: datetime,
                *, include_failed: bool = False) -> VolumeCount:
    """Classify records and bucket the productive ones into horizon periods.

    A record counts as valid when its kind is ``inference``, its status is
    ``ok``, and it falls inside [start, start + horizon). Non-inference kinds
    are non-productive; errored inferences are failed; productive records
    outside the horizon land in ``out_of_range`` and in no bucket. Period
    membership is by whole calendar months elapsed from ``start``: a record
    is in month k when ``start + k months <= ts < start + (k + 1) months``,
    where a month boundary that falls past a month's last day is the 1st of
    the next month at 00:00 UTC.

    The strict exclusion of errored inferences is reversible:
    ``include_failed=True`` admits them to the valid tally and the buckets.
    """
    if start.tzinfo is None:
        raise ValueError("start must be timezone-aware")
    edges = _month_boundaries(start, horizon.months)[::horizon.period_length_months]
    # per_period[i] counts productive records in period i - 1; 0 is before start
    # and, when the boundaries were not cut at datetime.max, len(edges) is at or
    # past the horizon's end
    per_period = [0] * (len(edges) + 1)
    nonproductive = failed = 0
    for record in records:
        if record.kind is not RecordKind.INFERENCE:
            nonproductive += 1
        elif record.status is not RecordStatus.OK and not include_failed:
            failed += 1
        else:
            per_period[bisect_right(edges, record.timestamp)] += 1
    buckets = {period: n for period, n in enumerate(per_period[1:horizon.periods + 1]) if n}
    valid = sum(buckets.values())
    out_of_range = sum(per_period) - valid
    return VolumeCount(valid, nonproductive, failed, out_of_range, buckets)

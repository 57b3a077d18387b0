"""Telemetry parsing and valid-inference counting."""

import calendar
import json
import random
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, settings, strategies as st

from lcoai import (
    Horizon,
    InferenceRecord,
    LogParseError,
    RecordKind,
    RecordStatus,
    VolumeCount,
    count_valid,
    parse_log,
    parse_rfc3339,
)
from lcoai.ingest import _month_boundaries

from conftest import FIXTURES

UTC = timezone.utc


def _line(ts="2025-01-01T00:00:00Z", kind="inference", status="ok", extra=""):
    return f'{{"ts": "{ts}", "kind": "{kind}", "status": "{status}"{extra}}}'


class TestParseLog:
    def test_empty_input(self):
        assert parse_log([]).records == ()

    def test_single_well_formed_line(self):
        result = parse_log([_line()])
        assert len(result.records) == 1
        record = result.records[0]
        assert record.kind is RecordKind.INFERENCE
        assert record.status is RecordStatus.OK
        assert record.timestamp == datetime(2025, 1, 1, tzinfo=UTC)

    def test_parsed_record_is_an_ordinary_frozen_record(self):
        (record,) = parse_log([_line(kind="admin", status="error")]).records
        expected = InferenceRecord(datetime(2025, 1, 1, tzinfo=UTC),
                                   RecordKind.ADMIN, RecordStatus.ERROR)
        assert record == expected
        assert hash(record) == hash(expected)
        assert repr(record) == repr(expected)
        with pytest.raises(AttributeError, match="'kind'"):
            record.kind = RecordKind.INFERENCE
        assert record.kind is RecordKind.ADMIN

    def test_unknown_kind_names_line_one(self):
        with pytest.raises(LogParseError, match="line 1") as exc_info:
            parse_log([_line(kind="warmup")])
        assert exc_info.value.line_number == 1
        assert "warmup" in str(exc_info.value)

    def test_error_names_the_offending_line(self):
        lines = [_line(), _line(), "not json"]
        with pytest.raises(LogParseError, match="line 3"):
            parse_log(lines)

    def test_lenient_mode_skips_and_tallies(self):
        lines = [_line(), _line(kind="warmup"), _line(status="meh"), _line()]
        result = parse_log(lines, strict=False)
        assert len(result.records) == 2
        assert len(result.skipped) == 2
        assert [e.line_number for e in result.skipped] == [2, 3]

    def test_lenient_mode_keeps_errors_without_their_chain(self):
        # unknown status, bad JSON, bad timestamp: the last two chain a cause
        lines = [_line(status="meh"), "{not json", _line(ts="yesterday")]
        with pytest.raises(LogParseError) as strict:
            parse_log([_line(), _line(), lines[2]])
        assert strict.value.__cause__ is not None  # strict mode keeps the chain
        result = parse_log(lines, strict=False)
        assert [e.line_number for e in result.skipped] == [1, 2, 3]
        assert [str(e) for e in result.skipped] == [
            "line 1: unknown status 'meh'",
            "line 2: not valid JSON: Expecting property name enclosed in double quotes",
            str(strict.value),
        ]
        for err in result.skipped:
            assert err.__traceback__ is None
            assert err.__cause__ is None
            assert err.__context__ is None

    @pytest.mark.parametrize("line", ["[" * 100_000, '{"a":' * 50_000,
                                      _line(extra=', "n": ' + "9" * 5_000),
                                      _line(extra=', "n": [-' + "1" * 4_301 + "]")],
                             ids=["deep-array", "deep-object", "long-int", "long-negative-int"])
    def test_json_the_decoder_cannot_hold_is_a_malformed_line(self, line):
        with pytest.raises(LogParseError, match="line 2: not valid JSON"):
            parse_log([_line(), line])
        result = parse_log([_line(), line, line.encode("utf-8"), _line()], strict=False)
        assert len(result.records) == 2
        assert [e.line_number for e in result.skipped] == [2, 3]

    def test_unknown_status_rejected(self):
        with pytest.raises(LogParseError, match="status"):
            parse_log([_line(status="degraded")])

    def test_missing_field_rejected(self):
        with pytest.raises(LogParseError, match="kind"):
            parse_log(['{"ts": "2025-01-01T00:00:00Z", "status": "ok"}'])

    def test_non_object_line_rejected(self):
        with pytest.raises(LogParseError, match="object"):
            parse_log(["[1, 2, 3]"])

    def test_bad_timestamp_rejected(self):
        with pytest.raises(LogParseError, match="timestamp"):
            parse_log([_line(ts="yesterday")])

    def test_naive_timestamp_rejected(self):
        with pytest.raises(LogParseError, match="offset"):
            parse_log([_line(ts="2025-01-01T00:00:00")])

    def test_offset_timestamps_normalize_to_utc(self):
        result = parse_log([_line(ts="2025-01-01T05:30:00+05:30")])
        assert result.records[0].timestamp == datetime(2025, 1, 1, tzinfo=UTC)

    def test_bytes_input(self):
        result = parse_log([_line().encode("utf-8")])
        assert len(result.records) == 1

    def test_invalid_utf8_rejected(self):
        with pytest.raises(LogParseError, match="UTF-8"):
            parse_log([b"\xff\xfe"])

    def test_blank_lines_are_ignored(self):
        result = parse_log([_line(), "", "   ", _line()])
        assert len(result.records) == 2
        assert result.skipped == ()

    def test_extra_fields_are_ignored(self):
        result = parse_log([_line(extra=', "model": "haiku", "latency_ms": 12')])
        assert len(result.records) == 1

    def test_fixture_file(self):
        with open(FIXTURES / "telemetry_sample.jsonl", "rb") as fh:
            result = parse_log(fh)
        assert len(result.records) == 5


def _record(iso, kind=RecordKind.INFERENCE, status=RecordStatus.OK):
    return InferenceRecord(parse_rfc3339(iso), kind, status)


START = datetime(2025, 1, 1, tzinfo=UTC)


class TestCountValid:
    def test_three_inferences_two_health_checks(self):
        records = [
            _record("2025-01-02T00:00:00Z"),
            _record("2025-01-03T00:00:00Z"),
            _record("2025-02-01T00:00:00Z"),
            _record("2025-01-02T01:00:00Z", kind=RecordKind.HEALTH_CHECK),
            _record("2025-01-02T02:00:00Z", kind=RecordKind.HEALTH_CHECK),
        ]
        counts = count_valid(records, Horizon(1, 12), START)
        assert counts.valid == 3
        assert counts.excluded_nonproductive == 2
        assert counts.excluded_failed == 0
        assert counts.out_of_range == 0
        assert sum(counts.period_buckets.values()) == 3

    def test_all_health_checks(self):
        records = [_record("2025-01-02T00:00:00Z", kind=RecordKind.HEALTH_CHECK)] * 4
        counts = count_valid(records, Horizon(1, 12), START)
        assert counts.valid == 0
        assert counts.excluded_nonproductive == 4

    def test_errored_inference_is_excluded_as_failed(self):
        records = [_record("2025-01-02T00:00:00Z", status=RecordStatus.ERROR)]
        counts = count_valid(records, Horizon(1, 12), START)
        assert counts.valid == 0
        assert counts.excluded_failed == 1

    def test_failed_exclusion_is_flag_reversible(self):
        records = [
            _record("2025-01-02T00:00:00Z", status=RecordStatus.ERROR),
            _record("2025-01-03T00:00:00Z"),
        ]
        counts = count_valid(records, Horizon(1, 12), START, include_failed=True)
        assert counts.valid == 2
        assert counts.excluded_failed == 0
        assert counts.period_buckets == {0: 2}

    def test_admin_and_background_are_nonproductive(self):
        records = [
            _record("2025-01-02T00:00:00Z", kind=RecordKind.ADMIN),
            _record("2025-01-02T00:00:00Z", kind=RecordKind.BACKGROUND),
        ]
        counts = count_valid(records, Horizon(1, 12), START)
        assert counts.excluded_nonproductive == 2

    def test_bucketing_by_calendar_months(self):
        records = [
            _record("2025-01-15T00:00:00Z"),   # month 0 -> period 0
            _record("2025-06-30T23:59:59Z"),   # month 5 -> period 0
            _record("2025-07-01T00:00:00Z"),   # month 6 -> period 1
            _record("2025-12-31T23:59:59Z"),   # month 11 -> period 1
        ]
        counts = count_valid(records, Horizon(2, 6), START)
        assert counts.period_buckets == {0: 2, 1: 2}

    def test_records_outside_horizon_are_out_of_range(self):
        records = [
            _record("2024-12-31T23:59:59Z"),   # before start
            _record("2026-01-01T00:00:00Z"),   # at/after horizon end
            _record("2025-12-31T23:59:59Z"),   # inside
        ]
        counts = count_valid(records, Horizon(1, 12), START)
        assert counts.valid == 1
        assert counts.out_of_range == 2
        assert counts.period_buckets == {0: 1}

    def test_partial_month_boundary(self):
        start = datetime(2025, 1, 15, tzinfo=UTC)
        records = [
            _record("2025-02-14T23:59:59Z"),   # not yet a full month
            _record("2025-02-15T00:00:00Z"),   # exactly one month
        ]
        counts = count_valid(records, Horizon(2, 1), start)
        assert counts.period_buckets == {0: 1, 1: 1}

    def test_naive_start_rejected(self):
        with pytest.raises(ValueError):
            count_valid([], Horizon(1, 12), datetime(2025, 1, 1))


_instants = st.datetimes(
    min_value=datetime(2024, 1, 1),
    max_value=datetime(2027, 12, 31),
).map(lambda d: d.replace(tzinfo=UTC))

_records = st.builds(
    InferenceRecord,
    timestamp=_instants,
    kind=st.sampled_from(list(RecordKind)),
    status=st.sampled_from(list(RecordStatus)),
)

_record_lists = st.lists(_records, max_size=60)

_horizon = Horizon(4, 6)


class TestCountProperties:
    @settings(max_examples=100)
    @given(records=_record_lists)
    def test_tallies_partition_the_input(self, records):
        counts = count_valid(records, _horizon, START)
        assert counts.total == len(records)
        assert sum(counts.period_buckets.values()) == counts.valid
        assert all(0 <= p < _horizon.periods for p in counts.period_buckets)

    @settings(max_examples=100)
    @given(records=_record_lists, seed=st.integers(min_value=0, max_value=2**32))
    def test_permutation_invariance(self, records, seed):
        shuffled = list(records)
        random.Random(seed).shuffle(shuffled)
        assert count_valid(shuffled, _horizon, START) == count_valid(records, _horizon, START)

    @settings(max_examples=100)
    @given(first=_record_lists, second=_record_lists)
    def test_concatenation_additivity(self, first, second):
        combined = count_valid(list(first) + list(second), _horizon, START)
        a = count_valid(first, _horizon, START)
        b = count_valid(second, _horizon, START)
        merged_buckets = dict(a.period_buckets)
        for period, n in b.period_buckets.items():
            merged_buckets[period] = merged_buckets.get(period, 0) + n
        assert combined == VolumeCount(
            a.valid + b.valid,
            a.excluded_nonproductive + b.excluded_nonproductive,
            a.excluded_failed + b.excluded_failed,
            a.out_of_range + b.out_of_range,
            merged_buckets,
        )


class TestRfc3339:
    @pytest.mark.parametrize("text", [
        "20250101T000000Z",                # basic format
        "2025-W01-1T00:00:00Z",            # week date
        "2025-01-01T00:00Z",               # no seconds
        "2025-01-01 00:00:00Z",            # space separator
        "2025-01-01T00:00:00+0000",        # offset without a colon
        "\uff12\uff10\uff12\uff15-01-01T00:00:00Z",   # fullwidth digits
        "2025-01-01T00:00:0\u0661Z",        # Arabic-Indic digit
        "2025-06-30T23:59:60Z",            # leap second
    ])
    def test_non_rfc3339_form_rejected(self, text):
        with pytest.raises(ValueError):
            parse_rfc3339(text)
        with pytest.raises(LogParseError, match="timestamp"):
            parse_log([_line(ts=text)])

    @pytest.mark.parametrize("text, expected", [
        ("2025-01-01t00:00:00z", datetime(2025, 1, 1, tzinfo=UTC)),
        ("2025-01-01T05:30:00+05:30", datetime(2025, 1, 1, tzinfo=UTC)),
        ("2024-12-31T14:00:00-10:00", datetime(2025, 1, 1, tzinfo=UTC)),
        ("2025-01-01T00:00:00-00:00", datetime(2025, 1, 1, tzinfo=UTC)),
        ("2025-01-01T00:00:00.5Z", datetime(2025, 1, 1, 0, 0, 0, 500000, tzinfo=UTC)),
        ("2025-01-01T00:00:00.123Z", datetime(2025, 1, 1, 0, 0, 0, 123000, tzinfo=UTC)),
        ("2025-01-01T00:00:00.123456Z", datetime(2025, 1, 1, 0, 0, 0, 123456, tzinfo=UTC)),
        ("2025-01-01T00:00:00.123456999Z", datetime(2025, 1, 1, 0, 0, 0, 123456, tzinfo=UTC)),
        ("2024-02-29T23:59:59.9999999+23:59", datetime(2024, 2, 29, 0, 0, 59, 999999, tzinfo=UTC)),
    ])
    def test_accepted_forms(self, text, expected):
        parsed = parse_rfc3339(text)
        assert parsed == expected
        assert parsed.utcoffset() == timedelta(0)

    @pytest.mark.parametrize("text", [
        "2025-02-29T00:00:00Z", "2025-13-01T00:00:00Z", "2025-01-01T24:00:00Z",
        "2025-01-01T00:60:00Z", "2025-01-01T00:00:00+24:00", "2025-01-01T00:00:00+05:60",
        "2025-01-01T00:00:00.Z", "2025-01-01T00:00:00Z ",
    ])
    def test_out_of_range_fields_rejected(self, text):
        with pytest.raises(ValueError):
            parse_rfc3339(text)

    @pytest.mark.parametrize("text, expected", [
        ("0001-01-01T00:00:00Z", datetime.min.replace(tzinfo=UTC)),
        ("0001-01-01T00:00:00-01:00", datetime(1, 1, 1, 1, tzinfo=UTC)),
        ("9999-12-31T23:59:59.999999Z", datetime.max.replace(tzinfo=UTC)),
        ("9999-12-31T23:00:00+05:00", datetime(9999, 12, 31, 18, tzinfo=UTC)),
    ])
    def test_first_and_last_representable_instants(self, text, expected):
        assert parse_rfc3339(text) == expected

    @pytest.mark.parametrize("text", [
        "0000-12-31T23:59:59Z",
        "0001-01-01T00:00:00+01:00",
        "0001-01-01T00:59:59.999999+01:00",
        "9999-12-31T23:00:00-05:00",
        "9999-12-31T23:59:59.999999-00:01",
    ])
    def test_instant_outside_years_1_to_9999_is_a_value_error(self, text):
        with pytest.raises(ValueError):
            parse_rfc3339(text)
        result = parse_log([_line(ts=text), _line()], strict=False)
        assert len(result.records) == 1
        assert [e.line_number for e in result.skipped] == [1]


_GOOD = _line()

# lines json.loads accepts and rejects in different ways; "{...} x" is the
# shape a lone value scan would accept without the trailing-data check
_JSON_CORPUS = (
    _GOOD,
    "\ufeff" + _GOOD,
    _GOOD + " x",
    _GOOD + " " + _GOOD,
    "{\u2026} x",
    "\u00a0" + _GOOD + "\u2003",
    "{\u00a0" + _GOOD[1:],
    _line(extra=', "x": 1\u2028'),
    '{"ts": NaN, "kind": "inference", "status": "ok"}',
    _line(extra=', "latency_ms": NaN, "peak": Infinity, "low": -Infinity'),
    "NaN",
    "-Infinity",
    '{"kind": "admin", "ts": "2025-01-01T00:00:00Z", "kind": "inference", "status": "ok"}',
    '{"kind": "inference", "ts": "2025-01-01T00:00:00Z", "kind": "admin", "status": "ok"}',
    _line(extra=', "meta": {"a": [1, 2.5e3, {"b": null}], "c": [true, false, "\\u00e9"]}'),
    "[" * 40 + "]" * 40,
    '{"a": [1, 2}',
    _line(extra=","),
    "{'ts': '2025-01-01T00:00:00Z'}",
    '{"ts": "2025-01-01T00:00:00Z\t", "kind": "inference", "status": "ok"}',
    '{"ts": "\\ud800", "kind": "inference", "status": "ok"}',
    '{"ts": "2025-01-01T00:00:00Z", "kind": "inference", "status": "ok"',
    "{", "}", "[]", "{}", '"inference"', "1", "1e999", "null", "true", "01", "-",
)


class TestJsonScan:
    @pytest.mark.parametrize("line", _JSON_CORPUS)
    def test_accepts_rejects_and_words_errors_like_json_loads(self, line):
        result = parse_log([line], strict=False)
        try:
            value = json.loads(line.strip())
        except json.JSONDecodeError as exc:
            # a trailing comma gets lcoai's words: json's differ on Python 3.13
            words = ("trailing comma before the end of an object" if line == _line(extra=",")
                     else exc.msg)
            assert [str(e) for e in result.skipped] == [f"line 1: not valid JSON: {words}"]
            return
        messages = [str(e) for e in result.skipped]
        if not isinstance(value, dict):
            assert messages == ["line 1: each line must be a JSON object"]
        elif result.records:
            (record,) = result.records
            assert record.timestamp == parse_rfc3339(value["ts"])
            assert record.kind.value == value["kind"]
            assert record.status.value == value["status"]
        else:
            (message,) = messages
            assert "JSON" not in message


def _months_elapsed(start, ts):
    """Whole calendar months from start to ts: the per-record rule that
    count_valid's month-boundary bisect replaced, kept as its reference."""
    a = start.astimezone(UTC)
    b = ts.astimezone(UTC)
    months = (b.year - a.year) * 12 + (b.month - a.month)
    if (b.day, b.time()) < (a.day, a.time()):
        months -= 1
    return months


def _reference_count(records, horizon, start, include_failed=False):
    valid = nonproductive = failed = out_of_range = 0
    buckets = {}
    for record in records:
        if record.kind is not RecordKind.INFERENCE:
            nonproductive += 1
        elif record.status is not RecordStatus.OK and not include_failed:
            failed += 1
        else:
            months = _months_elapsed(start, record.timestamp)
            if months < 0 or months >= horizon.months:
                out_of_range += 1
            else:
                period = months // horizon.period_length_months
                buckets[period] = buckets.get(period, 0) + 1
                valid += 1
    return VolumeCount(valid, nonproductive, failed, out_of_range, buckets)


_zones = st.integers(-(24 * 60 - 1), 24 * 60 - 1).map(
    lambda minutes: timezone(timedelta(minutes=minutes)))


@st.composite
def _starts(draw):
    """Aware starts whose UTC day is 28-31 (Feb 29 included), in any zone."""
    year = draw(st.sampled_from([2023, 2024, 2025, 2028]))
    month = draw(st.integers(1, 12))
    day = draw(st.integers(28, calendar.monthrange(year, month)[1]))
    clock = draw(st.times())
    utc = datetime.combine(datetime(year, month, day).date(), clock, tzinfo=UTC)
    return utc.astimezone(draw(_zones))


@st.composite
def _count_cases(draw):
    start = draw(st.one_of(_starts(), _instants))
    length = draw(st.integers(1, 12))
    horizon = Horizon(draw(st.integers(1, 60 // length)), length)
    a = start.astimezone(UTC)
    # candidate month edges around each boundary: start's day (clamped to the
    # month) at start's time, and midnight on the 1st
    edges = []
    for k in range(-2, horizon.months + 3):
        year, month = divmod(a.year * 12 + a.month - 1 + k, 12)
        month += 1
        day = min(a.day, calendar.monthrange(year, month)[1])
        edges += [a.replace(year=year, month=month, day=day),
                  datetime(year, month, 1, tzinfo=UTC)]
    near = st.builds(lambda edge, us: edge + timedelta(microseconds=us),
                     st.sampled_from(edges), st.integers(-1, 1))
    anywhere = st.datetimes(min_value=datetime(2018, 1, 1), max_value=datetime(2035, 1, 1),
                            timezones=st.just(UTC))
    timestamps = st.builds(lambda instant, zone: instant.astimezone(zone),
                           st.one_of(near, anywhere), st.one_of(st.just(UTC), _zones))
    records = draw(st.lists(st.builds(
        InferenceRecord, timestamp=timestamps,
        kind=st.sampled_from(list(RecordKind)), status=st.sampled_from(list(RecordStatus))),
        max_size=40))
    return records, horizon, start, draw(st.booleans())


class TestMonthBoundaries:
    @settings(max_examples=300)
    @given(case=_count_cases())
    def test_count_valid_matches_months_elapsed(self, case):
        records, horizon, start, include_failed = case
        assert (count_valid(records, horizon, start, include_failed=include_failed)
                == _reference_count(records, horizon, start, include_failed))

    def test_day_past_month_end_rolls_to_the_first(self):
        start = datetime(2024, 1, 31, 12, tzinfo=UTC)
        assert _month_boundaries(start, 3) == [
            start,
            datetime(2024, 3, 1, tzinfo=UTC),
            datetime(2024, 3, 31, 12, tzinfo=UTC),
            datetime(2024, 5, 1, tzinfo=UTC),
        ]

    def test_boundaries_are_utc_whatever_the_start_zone(self):
        start = datetime(2025, 3, 1, 1, tzinfo=timezone(timedelta(hours=2)))
        assert _month_boundaries(start, 1) == [datetime(2025, 2, 28, 23, tzinfo=UTC),
                                               datetime(2025, 3, 28, 23, tzinfo=UTC)]

    def test_huge_horizon_is_bounded_and_matches_the_reference(self):
        start = datetime(2025, 3, 31, 6, tzinfo=UTC)
        horizon = Horizon(10**9, 12)
        boundaries = _month_boundaries(start, horizon.months)
        assert len(boundaries) == (9999 - 2025) * 12 + (12 - 3) + 1
        assert boundaries[-1] == datetime(9999, 12, 31, 6, tzinfo=UTC)
        records = [_record(iso) for iso in (
            "2025-03-31T05:59:59.999999Z", "2025-03-31T06:00:00Z", "2026-03-31T06:00:00Z",
            "9999-11-30T23:59:59Z", "9999-12-01T00:00:00Z", "9999-12-31T05:59:59Z",
            "9999-12-31T06:00:00Z", "9999-12-31T23:59:59.999999Z",
        )]
        counts = count_valid(records, horizon, start)
        assert counts == _reference_count(records, horizon, start)
        assert counts.out_of_range == 1
        assert max(counts.period_buckets) == 9999 - 2025

"""ETL adapters: CSV/JSONL/log ingestion and the CSV round-trip bridge."""

import pytest

from repro.trace.events import BEGIN, END, TraceEvent
from repro.trace.sinks import JsonlSink
from repro.util.errors import ValidationError
from repro.workload.trade import BROWSE_CLASS
from repro.workloads.etl import (
    LogFormat,
    load_records_csv,
    load_records_jsonl,
    load_records_log,
    parse_log_lines,
    records_from_events,
    save_trace_csv,
)
from repro.workloads.records import RecordSet
from repro.workloads.scenario import generate_trace


class TestCsvBridge:
    def test_trace_round_trips_through_csv(self, tmp_path):
        """S1: generate -> save CSV -> ingest == ingest-in-memory."""
        trace = generate_trace(BROWSE_CLASS, 5.0, 60.0, seed=42, n_clients=10)
        path = tmp_path / "trace.csv"
        save_trace_csv(trace, path)

        direct = RecordSet(trace)
        loaded = load_records_csv(path)

        assert len(loaded) == len(direct) == len(trace)
        assert [r.arrival_ms for r in loaded] == [r.arrival_ms for r in direct]
        assert [r.operation for r in loaded] == [r.operation for r in direct]
        assert loaded.statistics().to_dict() == direct.statistics().to_dict()

    def test_arrival_traces_carry_no_service_times(self):
        trace = generate_trace(BROWSE_CLASS, 5.0, 10.0, seed=1, n_clients=4)
        records = RecordSet(trace)
        assert all(r.service_ms is None for r in records)


def _span_event(ts_us, dur_us, *, kind="quote", thread=1, name="service.request"):
    return TraceEvent(
        kind=END,
        name=name,
        ts_us=ts_us,
        thread_id=thread,
        dur_us=dur_us,
        attributes={"kind": kind},
    )


class TestJsonlIngestion:
    def test_end_events_become_records_with_service_times(self):
        events = [
            TraceEvent(kind=BEGIN, name="service.request", ts_us=0.0),
            _span_event(0.0, 12_000.0, kind="quote", thread=1),
            _span_event(5_000.0, 30_000.0, kind="buy", thread=2),
            TraceEvent(kind=END, name="other.span", ts_us=9.0, dur_us=1.0),
        ]
        records = records_from_events(events)
        assert len(records) == 2
        first, second = records.records
        assert first.arrival_ms == 0.0 and first.service_ms == 12.0
        assert first.operation == "quote" and first.client_id == "thread:1"
        assert second.operation == "buy" and second.client_id == "thread:2"

    def test_client_attribute_overrides_thread_identity(self):
        events = [_span_event(0.0, 1_000.0)]
        events[0].attributes["session"] = "s-9"
        records = records_from_events(events, client_attr="session")
        assert records.records[0].client_id == "s-9"

    def test_no_matching_spans_is_an_error(self):
        with pytest.raises(ValidationError):
            records_from_events([_span_event(0.0, 1.0, name="other")])

    def test_jsonl_file_round_trip(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        sink = JsonlSink(path)
        for event in (_span_event(0.0, 2_000.0), _span_event(8_000.0, 4_000.0)):
            sink.emit(event)
        sink.close()
        records = load_records_jsonl(path)
        assert [r.arrival_ms for r in records] == [0.0, 8.0]
        assert [r.service_ms for r in records] == [2.0, 4.0]


class TestGenericLog:
    LINES = [
        "# ts_s,op,client,dur_s",
        "0.0,quote,c1,0.010",
        "",
        "7.5,buy,c2,0.025",
    ]

    def test_parse_with_service_column_and_seconds(self):
        fmt = LogFormat(service_column=3, timestamp_scale_ms=1000.0)
        records = parse_log_lines(self.LINES, fmt)
        assert [r.arrival_ms for r in records] == [0.0, 7500.0]
        assert [r.service_ms for r in records] == [10.0, 25.0]
        assert [r.operation for r in records] == ["quote", "buy"]

    def test_malformed_row_reports_line_number(self):
        with pytest.raises(ValidationError, match="line 2"):
            parse_log_lines(["0.0,quote,c1", "not-a-number,buy,c2"], LogFormat())

    def test_too_few_columns_reports_line_number(self):
        with pytest.raises(ValidationError, match="line 1"):
            parse_log_lines(["0.0,quote"], LogFormat())

    def test_comment_and_blank_lines_are_skipped(self):
        records = parse_log_lines(self.LINES, LogFormat(service_column=3))
        assert len(records) == 2

    def test_empty_log_is_an_error(self):
        with pytest.raises(ValidationError):
            parse_log_lines(["# nothing"], LogFormat())

    def test_load_from_file_and_missing_file(self, tmp_path):
        path = tmp_path / "requests.log"
        path.write_text("\n".join(self.LINES) + "\n", encoding="utf-8")
        records = load_records_log(path, LogFormat(service_column=3))
        assert len(records) == 2
        with pytest.raises(ValidationError):
            load_records_log(tmp_path / "absent.log")

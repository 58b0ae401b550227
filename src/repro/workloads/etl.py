"""ETL adapters: every request-log format the repo produces, one record set.

Three ingestion paths normalize into :class:`~repro.workloads.records.RecordSet`:

* **CSV arrival traces** — ``arrival_ms,operation,client_id`` (plus a
  ``dropped`` column for traces recorded under overload), written by
  :func:`save_trace_csv` and read back by :func:`load_trace_csv`;
* **JSONL span logs** — the :mod:`repro.trace` sink format: every END
  event of a chosen span name becomes a request whose arrival is the
  span start and whose service time is the span duration, so the repo's
  own serving-layer traces are characterizable without a separate
  logging path;
* **generic timestamped logs** — a delimited-text adapter described by a
  :class:`LogFormat` (column positions, time unit, optional service
  column), the escape hatch for foreign access logs.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from repro.trace.events import END, TraceEvent
from repro.trace.sinks import load_events_jsonl
from repro.util.errors import ValidationError
from repro.util.validation import check_non_negative_int, check_positive, require
from repro.workload.operations import operation
from repro.workloads.records import RecordSet, RequestRecord

__all__ = [
    "save_trace_csv",
    "load_trace_csv",
    "load_records_csv",
    "records_from_events",
    "load_records_jsonl",
    "LogFormat",
    "parse_log_lines",
    "load_records_log",
]

_TRACE_COLUMNS = ("arrival_ms", "operation", "client_id")
# Traces recorded against a finite-capacity server carry a fourth column
# marking requests the server shed; drop-free traces keep the 3-column
# layout so existing files and their consumers are untouched.
_TRACE_COLUMNS_WITH_DROPS = _TRACE_COLUMNS + ("dropped",)


def save_trace_csv(trace: list[RequestRecord], path: str | Path) -> Path:
    """Write an arrival trace as CSV; returns the path.

    Drop-free traces use the legacy 3-column layout byte-for-byte; a trace
    with at least one dropped record gains the ``dropped`` column (0/1).
    Service times are not persisted: the format records arrivals only.
    """
    target = Path(path)
    with_drops = any(record.dropped for record in trace)
    with open(target, "w", newline="") as handle:
        writer = csv.writer(handle)
        if with_drops:
            writer.writerow(_TRACE_COLUMNS_WITH_DROPS)
            for record in trace:
                writer.writerow(
                    [
                        repr(record.arrival_ms),
                        record.operation,
                        record.client_id,
                        "1" if record.dropped else "0",
                    ]
                )
        else:
            writer.writerow(_TRACE_COLUMNS)
            for record in trace:
                writer.writerow(
                    [repr(record.arrival_ms), record.operation, record.client_id]
                )
    return target


def load_trace_csv(path: str | Path) -> list[RequestRecord]:
    """Read a trace written by :func:`save_trace_csv` (validates columns,
    operation names, and arrival-time ordering).

    Accepts both the legacy 3-column layout and the 4-column layout with
    the ``dropped`` marker.  Arrival traces carry no service times, so
    think-time extraction uses per-client arrival gaps (see
    :meth:`~repro.workloads.records.RecordSet.think_times_ms`).
    """
    source = Path(path)
    if not source.exists():
        raise ValidationError(f"no trace file at {source}")
    records: list[RequestRecord] = []
    with open(source, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is not None and tuple(header) == _TRACE_COLUMNS:
            n_columns = 3
        elif header is not None and tuple(header) == _TRACE_COLUMNS_WITH_DROPS:
            n_columns = 4
        else:
            raise ValidationError(f"unexpected trace header {header!r}")
        last = -1.0
        for line_number, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != n_columns:
                raise ValidationError(
                    f"{source}:{line_number}: want {n_columns} columns"
                )
            try:
                arrival = float(row[0])
            except ValueError as exc:
                raise ValidationError(f"{source}:{line_number}: {exc}") from exc
            operation(row[1])  # validates the operation name
            if arrival < last:
                raise ValidationError(
                    f"{source}:{line_number}: arrivals must be non-decreasing"
                )
            last = arrival
            if n_columns == 4:
                if row[3] not in ("0", "1"):
                    raise ValidationError(
                        f"{source}:{line_number}: dropped must be 0 or 1"
                    )
                dropped = row[3] == "1"
            else:
                dropped = False
            records.append(
                RequestRecord(
                    arrival_ms=arrival,
                    operation=row[1],
                    client_id=row[2],
                    dropped=dropped,
                )
            )
    return records


def load_records_csv(path: str | Path) -> RecordSet:
    """Ingest a CSV trace written by :func:`save_trace_csv`."""
    return RecordSet(load_trace_csv(path))


def records_from_events(
    events: Iterable[TraceEvent],
    *,
    span_name: str = "service.request",
    operation_attr: str = "kind",
    client_attr: str | None = None,
) -> RecordSet:
    """Normalize tracer END events of ``span_name`` into request records.

    The span start (``ts_us``) is the arrival instant, the span duration
    the service time.  The operation comes from ``attributes[operation_attr]``
    (falling back to the span name) and the client identity from
    ``attributes[client_attr]`` when given, else the emitting thread —
    one serving thread is one closed-loop requester, which is exactly
    the load generator's model.
    """
    records = []
    for event in events:
        if event.kind != END or event.name != span_name:
            continue
        operation = str(event.attributes.get(operation_attr, event.name))
        if client_attr is not None and client_attr in event.attributes:
            client = str(event.attributes[client_attr])
        else:
            client = f"thread:{event.thread_id}"
        records.append(
            RequestRecord(
                arrival_ms=event.ts_us / 1000.0,
                operation=operation,
                client_id=client,
                service_ms=event.dur_us / 1000.0,
            )
        )
    require(bool(records), f"no END events named {span_name!r} in the trace")
    return RecordSet(records)


def load_records_jsonl(
    path: str | Path,
    *,
    span_name: str = "service.request",
    operation_attr: str = "kind",
    client_attr: str | None = None,
) -> RecordSet:
    """Ingest a :class:`~repro.trace.sinks.JsonlSink` file (span log)."""
    return records_from_events(
        load_events_jsonl(path),
        span_name=span_name,
        operation_attr=operation_attr,
        client_attr=client_attr,
    )


@dataclass(frozen=True)
class LogFormat:
    """Column layout of a generic delimited, timestamped request log.

    ``timestamp_scale_ms`` converts the log's time unit to milliseconds
    (1.0 for ms timestamps, 1000.0 for seconds, 0.001 for µs).
    ``service_column`` is ``None`` when the log has no duration column.
    """

    delimiter: str = ","
    timestamp_column: int = 0
    operation_column: int = 1
    client_column: int = 2
    service_column: int | None = None
    timestamp_scale_ms: float = 1.0
    skip_header_lines: int = 0
    comment_prefix: str = "#"

    def __post_init__(self) -> None:
        check_positive(self.timestamp_scale_ms, "timestamp_scale_ms")
        check_non_negative_int(self.skip_header_lines, "skip_header_lines")
        require(bool(self.delimiter), "delimiter must be non-empty")


def parse_log_lines(lines: Iterable[str], fmt: LogFormat) -> RecordSet:
    """Parse delimited log lines into a record set per ``fmt``.

    Blank lines and ``comment_prefix`` lines are skipped; malformed rows
    raise :class:`~repro.util.errors.ValidationError` with the offending
    line number — silent row-dropping would bias every fitted statistic.
    """
    records = []
    needed = max(
        fmt.timestamp_column,
        fmt.operation_column,
        fmt.client_column,
        fmt.service_column if fmt.service_column is not None else 0,
    )
    for line_number, line in enumerate(lines, start=1):
        if line_number <= fmt.skip_header_lines:
            continue
        stripped = line.strip()
        if not stripped or stripped.startswith(fmt.comment_prefix):
            continue
        parts = [part.strip() for part in stripped.split(fmt.delimiter)]
        if len(parts) <= needed:
            raise ValidationError(
                f"log line {line_number}: want at least {needed + 1} columns, "
                f"got {len(parts)}"
            )
        try:
            arrival = float(parts[fmt.timestamp_column]) * fmt.timestamp_scale_ms
            service = (
                float(parts[fmt.service_column]) * fmt.timestamp_scale_ms
                if fmt.service_column is not None
                else None
            )
        except ValueError as exc:
            raise ValidationError(f"log line {line_number}: {exc}") from exc
        records.append(
            RequestRecord(
                arrival_ms=arrival,
                operation=parts[fmt.operation_column],
                client_id=parts[fmt.client_column],
                service_ms=service,
            )
        )
    require(bool(records), "log contained no parseable request rows")
    return RecordSet(records)


def load_records_log(path: str | Path, fmt: LogFormat | None = None) -> RecordSet:
    """Ingest a generic timestamped log file per ``fmt`` (default layout)."""
    source = Path(path)
    if not source.exists():
        raise ValidationError(f"no log file at {source}")
    with source.open("r", encoding="utf-8") as handle:
        return parse_log_lines(handle, fmt if fmt is not None else LogFormat())

"""Benchmark-side spans: one record per call into a layer of the program.

Spans are kept in memory and written out when the run ends.  Each span has
a name, a start, an end, its parent span and an optional request id.  The
layer of a span is the prefix of its name (``lqn.solve`` belongs to
``lqn``; ``service.shard.request`` to ``service.shard``), and a layer's
self time is the time its spans cover minus the part of that time their
child spans cover.

Timed loops take their timestamps once and hand them to :meth:`add`, so a
span never adds a clock read to the interval it describes.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

__all__ = ["Span", "SpanRecorder", "layer_of", "self_times"]


@dataclass(frozen=True, slots=True)
class Span:
    """One recorded call: ``[start, end]`` in ``perf_counter`` seconds."""

    span_id: int
    name: str
    start: float
    end: float
    parent: int  # 0 = a root span
    request_id: int  # -1 = not part of a request

    def to_dict(self) -> dict:
        """A JSON-ready view."""
        return {
            "id": self.span_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "request_id": self.request_id,
        }


class SpanRecorder:
    """Collects spans when enabled; every method is a no-op otherwise."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def current(self) -> int:
        """The innermost open block span on this thread (0 = none)."""
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else 0

    def add(
        self,
        name: str,
        start: float,
        end: float,
        *,
        parent: int | None = None,
        request_id: int = -1,
    ) -> int:
        """Record a span from timestamps the caller already took."""
        if not self.enabled:
            return 0
        span_id = next(self._ids)
        span = Span(
            span_id,
            name,
            start,
            end,
            self.current() if parent is None else parent,
            request_id,
        )
        with self._lock:
            self.spans.append(span)
        return span_id

    @contextmanager
    def block(self, name: str, *, parent: int | None = None, request_id: int = -1):
        """Time a block as a span; spans opened inside become its children."""
        if not self.enabled:
            yield 0
            return
        span_id = next(self._ids)
        parent_id = self.current() if parent is None else parent
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(Span(span_id, name, start, end, parent_id, request_id))


def layer_of(name: str) -> str:
    """The layer a span name belongs to."""
    if name.startswith("service.shard."):
        return "service.shard"
    return name.split(".", 1)[0]


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: list[Span]) -> dict[str, float]:
    """Seconds of self time per layer over all spans."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out: dict[str, float] = {}
    for span in spans:
        own = span.end - span.start
        own -= _covered(children.get(span.span_id, []), span.start, span.end)
        layer = layer_of(span.name)
        out[layer] = out.get(layer, 0.0) + max(own, 0.0)
    return out

"""Dependency-free tracing + metrics for the bouquet pipeline.

A :class:`Tracer` carries three kinds of telemetry:

* **spans** — nestable, timed scopes (``session.compile``,
  ``execute.bouquet``, ...) opened with :meth:`Tracer.span`;
* **events** — typed point-in-time records (one bouquet execution, one
  pruned hypercube, ...) emitted with :meth:`Tracer.event`;
* **metrics** — named counters (:meth:`Tracer.count`) and timing
  histograms (:meth:`Tracer.observe`) aggregated in memory.

Every span/event is forwarded as a plain dict to a pluggable
:class:`Sink`: :class:`MemorySink` for tests and the bench harness,
:class:`JsonlSink` for offline analysis (``repro trace`` summarizes the
file), and the zero-overhead :data:`NULL_TRACER` default — instrumented
components guard their hot paths with ``if tracer.enabled:`` so an
untraced run pays only a boolean check.

Tracers never cross process boundaries: sinks may hold open file
handles, so pickling a tracer yields :data:`NULL_TRACER` on the other
side (campaign workers therefore run untraced).
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

__all__ = [
    "Sink",
    "NullSink",
    "MemorySink",
    "JsonlSink",
    "TimingStats",
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
]


# ---------------------------------------------------------------------------
# Sinks
# ---------------------------------------------------------------------------


class Sink:
    """Receives trace records (plain dicts) as they are produced."""

    def emit(self, record: Dict[str, Any]) -> None:
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - default no-op
        pass


class NullSink(Sink):
    """Discards everything (the zero-overhead default)."""

    def emit(self, record: Dict[str, Any]) -> None:
        pass


class MemorySink(Sink):
    """Keeps records in a list — for tests and in-process summaries."""

    def __init__(self):
        self.records: List[Dict[str, Any]] = []

    def emit(self, record: Dict[str, Any]) -> None:
        self.records.append(record)

    def events(self, name: Optional[str] = None) -> List[Dict[str, Any]]:
        return [
            r
            for r in self.records
            if r["type"] == "event" and (name is None or r["name"] == name)
        ]

    def spans(self, name: Optional[str] = None) -> List[Dict[str, Any]]:
        return [
            r
            for r in self.records
            if r["type"] == "span_end" and (name is None or r["name"] == name)
        ]


class JsonlSink(Sink):
    """Appends one JSON object per record to a file, for offline analysis."""

    def __init__(self, path: str):
        self.path = path
        self._handle = open(path, "w")

    def emit(self, record: Dict[str, Any]) -> None:
        self._handle.write(json.dumps(record, default=_jsonable) + "\n")

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.flush()
            self._handle.close()


def _jsonable(value):
    """Fallback encoder: numpy scalars and other oddballs become floats/strs."""
    try:
        return float(value)
    except (TypeError, ValueError):
        return str(value)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


@dataclass
class TimingStats:
    """A tiny streaming histogram: count / total / min / max."""

    count: int = 0
    total: float = 0.0
    min: float = field(default=float("inf"))
    max: float = 0.0

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min if self.count else 0.0,
            "max": self.max,
            "mean": self.mean,
        }


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------


class Span:
    """One nestable, timed scope.  Use as a context manager; attributes
    added via :meth:`set` land on the ``span_end`` record."""

    __slots__ = ("_tracer", "name", "span_id", "parent_id", "attrs", "_t0")

    def __init__(self, tracer: "Tracer", name: str, span_id: int, parent_id: int, attrs: Dict):
        self._tracer = tracer
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.attrs = attrs
        self._t0 = tracer.clock()

    def set(self, **attrs) -> "Span":
        self.attrs.update(attrs)
        return self

    def end(self) -> None:
        """Close the span without a ``with`` block."""
        self._tracer._end_span(self)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self._tracer._end_span(self)
        return False


class _NullSpan:
    """Shared no-op span handed out by :class:`NullTracer`."""

    __slots__ = ()

    def set(self, **attrs) -> "_NullSpan":
        return self

    def end(self) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------


class Tracer:
    """Spans + events + counters/timings, forwarded to one sink."""

    enabled = True

    def __init__(self, sink: Optional[Sink] = None, clock=time.perf_counter):
        self.sink = sink if sink is not None else MemorySink()
        self.clock = clock
        self.counters: Dict[str, float] = {}
        self.timings: Dict[str, TimingStats] = {}
        self._next_span_id = 1
        self._stack: List[int] = []
        # Counters/timings are bumped from serving worker threads; the
        # read-modify-write must be atomic.  (Spans remain effectively
        # single-threaded: concurrent requests nest under their own
        # call stacks and the serving layer never shares one span.)
        self._metrics_lock = threading.Lock()

    # -- spans ----------------------------------------------------------

    @property
    def current_span_id(self) -> int:
        return self._stack[-1] if self._stack else 0

    def span(self, name: str, **attrs) -> Span:
        span = Span(self, name, self._next_span_id, self.current_span_id, attrs)
        self._next_span_id += 1
        self._stack.append(span.span_id)
        self.sink.emit(
            {
                "type": "span_start",
                "name": name,
                "span": span.span_id,
                "parent": span.parent_id,
                "t": span._t0,
            }
        )
        return span

    def _end_span(self, span: Span) -> None:
        # Spans close LIFO in normal use; tolerate out-of-order exits.
        if span.span_id in self._stack:
            while self._stack and self._stack[-1] != span.span_id:
                self._stack.pop()
            if self._stack:
                self._stack.pop()
        now = self.clock()
        self.sink.emit(
            {
                "type": "span_end",
                "name": span.name,
                "span": span.span_id,
                "parent": span.parent_id,
                "dur": now - span._t0,
                "attrs": dict(span.attrs),
            }
        )

    # -- events ---------------------------------------------------------

    def event(self, name: str, **attrs) -> None:
        self.sink.emit(
            {
                "type": "event",
                "name": name,
                "span": self.current_span_id,
                "attrs": attrs,
            }
        )

    # -- metrics --------------------------------------------------------

    def count(self, name: str, n: float = 1) -> None:
        with self._metrics_lock:
            self.counters[name] = self.counters.get(name, 0) + n

    def observe(self, name: str, value: float) -> None:
        with self._metrics_lock:
            stats = self.timings.get(name)
            if stats is None:
                stats = self.timings[name] = TimingStats()
            stats.observe(value)

    def snapshot(self) -> Dict[str, Dict]:
        """Current metric aggregates (counters + timing stats)."""
        return {
            "counters": dict(self.counters),
            "timings": {name: t.as_dict() for name, t in self.timings.items()},
        }

    def flush_metrics(self) -> None:
        """Emit the metric aggregates to the sink as typed records."""
        for name, value in sorted(self.counters.items()):
            self.sink.emit({"type": "counter", "name": name, "value": value})
        for name, stats in sorted(self.timings.items()):
            self.sink.emit({"type": "timing", "name": name, **stats.as_dict()})

    def close(self) -> None:
        """Flush metrics and close the sink (idempotent for JSONL sinks)."""
        self.flush_metrics()
        self.sink.close()

    # -- pickling -------------------------------------------------------

    def __reduce__(self):
        # Sinks can hold open file handles; a tracer shipped to another
        # process degrades to the null tracer (see module docstring).
        return (_null_tracer, ())


class NullTracer(Tracer):
    """The zero-overhead tracer: every operation is a no-op."""

    enabled = False

    def __init__(self):
        super().__init__(sink=NullSink())

    def span(self, name: str, **attrs) -> _NullSpan:  # type: ignore[override]
        return _NULL_SPAN

    def event(self, name: str, **attrs) -> None:
        pass

    def count(self, name: str, n: float = 1) -> None:
        pass

    def observe(self, name: str, value: float) -> None:
        pass

    def close(self) -> None:
        pass


NULL_TRACER = NullTracer()


def _null_tracer() -> NullTracer:
    return NULL_TRACER

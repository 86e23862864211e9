"""Observability: tracing, metrics, and trace summarization.

Dependency-free telemetry for the bouquet pipeline — see
:mod:`repro.obs.tracer` for the instrumentation primitives and
:mod:`repro.obs.summary` for the ``repro trace`` summarizer and the
``format_table`` every text report prints with.
"""

from .summary import (
    ContourAccount,
    ServingSummary,
    TraceSummary,
    format_table,
    read_trace,
    summarize_serving,
    summarize_trace,
)
from .tracer import (
    NULL_TRACER,
    JsonlSink,
    MemorySink,
    NullSink,
    NullTracer,
    Sink,
    Span,
    TimingStats,
    Tracer,
)

__all__ = [
    "ContourAccount",
    "ServingSummary",
    "TraceSummary",
    "format_table",
    "read_trace",
    "summarize_serving",
    "summarize_trace",
    "NULL_TRACER",
    "JsonlSink",
    "MemorySink",
    "NullSink",
    "NullTracer",
    "Sink",
    "Span",
    "TimingStats",
    "Tracer",
]

"""Structured telemetry for the fault path: events, sinks, metrics.

The observability layer the paper's host computer approximated with
counter read-outs: every SEU gets a lifecycle trace (strike ->
detection -> resolution), campaigns attach phase-tagged timers, and the
whole stream lands in a crash-safe JSONL trace.
Disabled (the default, via :data:`NULL_TELEMETRY`) the layer is
zero-cost -- see the throughput benchmark guard.
"""

from repro.telemetry.bus import CLOSE_STATES, NULL_TELEMETRY, Telemetry
from repro.telemetry.metrics import Histogram, MetricsRegistry
from repro.telemetry.sinks import JsonlTraceSink, MemorySink, NullSink
from repro.telemetry.trace import (
    Lifecycle,
    TraceStats,
    fold_stats,
    lifecycles,
    read_trace,
    render_lifecycle,
    render_stats,
)

__all__ = [
    "CLOSE_STATES",
    "Histogram",
    "JsonlTraceSink",
    "Lifecycle",
    "MemorySink",
    "MetricsRegistry",
    "NULL_TELEMETRY",
    "NullSink",
    "Telemetry",
    "TraceStats",
    "fold_stats",
    "lifecycles",
    "read_trace",
    "render_lifecycle",
    "render_stats",
]

"""Unified observability: spans, metrics, and trace export for a run.

One :class:`Recorder` observes a whole execution across both SPMD runtimes
and the MapReduce engine: a span tree (plan → job → operator phase →
shuffle, with per-rank children carrying virtual *and* wall time), instant
events (fault firings, retries), and metrics (counters / gauges /
histograms).  Exporters turn the recorder into a Chrome trace-event file
(Perfetto / ``chrome://tracing``), a versioned metrics JSON, or a terminal
Gantt / critical-path summary — ``python -m repro run --trace out.json
--metrics metrics.json --timeline``.

The layer is strictly opt-in: without a recorder the runtimes never import
this package and the hot path is untouched (see
``tests/obs/test_zero_overhead.py``).  See ``docs/observability.md`` for
the walkthrough and the metrics schema.
"""

from repro.obs.adapters import (
    record_fault_report,
    record_perf,
    record_rebalance,
    record_serve_request,
)
from repro.obs.export import (
    DRIVER_PID,
    METRICS_VERSION,
    SERVE_METRICS_VERSION,
    chrome_trace,
    metrics_json,
    serve_metrics_json,
    write_chrome_trace,
    write_metrics,
)
from repro.obs.span import InstantEvent, Recorder, Span, maybe_span
from repro.obs.timeline import print_timeline, render_timeline

__all__ = [
    "Recorder",
    "Span",
    "InstantEvent",
    "maybe_span",
    "chrome_trace",
    "write_chrome_trace",
    "metrics_json",
    "write_metrics",
    "METRICS_VERSION",
    "DRIVER_PID",
    "render_timeline",
    "print_timeline",
    "record_perf",
    "record_fault_report",
    "record_serve_request",
    "record_rebalance",
    "serve_metrics_json",
    "SERVE_METRICS_VERSION",
]

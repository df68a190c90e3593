"""Exporters: Chrome trace-event JSON and the versioned metrics JSON.

Two artifacts, one :class:`~repro.obs.span.Recorder`:

* :func:`chrome_trace` — the `Trace Event Format
  <https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU>`_
  dict that Perfetto / ``chrome://tracing`` load directly.  Every rank is
  one *process* (``pid`` == rank number) so the UI shows one track per
  rank; driver-side spans get their own process.  Spans become complete
  events (``ph: "X"``), instant events become ``ph: "i"``.
* :func:`metrics_json` — a versioned, JSON-stable metrics document
  (counters / gauges / histograms plus span roll-ups), the same contract
  style as the lint JSON (``version`` bumps on breaking changes; schema
  documented in ``docs/observability.md``).
"""

from __future__ import annotations

import json
from typing import Any, Optional

from repro.obs.span import Recorder

#: bump on breaking changes to the metrics document layout (2: per-rank
#: busy is wall time; ``time_basis`` and the simulated makespan are gone)
METRICS_VERSION = 2

#: ``pid`` used for driver-side (rank-less) spans in the Chrome trace
DRIVER_PID = 1_000_000


def chrome_trace(recorder: Recorder) -> dict[str, Any]:
    """The Chrome trace-event dict for ``recorder``, in wall time.

    Timestamps are microseconds, as the format requires.  Spans and
    instants are listed in a total order on their content — pid, ts, the
    longest duration first, name, args — not in the order ranks finished
    them.
    """
    events: list[dict[str, Any]] = []
    pids = set()
    for span in recorder.spans:
        pid = span.rank if span.rank is not None else DRIVER_PID
        pids.add(pid)
        event: dict[str, Any] = {
            "name": span.name,
            "cat": span.category or "span",
            "ph": "X",
            "ts": span.start_wall * 1e6,
            "dur": max(span.wall_duration, 0.0) * 1e6,
            "pid": pid,
            "tid": 0,
        }
        if span.attrs:
            event["args"] = dict(span.attrs)
        events.append(event)
    for inst in recorder.instants:
        pid = inst.rank if inst.rank is not None else DRIVER_PID
        pids.add(pid)
        event = {
            "name": inst.name,
            "cat": inst.category or "mark",
            "ph": "i",
            "ts": inst.ts_wall * 1e6,
            "pid": pid,
            "tid": 0,
            "s": "p",  # process-scoped instant: draws across the rank's track
        }
        if inst.attrs:
            event["args"] = dict(inst.attrs)
        events.append(event)
    events.sort(key=lambda e: (e["pid"], e["ts"], -e.get("dur", 0.0), e["name"],
                               json.dumps(e.get("args"), sort_keys=True, default=str),
                               e["ph"], e["cat"]))
    # name the tracks: "rank N" processes sorted by rank, driver last
    for pid in sorted(pids):
        name = "driver" if pid == DRIVER_PID else f"rank {pid}"
        events.append(
            {"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
             "args": {"name": name}}
        )
        events.append(
            {"name": "process_sort_index", "ph": "M", "pid": pid, "tid": 0,
             "args": {"sort_index": -1 if pid == DRIVER_PID else pid}}
        )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"tool": "papar-obs"},
    }


def write_chrome_trace(path: str, recorder: Recorder) -> dict[str, Any]:
    """Write :func:`chrome_trace` to ``path``; returns the exported dict."""
    doc = chrome_trace(recorder)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return doc


# -- metrics ----------------------------------------------------------------


def _percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile of a non-empty sorted sample list."""
    idx = min(len(samples) - 1, max(0, round(q * (len(samples) - 1))))
    return samples[idx]


def _keyed_metric(
    items: dict[tuple[str, Optional[int]], float],
) -> dict[str, dict[str, Any]]:
    """Fold ``(name, rank) -> value`` into ``{name: {total, per_rank}}``."""
    out: dict[str, dict[str, Any]] = {}
    for (name, rank), value in sorted(items.items(), key=lambda kv: (kv[0][0], repr(kv[0][1]))):
        slot = out.setdefault(name, {"total": 0, "per_rank": {}})
        slot["total"] += value
        if rank is not None:
            slot["per_rank"][str(rank)] = value
    return out


def metrics_json(
    recorder: Recorder, run: Optional[dict[str, Any]] = None
) -> dict[str, Any]:
    """The versioned metrics document for ``recorder``.

    ``run`` attaches run-level facts (the CLI's: workflow, backend, ranks,
    partitions and, when a cluster model priced the run, its elapsed time)
    under the ``"run"`` key.
    A rank's busy time is the wall time of its job spans.
    The contract is pinned by ``tests/obs/test_metrics_contract.py``.
    """
    histograms: dict[str, dict[str, Any]] = {}
    for name, samples in sorted(recorder.histograms.items()):
        # the percentiles read the held sample; the rest is exact either way
        ordered = sorted(samples)
        count, total, low, high = recorder.histogram_totals[name]
        histograms[name] = {
            "count": count,
            "min": low,
            "max": high,
            "mean": total / count,
            "p50": _percentile(ordered, 0.50),
            "p95": _percentile(ordered, 0.95),
            "p99": _percentile(ordered, 0.99),
        }
    per_rank_busy: dict[str, float] = {}
    for rank in recorder.ranks():
        top = [
            s for s in recorder.rank_spans(rank)
            if s.parent_id is None or s.category == "job"
        ]
        per_rank_busy[str(rank)] = sum(s.wall_duration for s in top)
    return {
        "schema": "papar.metrics",
        "version": METRICS_VERSION,
        "counters": _keyed_metric(recorder.counters),
        "gauges": _keyed_metric(recorder.gauges),
        "histograms": histograms,
        "spans": {
            "count": len(recorder.spans),
            "dropped": recorder.spans_dropped,
            "instants": len(recorder.instants),
            "makespan_wall_s": recorder.makespan_wall(),
            "per_rank_busy_s": per_rank_busy,
        },
        "run": dict(run or {}),
    }


#: bump on breaking changes to the serve metrics document layout
SERVE_METRICS_VERSION = 1

#: the histogram stat keys every serve latency block carries
_EMPTY_HIST = {"count": 0, "min": 0.0, "max": 0.0, "mean": 0.0,
               "p50": 0.0, "p95": 0.0, "p99": 0.0}


def serve_metrics_json(
    recorder: Recorder, server: Optional[dict[str, Any]] = None
) -> dict[str, Any]:
    """The versioned ``papar.serve`` metrics document for a daemon recorder.

    A serving-shaped view over the generic :func:`metrics_json` stream:
    per-verb request counts, admission-control rejections, accepted appends
    per wire encoding (``append_frames`` / ``append_json`` — an old client
    shows up as the latter), queue depth, rebalance events, and the
    append-latency distribution (p50/p95/p99).
    ``server`` attaches live daemon facts (generation, partition counts,
    pending queue) under the ``"server"`` key.  The layout is pinned by
    ``tests/obs/test_metrics_contract.py``.
    """
    base = metrics_json(recorder)
    counters = base["counters"]
    requests = {
        name[len("serve.requests."):]: slot["total"]
        for name, slot in counters.items()
        if name.startswith("serve.requests.")
    }
    latency = base["histograms"].get("serve.append_latency_ms", dict(_EMPTY_HIST))
    return {
        "schema": "papar.serve",
        "version": SERVE_METRICS_VERSION,
        "requests": requests,
        "rejected": counters.get("serve.rejected", {}).get("total", 0),
        "appended_records": counters.get("serve.appended_records", {}).get("total", 0),
        "append_frames": counters.get("serve.append_frames", {}).get("total", 0),
        "append_json": counters.get("serve.append_json", {}).get("total", 0),
        "coalesced_batches": counters.get("serve.coalesced_batches", {}).get("total", 0),
        "rebalances": counters.get("serve.rebalances", {}).get("total", 0),
        "snapshots": counters.get("serve.snapshots", {}).get("total", 0),
        "queue_depth": base["gauges"].get("serve.queue_depth", {}).get("total", 0),
        "append_latency_ms": latency,
        "server": dict(server or {}),
        "metrics": base,
    }


def write_metrics(
    path: str, recorder: Recorder, run: Optional[dict[str, Any]] = None
) -> dict[str, Any]:
    """Write :func:`metrics_json` to ``path``; returns the exported dict."""
    doc = metrics_json(recorder, run=run)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
    return doc

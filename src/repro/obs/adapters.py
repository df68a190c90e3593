"""Adapters folding the other diagnostic streams into one recorder.

A run reports through more than spans: the
:class:`~repro.mapreduce.columnar.PerfCounters` snapshots, the fault report
dict in ``PartitionResult.extra["fault"]`` and the ``serve`` daemon's
request and rebalance events.  Each adapter here maps one of those onto the
:class:`~repro.obs.span.Recorder` vocabulary (spans, instants, counters), so
a single exported artifact tells the whole story.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.obs.span import Recorder


def record_perf(recorder: Recorder, perf_summary: Optional[dict[str, Any]]) -> None:
    """Fold a :meth:`PerfCounters.summary` dict into counters and gauges.

    ``records_moved`` / ``bytes_moved`` become run-level counters;
    each phase's wall and virtual totals become ``perf.phase.*`` gauges.
    Spill counters (present only when a memory-budgeted run actually
    spilled) land under ``spill.*``, with the merge fan-in as a gauge.
    What the ranks of a file-to-file run wrote in place lands under
    ``output.*`` (absent when the driver wrote the partitions).
    """
    if not perf_summary:
        return
    recorder.count("shuffle.records_moved", perf_summary.get("records_moved", 0))
    recorder.count("shuffle.bytes_moved", perf_summary.get("bytes_moved", 0))
    for name, times in perf_summary.get("phases", {}).items():
        recorder.gauge(f"perf.phase.{name}.wall_s", times["wall_s"])
        recorder.gauge(f"perf.phase.{name}.virtual_s", times["virtual_s"])
    spill = perf_summary.get("spill")
    if spill:
        for key in ("runs_written", "spilled_records", "spilled_bytes"):
            recorder.count(f"spill.{key}", spill.get(key, 0))
        recorder.gauge("spill.max_merge_fanin", spill.get("max_merge_fanin", 0))
    output = perf_summary.get("output")
    if output and output["mode"] == "in_place":
        recorder.count("output.in_place_parts", output["parts"])
        recorder.count("output.in_place_bytes", output["bytes"])


def record_fault_report(recorder: Recorder, report: Optional[dict[str, Any]]) -> None:
    """Fold a ``PartitionResult.extra['fault']`` report into the stream.

    Attempts and virtual backoff become counters and every injected-fault
    firing becomes a driver-track instant, with the injector's per-kind
    counts under ``fault.injected.*``.  Failed attempts and worker crashes
    are *not* replayed here — the recovery loop records those live as
    ``retry``/``crash``/``restart`` instants and the ``fault.restarts``
    counter.
    """
    if not report:
        return
    recorder.count("fault.attempts", report.get("attempts", 1))
    recorder.count("fault.backoff_virtual_s", report.get("backoff_virtual_s", 0.0))
    if "backoff_wall_s" in report:
        recorder.count("fault.backoff_wall_s", report["backoff_wall_s"])
    recorder.count("fault.recovered_jobs", len(report.get("recovered_jobs", [])))
    injected = report.get("injected")
    if injected:
        for kind, n in injected.get("counts", {}).items():
            recorder.count(f"fault.injected.{kind}", n)
        for line in injected.get("fired", []):
            recorder.instant(line, category="fault.injected")


def record_serve_request(
    recorder: Recorder,
    verb: str,
    latency_ms: Optional[float] = None,
    rejected: bool = False,
    records: int = 0,
    encoding: Optional[str] = None,
) -> None:
    """Count one daemon request in the ``serve.*`` vocabulary.

    Every request increments ``serve.requests.<verb>``; admission-control
    rejections additionally count under ``serve.rejected``; ``append``
    requests feed the ``serve.append_latency_ms`` histogram, the
    ``serve.appended_records`` counter and, per wire ``encoding``
    (``"json"`` / ``"frames"``), ``serve.append_<encoding>`` (the
    ``papar.serve`` document's inputs — see
    :func:`repro.obs.export.serve_metrics_json`).
    """
    recorder.count(f"serve.requests.{verb}")
    if rejected:
        recorder.count("serve.rejected")
        return
    if encoding is not None:
        recorder.count(f"serve.append_{encoding}")
    if records:
        recorder.count("serve.appended_records", records)
    if latency_ms is not None:
        recorder.observe("serve.append_latency_ms", latency_ms)


def record_rebalance(
    recorder: Recorder,
    generation: int,
    reason: str,
    wall_s: float,
    records: int,
) -> None:
    """Record one online repartition: counter, histogram, and an instant.

    The instant makes every swap visible on the exported timeline with its
    trigger (``skew`` or ``drift``), the generation it published, and how
    many records the rebuild covered.
    """
    recorder.count("serve.rebalances")
    recorder.observe("serve.rebalance_wall_s", wall_s)
    recorder.instant(
        f"rebalance -> gen{generation} ({reason}, {records} records)",
        category="serve",
        attrs={"generation": generation, "reason": reason, "records": records},
    )


def record_optimizer(recorder: Recorder, summary: Optional[dict[str, Any]]) -> None:
    """Fold a ``PartitionResult.extra['optimizer']`` section into counters.

    Passes fired, operators/exchanges removed, and the estimated bytes the
    rewrites saved land under ``optimizer.*``; each applied rewrite also
    becomes a driver-track instant so the rewritten plan is visible on the
    run timeline.
    """
    if not summary:
        return
    recorder.count("optimizer.passes_fired", len(summary.get("passes_fired", [])))
    recorder.count("optimizer.operators_removed", summary.get("operators_removed", 0))
    recorder.count("optimizer.exchanges_removed", summary.get("exchanges_removed", 0))
    saved = summary.get("est_bytes_saved")
    if saved:
        recorder.count("optimizer.est_bytes_saved", saved)
    for rewrite in summary.get("rewrites", []):
        recorder.instant(
            f"{rewrite['code']} {rewrite['pass']} at {rewrite['site']}",
            category="optimizer",
        )

"""Adapters folding the other diagnostic streams into one recorder.

A run reports through more than spans: the
:class:`~repro.core.perf.PerfCounters` snapshots, the fault report
dict in ``PartitionResult.extra["fault"]`` and the ``serve`` daemon's
request and rebalance events.  Each adapter here maps one of those onto the
:class:`~repro.obs.span.Recorder` vocabulary (spans, instants, counters), so
a single exported artifact tells the whole story.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from repro.obs.span import Recorder


def record_perf(recorder: Recorder, perf_summary: Optional[dict[str, Any]]) -> None:
    """Fold a :meth:`PerfCounters.summary` dict into counters and gauges.

    ``records_moved`` / ``bytes_moved`` become run-level counters;
    each phase's wall total becomes a ``perf.phase.*`` gauge.
    Spill counters (present only when a memory-budgeted run actually
    spilled) land under ``spill.*``, with the merge fan-in as a gauge.
    What the ranks of a file-to-file run wrote in place lands under
    ``output.*`` (absent when the driver wrote the partitions).  The
    process backend's transport report adds each rank's zero-copy and
    pickled array bytes as ``comm.shm_bytes`` / ``comm.pickle_bytes``.
    """
    if not perf_summary:
        return
    recorder.count("shuffle.records_moved", perf_summary.get("records_moved", 0))
    recorder.count("shuffle.bytes_moved", perf_summary.get("bytes_moved", 0))
    for name, times in perf_summary.get("phases", {}).items():
        recorder.gauge(f"perf.phase.{name}.wall_s", times["wall_s"])
    spill = perf_summary.get("spill")
    if spill:
        for key in ("runs_written", "spilled_records", "spilled_bytes"):
            recorder.count(f"spill.{key}", spill.get(key, 0))
        recorder.gauge("spill.max_merge_fanin", spill.get("max_merge_fanin", 0))
    output = perf_summary.get("output")
    if output and output["mode"] == "in_place":
        recorder.count("output.in_place_parts", output["parts"])
        recorder.count("output.in_place_bytes", output["bytes"])
    transport = perf_summary.get("transport")
    if transport:
        for rank, lanes in transport["per_rank"].items():
            recorder.count("comm.shm_bytes", lanes["shm_bytes"], rank=rank)
            recorder.count("comm.pickle_bytes", lanes["pickle_bytes"], rank=rank)


def record_ranks(recorder: Recorder, plan_span: Any, jobs: Sequence[Any],
                 perfs: Sequence[Any]) -> None:
    """Replay rank ``r``'s :class:`~repro.core.perf.PerfCounters`
    ``perfs[r]``: a job of ``jobs`` it ran is a ``job`` span under
    ``plan_span`` with its exchanges and writes as children, one it restored
    a ``restored:<op_id>`` instant; what it sent counts as ``comm.*``."""
    at = recorder.wall_at
    for rank, perf in enumerate(perfs):
        for i, (job, counts) in enumerate(zip(jobs, perf.jobs)):
            for dest, (nbytes, messages) in counts.sent.items():
                recorder.count("comm.sent_bytes", nbytes, rank=rank)
                recorder.count("comm.sent_messages", messages, rank=rank)
                recorder.count("comm.recv_bytes", nbytes, rank=dest)
            if counts.restored:
                recorder.instant(f"restored:{job.op_id}", "checkpoint", rank,
                                 ts_wall=at(counts.start))
                continue
            job_id = recorder.record_span(
                job.op_id, "job", rank, at(counts.start), at(counts.end), plan_span,
                {"job_index": i, "operator": job.operator_name.lower()},
            )
            for name, category, start, end, attrs in counts.spans:
                recorder.record_span(name, category, rank, at(start), at(end), job_id, attrs)


def record_fault_report(recorder: Recorder, report: Optional[dict[str, Any]]) -> None:
    """Fold a ``PartitionResult.extra['fault']`` report into the stream.

    Attempts and backoff (priced or slept) become counters and every injected-fault
    firing becomes a driver-track instant, with the injector's per-kind
    counts under ``fault.injected.*``.  Failed attempts and worker crashes
    are *not* replayed here — the recovery loop records those live as
    ``retry``/``crash``/``restart`` instants and the ``fault.restarts``
    counter.
    """
    if not report:
        return
    recorder.count("fault.attempts", report.get("attempts", 1))
    for key in ("backoff_s", "backoff_wall_s"):
        if key in report:
            recorder.count(f"fault.{key}", report[key])
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
    requests: int = 1,
) -> None:
    """Count ``requests`` daemon requests of one verb in the ``serve.*``
    vocabulary (the daemon tallies accepted appends and counts them here
    in one call per encoding).

    Every request increments ``serve.requests.<verb>``; admission-control
    rejections additionally count under ``serve.rejected``; ``append``
    requests feed the ``serve.append_latency_ms`` histogram, the
    ``serve.appended_records`` counter and, per wire ``encoding``
    (``"json"`` / ``"frames"``), ``serve.append_<encoding>`` (the
    ``papar.serve`` document's inputs — see
    :func:`repro.obs.export.serve_metrics_json`).
    """
    recorder.count(f"serve.requests.{verb}", requests)
    if rejected:
        recorder.count("serve.rejected", requests)
        return
    if encoding is not None:
        recorder.count(f"serve.append_{encoding}", requests)
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


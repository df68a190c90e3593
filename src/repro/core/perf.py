"""Records and bytes moved, per-phase wall time and the counts the cost
model prices: ``run --stats``.

Every runtime threads one :class:`PerfCounters` per rank through
``PartitionResult.extra["perf"]`` (printed by ``python -m repro run
--stats``).  It lives apart from the shuffle kernels so that a run which
exchanges no records does not load them.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Optional, Sequence


class JobCounts:
    """What one rank did in one job, in the units the cost model prices
    (:func:`repro.cluster.model.price`).

    ``kernels`` maps a :class:`~repro.cluster.model.CostModel` kernel
    (``sort``, ``hash_group``, ``stream``) to the records the rank ran it
    over; ``sent`` maps a destination rank to ``[bytes, messages]``;
    ``packed`` is the bytes the rank pickled or unpickled; ``slowdown`` is
    its straggler factor; ``records_moved``/``bytes_moved`` the rows it
    routed and their bytes.  The executor counts the kernels and the rows, the
    communicator tallies the traffic, the driver sets the slowdown.

    ``start``/``end`` stamp the job by ``time.perf_counter`` (one clock for
    forked ranks too), ``spans`` its exchanges and writes as ``(name,
    category, start, end, attrs)``; ``restored`` marks checkpointed counts.
    """

    __slots__ = ("kernels", "sent", "packed", "slowdown", "records_moved", "bytes_moved",
                 "start", "end", "spans", "restored")

    def __init__(self, kernels: Optional[dict[str, int]] = None,
                 sent: Optional[dict[int, list[int]]] = None, packed: int = 0,
                 slowdown: float = 1.0) -> None:
        self.kernels = {} if kernels is None else kernels
        self.sent = {} if sent is None else sent
        self.packed = packed
        self.slowdown = slowdown
        self.records_moved = self.bytes_moved = 0
        self.start = self.end = 0.0
        self.spans: list[tuple[str, str, float, float, dict[str, Any]]] = []
        self.restored = False


class PerfCounters:
    """Records / bytes moved, per-phase wall time and per-job counts.

    One instance per rank; :meth:`merge` folds rank counters into a run
    total: records and bytes moved sum over the jobs (every rank's, restored
    ones included); wall time per phase takes the max over ranks — the
    phase's makespan, never longer than the run.  The driver prices each
    rank's :attr:`jobs` before it merges.
    """

    def __init__(self) -> None:
        #: phase name -> wall seconds
        self.phases: dict[str, float] = {}
        #: one :class:`JobCounts` per planned job, in plan order
        self.jobs: list[JobCounts] = []
        #: out-of-core spill counters (empty unless a memory budget spilled);
        #: keys: runs_written / spilled_records / spilled_bytes / max_merge_fanin
        self.spill: dict[str, int] = {}
        #: which tail of the final deal produced the output of a file-to-file
        #: run: ``{"mode": "in_place", "parts", "bytes"}`` — written by the
        #: ranks themselves — or ``{"mode": "gathered", "reason"}`` when the
        #: driver is handed the partitions (set by the driver, from the plan)
        self.output: dict[str, Any] = {}
        #: the path each job's kernel ran, by ``op_id`` (the planned
        #: :class:`~repro.core.physical.Physical` choice it dispatched on)
        self.paths: dict[str, str] = {}

    @property
    def records_moved(self) -> int:
        return sum(job.records_moved for job in self.jobs)

    @property
    def bytes_moved(self) -> int:
        return sum(job.bytes_moved for job in self.jobs)

    def count_move(self, records: int, nbytes: int) -> None:
        """The current job routed ``records`` more rows, ``nbytes`` bytes."""
        job = self.jobs[-1]
        job.records_moved += int(records)
        job.bytes_moved += int(nbytes)

    def count_kernel(self, kernel: str, records: int) -> None:
        """The current job ran ``kernel`` over ``records`` more records."""
        kernels = self.jobs[-1].kernels
        kernels[kernel] = kernels.get(kernel, 0) + int(records)

    def add_spill(self, stats: dict) -> None:
        """Fold one rank's out-of-core spill counters into this instance."""
        for name, value in stats.items():
            if name == "max_merge_fanin":
                self.spill[name] = max(self.spill.get(name, 0), int(value))
            else:
                self.spill[name] = self.spill.get(name, 0) + int(value)

    @contextmanager
    def job(self, phase: str):
        """Stamp the next job's :class:`JobCounts`; its wall time adds to ``phase``."""
        counts = JobCounts()
        self.jobs.append(counts)
        counts.start = time.perf_counter()
        try:
            yield counts
        finally:
            counts.end = time.perf_counter()
            self.phases[phase] = self.phases.get(phase, 0.0) + counts.end - counts.start

    def restore(self, counts: JobCounts) -> None:
        """Append a job's counts restored from a checkpoint, stamped now."""
        counts.restored, counts.start = True, time.perf_counter()
        self.jobs.append(counts)

    @contextmanager
    def timed(self, name: str, category: str, attrs: dict[str, Any]):
        """Stamp an exchange or a write of the current job."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.jobs[-1].spans.append((name, category, start, time.perf_counter(), attrs))

    def merge(self, other: "PerfCounters") -> None:
        self.jobs.extend(other.jobs)
        for name, wall in other.phases.items():
            self.phases[name] = max(self.phases.get(name, 0.0), wall)
        if other.spill:
            self.add_spill(other.spill)
        self.paths.update(other.paths)

    def summary(self) -> dict[str, Any]:
        """The JSON-friendly dict stored in ``PartitionResult.extra['perf']``.

        The ``spill`` block appears only when something actually spilled, so
        budget-free runs produce byte-identical summaries to older builds.
        """
        out: dict[str, Any] = {
            "records_moved": self.records_moved,
            "bytes_moved": self.bytes_moved,
            "phases": {name: {"wall_s": wall} for name, wall in sorted(self.phases.items())},
        }
        if any(self.spill.values()):
            out["spill"] = {name: value for name, value in sorted(self.spill.items())}
        if self.output:
            out["output"] = dict(self.output)
        if self.paths:
            out["paths"] = dict(self.paths)
        return out

    @staticmethod
    def merge_ranks(counters: Sequence[Optional["PerfCounters"]]) -> "PerfCounters":
        total = PerfCounters()
        for c in counters:
            if c is not None:
                total.merge(c)
        return total

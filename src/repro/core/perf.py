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
    its straggler factor.  The executor counts the kernels, the
    communicator tallies the traffic, the driver sets the slowdown.
    """

    __slots__ = ("kernels", "sent", "packed", "slowdown")

    def __init__(self, kernels: Optional[dict[str, int]] = None,
                 sent: Optional[dict[int, list[int]]] = None, packed: int = 0,
                 slowdown: float = 1.0) -> None:
        self.kernels = {} if kernels is None else kernels
        self.sent = {} if sent is None else sent
        self.packed = packed
        self.slowdown = slowdown


class PerfCounters:
    """Records / bytes moved, per-phase wall time and per-job counts.

    One instance per rank; :meth:`merge` folds rank counters into a run
    total: records and bytes sum; wall time per phase takes the max over
    ranks — the phase's makespan, never longer than the run.  The per-job
    :attr:`jobs` stay per rank: the driver prices them before it merges.
    """

    def __init__(self, records_moved: int = 0, bytes_moved: int = 0) -> None:
        self.records_moved = records_moved
        self.bytes_moved = bytes_moved
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

    def count_move(self, records: int, nbytes: int) -> None:
        self.records_moved += int(records)
        self.bytes_moved += int(nbytes)

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
    def phase(self, name: str):
        """Time a phase by ``perf_counter``."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.phases[name] = self.phases.get(name, 0.0) + time.perf_counter() - t0

    def merge(self, other: "PerfCounters") -> None:
        self.records_moved += other.records_moved
        self.bytes_moved += other.bytes_moved
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

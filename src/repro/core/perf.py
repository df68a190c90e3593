"""Records and bytes moved, per-phase wall and virtual time: ``run --stats``.

Every runtime threads one :class:`PerfCounters` per rank through
``PartitionResult.extra["perf"]`` (printed by ``python -m repro run
--stats``).  It lives apart from the shuffle kernels so that a run which
exchanges no records does not load them.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Optional, Sequence


class PerfCounters:
    """Records / bytes moved plus per-phase wall and virtual time.

    One instance per rank; :meth:`merge` folds rank counters into a run
    total: records and bytes sum; wall and virtual time per phase take the
    max over ranks — the phase's makespan, never longer than the run.
    """

    def __init__(self, records_moved: int = 0, bytes_moved: int = 0) -> None:
        self.records_moved = records_moved
        self.bytes_moved = bytes_moved
        #: phase name -> [wall seconds, virtual seconds]
        self.phases: dict[str, list[float]] = {}
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

    def add_spill(self, stats: dict) -> None:
        """Fold one rank's out-of-core spill counters into this instance."""
        for name, value in stats.items():
            if name == "max_merge_fanin":
                self.spill[name] = max(self.spill.get(name, 0), int(value))
            else:
                self.spill[name] = self.spill.get(name, 0) + int(value)

    @contextmanager
    def phase(self, name: str, clock: Any = None):
        """Time a phase: wall via ``perf_counter``, virtual via ``clock.now``."""
        t0 = time.perf_counter()
        v0 = clock.now if clock is not None else 0.0
        try:
            yield
        finally:
            wall = time.perf_counter() - t0
            virt = (clock.now - v0) if clock is not None else 0.0
            acc = self.phases.setdefault(name, [0.0, 0.0])
            acc[0] += wall
            acc[1] += virt

    def merge(self, other: "PerfCounters") -> None:
        self.records_moved += other.records_moved
        self.bytes_moved += other.bytes_moved
        for name, (wall, virt) in other.phases.items():
            acc = self.phases.setdefault(name, [0.0, 0.0])
            acc[0] = max(acc[0], wall)
            acc[1] = max(acc[1], virt)
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
            "phases": {
                name: {"wall_s": wall, "virtual_s": virt}
                for name, (wall, virt) in sorted(self.phases.items())
            },
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

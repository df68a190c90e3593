"""The spillable shuffle: per-destination run files exchanged by manifest.

In the simulated cluster every rank is a thread sharing one filesystem, so
a spilled shuffle never ships record payloads through the fabric at all:
each sender drains its outgoing buckets into one crc32-framed run file per
destination rank, and the SPMD executor's all-to-all exchanges only the
tiny :class:`~repro.ooc.runfile.SpillManifest` descriptors.  The receiver
then streams the frames back from disk **in source-rank order** — the
same order an in-memory outbox's all-to-all + concat produces — which is
what keeps a spilled run bit-identical to the fast path.

:class:`OOCContext` is the per-rank handle threaded through a budgeted
execution: it owns the budget, names run files uniquely per rank, and
accumulates the spill counters that land in ``PerfCounters`` (and, per
job, in checkpoint payloads as run-file manifests).
"""

from __future__ import annotations

import itertools
import os
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

import numpy as np

from repro.ooc.budget import MemoryBudget

if TYPE_CHECKING:  # pragma: no cover - the run files load with the first spill
    from repro.ooc.runfile import Frame, RunWriter, SpillManifest


class SpillStats:
    """Counters one out-of-core context accumulates across its spills."""

    def __init__(self) -> None:
        self.runs_written = 0
        self.spilled_records = 0
        self.spilled_bytes = 0
        self.max_merge_fanin = 0
        #: whether the runs are narrow: (sort key, row id) for each record
        self.narrow = False
        #: manifests of every run this context wrote (checkpoint payload)
        self.manifests: list = []

    def record_run(self, manifest: SpillManifest) -> None:
        """Fold one finished run into the counters."""
        self.runs_written += 1
        self.spilled_records += manifest.num_records
        self.spilled_bytes += manifest.nbytes
        self.manifests.append(manifest)

    def record_merge(self, fanin: int) -> None:
        """Track the widest k-way merge performed."""
        if fanin > self.max_merge_fanin:
            self.max_merge_fanin = fanin

    def as_dict(self) -> dict:
        """The summary dict folded into ``PerfCounters`` / checkpoints."""
        return {
            "runs_written": self.runs_written,
            "spilled_records": self.spilled_records,
            "spilled_bytes": self.spilled_bytes,
            "max_merge_fanin": self.max_merge_fanin,
            "narrow": int(self.narrow),
        }


class OOCContext:
    """Per-rank state of one memory-budgeted execution."""

    def __init__(
        self,
        budget: MemoryBudget,
        spill_dir: str,
        rank: int = 0,
        max_fanin: int = 8,
    ) -> None:
        self.budget = budget
        self.spill_dir = os.fspath(spill_dir)
        self.rank = rank
        self.max_fanin = max_fanin
        self.stats = SpillStats()
        self._names = itertools.count()

    def new_run_path(self, kind: str) -> str:
        """A fresh run-file path, unique across this rank's lifetime."""
        return os.path.join(
            self.spill_dir, f"rank{self.rank:03d}-{kind}-{next(self._names):06d}.run"
        )

    def chunk_records(self, itemsize: int) -> int:
        """Records per streamed chunk for ``itemsize``-byte records."""
        return self.budget.chunk_records(itemsize)

    def should_spill(self, nbytes: int) -> bool:
        """Whether a working set of ``nbytes`` must go through run files."""
        return self.budget.exceeds(nbytes)

    def manifest_mark(self) -> int:
        """Position in the manifest log (to slice per-job manifests)."""
        return len(self.stats.manifests)

    def manifests_since(self, mark: int) -> list[dict]:
        """Manifests recorded after ``mark``, as checkpointable dicts."""
        return [m.as_dict() for m in self.stats.manifests[mark:]]

    def fold_into(self, perf) -> None:
        """Fold the accumulated spill counters into a ``PerfCounters``."""
        perf.add_spill(self.stats.as_dict())


class SpillableShuffle:
    """Drains per-destination buckets into one run file per destination.

    Senders call :meth:`append` once per (chunk, destination) bucket;
    :meth:`finish` closes the writers and returns one manifest (or
    ``None``) per destination, ready for the all-to-all.  Frames carry
    an optional ``tag`` (the distribute path folds the piece's partition
    and first global index into it, so its frames are keyless) and
    optional per-record keys.
    """

    def __init__(
        self,
        ctx: OOCContext,
        num_dests: int,
        value_dtype: np.dtype,
        key_dtype: Optional[np.dtype] = None,
        kind: str = "shuffle",
    ) -> None:
        self.ctx = ctx
        self.value_dtype = np.dtype(value_dtype)
        self.key_dtype = np.dtype(key_dtype) if key_dtype is not None else None
        self.kind = kind
        self._writers: list[Optional[RunWriter]] = [None] * num_dests

    def append(
        self,
        dest: int,
        values: np.ndarray,
        keys: Optional[np.ndarray] = None,
        tag: int = 0,
    ) -> None:
        """Append one framed bucket bound for destination ``dest``."""
        if not len(values):
            return
        writer = self._writers[dest]
        if writer is None:
            from repro.ooc.runfile import RunWriter

            writer = RunWriter(
                self.ctx.new_run_path(self.kind),
                self.value_dtype,
                self.key_dtype,
                source=self.ctx.rank,
            )
            self._writers[dest] = writer
        writer.append(values, keys=keys, tag=tag)

    def finish(self) -> list[Optional[SpillManifest]]:
        """Close every writer; one manifest per destination (None if empty)."""
        manifests: list[Optional[SpillManifest]] = []
        for writer in self._writers:
            if writer is None:
                manifests.append(None)
                continue
            manifest = writer.close()
            self.ctx.stats.record_run(manifest)
            manifests.append(manifest)
        self._writers = [None] * len(self._writers)
        return manifests


def drain_frames(
    manifests: Sequence[Optional[SpillManifest]],
) -> Iterator[Frame]:
    """Stream frames of received manifests in the given (source-rank) order."""
    from repro.ooc.runfile import RunReader

    for manifest in manifests:
        if manifest is None:
            continue
        yield from RunReader(manifest.path).frames()


def concat_manifest_values(
    manifests: Sequence[Optional[SpillManifest]], value_dtype: np.dtype
) -> np.ndarray:
    """All received records in source-rank order as one array.

    The receive-side materialization point: identical bytes to the
    in-memory all-to-all + concat, because manifests arrive in source
    order and frames replay each sender's append order.
    """
    parts = [frame.values for frame in drain_frames(manifests)]
    if not parts:
        return np.empty(0, dtype=value_dtype)
    return np.concatenate(parts)

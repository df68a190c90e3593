"""External merge sort over spill run files.

The classic two-phase design, specialized to the columnar run-file layout:

1. **Run formation** — each budget-sized chunk is stable-argsorted in
   memory and written out as one sorted run (frames small enough that a
   k-way merge holding one frame per run stays inside the budget).
2. **k-way merge** — a heap over one cursor per run streams records out
   in globally sorted order.  When more runs exist than the merge fan-in
   allows, consecutive groups are merged into longer runs first
   (multi-pass), so the number of frames resident at once never exceeds
   ``max_fanin + 1``.

Stability is the load-bearing property (the paper's cyclic distribution
depends on tie order): chunks are added in input order, runs are numbered
in creation order, and the heap breaks key ties by run ordinal — so equal
keys come out in exactly the order a stable in-memory sort of the
concatenated input would produce, for any budget and any fan-in.
"""

from __future__ import annotations

import heapq
import os
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence

import numpy as np

from repro.ooc.runfile import Frame, RunReader, RunWriter, SpillManifest
from repro.ops.sort import sort_key_array

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ooc.spill import OOCContext

#: default widest merge; beyond this, runs are combined in extra passes
DEFAULT_MAX_FANIN = 8


class _Cursor:
    """Streaming read position inside one sorted run (one frame resident)."""

    __slots__ = ("_frames", "keys", "values", "i")

    def __init__(self, reader: RunReader) -> None:
        self._frames = reader.frames()
        self.keys: Optional[np.ndarray] = None
        self.values: Optional[np.ndarray] = None
        self.i = 0
        self._next_frame()

    def _next_frame(self) -> None:
        for frame in self._frames:
            if len(frame):
                self.keys = frame.keys
                self.values = frame.values
                self.i = 0
                return
        self.keys = None
        self.values = None

    @property
    def exhausted(self) -> bool:
        return self.keys is None

    def current_key(self):
        return self.keys[self.i]

    def pop(self):
        """The current record; advances (loading the next frame if needed)."""
        value = self.values[self.i]
        self.i += 1
        if self.i >= len(self.values):
            self._next_frame()
        return value


def merge_run_frames(
    manifests: Sequence[SpillManifest], frame_records: int
) -> Iterator[Frame]:
    """k-way merge of sorted runs, streamed as frames of ``frame_records``.

    Holds one input frame per run plus one output frame — the caller
    bounds memory by bounding ``len(manifests)`` (the fan-in) and the
    frame size.  Ties break by run ordinal, preserving input order.
    """
    if not manifests:
        return
    if len(manifests) == 1:
        # single run: already sorted, re-stream its frames verbatim
        yield from RunReader(manifests[0].path).frames()
        return
    cursors = [_Cursor(RunReader(m.path)) for m in manifests]
    key_dtype = None
    value_dtype = None
    for m in manifests:
        reader = RunReader(m.path)
        key_dtype, value_dtype = reader.key_dtype, reader.value_dtype
        reader.close()
        break
    # heap entries are (key, run ordinal): unique per run, so the cursor
    # itself is never compared
    heap: list[tuple] = []
    for ordinal, cur in enumerate(cursors):
        if not cur.exhausted:
            heap.append((cur.current_key(), ordinal))
    heapq.heapify(heap)
    out_keys: list = []
    out_values: list = []
    while heap:
        key, ordinal = heapq.heappop(heap)
        cur = cursors[ordinal]
        out_keys.append(key)
        out_values.append(cur.pop())
        if not cur.exhausted:
            heapq.heappush(heap, (cur.current_key(), ordinal))
        if len(out_values) >= frame_records:
            yield Frame(
                values=np.array(out_values, dtype=value_dtype),
                keys=np.array(out_keys, dtype=key_dtype),
            )
            out_keys, out_values = [], []
    if out_values:
        yield Frame(
            values=np.array(out_values, dtype=value_dtype),
            keys=np.array(out_keys, dtype=key_dtype),
        )


class ExternalSorter:
    """Sorts an unbounded stream of chunks under a fixed memory budget.

    Feed unsorted ``(keys, values)`` chunks with :meth:`add_chunk` in
    input order, then stream the merged output with :meth:`merged_frames`
    (or materialize it with :meth:`sorted_values` when the caller owns
    the result anyway).
    """

    def __init__(
        self,
        ctx: "OOCContext",
        value_dtype: np.dtype,
        key_dtype: np.dtype = np.dtype(np.int64),
        max_fanin: int = DEFAULT_MAX_FANIN,
    ) -> None:
        self.ctx = ctx
        self.value_dtype = np.dtype(value_dtype)
        self.key_dtype = np.dtype(key_dtype)
        self.max_fanin = max(2, int(max_fanin))
        # one input frame per merged run + the output frame must all fit
        # in a chunk's worth of budget
        itemsize = self.value_dtype.itemsize + self.key_dtype.itemsize
        self.frame_records = max(
            1, self.ctx.chunk_records(itemsize) // (self.max_fanin + 1)
        )
        self.runs: list[SpillManifest] = []

    def add_chunk(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Stable-sort one chunk and write it out as a sorted run."""
        if not len(values):
            return
        order = np.argsort(keys, kind="stable")
        self._write_run(keys[order], values[order])

    def add_sorted_chunk(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Write an already-sorted chunk as a run (no local sort)."""
        if len(values):
            self._write_run(keys, values)

    def _write_run(self, keys: np.ndarray, values: np.ndarray) -> None:
        writer = RunWriter(
            self.ctx.new_run_path("sort"),
            self.value_dtype,
            self.key_dtype,
            source=self.ctx.rank,
        )
        for pos in range(0, len(values), self.frame_records):
            end = min(pos + self.frame_records, len(values))
            writer.append(values[pos:end], keys=keys[pos:end])
        manifest = writer.close()
        self.ctx.stats.record_run(manifest)
        self.runs.append(manifest)

    def merged_frames(self) -> Iterator[Frame]:
        """The globally sorted stream, frame at a time, within budget."""
        runs = self.runs
        # multi-pass: collapse consecutive groups until one merge suffices
        while len(runs) > self.max_fanin:
            next_runs: list[SpillManifest] = []
            for i in range(0, len(runs), self.max_fanin):
                group = runs[i : i + self.max_fanin]
                if len(group) == 1:
                    next_runs.append(group[0])
                    continue
                writer = RunWriter(
                    self.ctx.new_run_path("merge"),
                    self.value_dtype,
                    self.key_dtype,
                    source=self.ctx.rank,
                )
                for frame in merge_run_frames(group, self.frame_records):
                    writer.append(frame.values, keys=frame.keys)
                manifest = writer.close()
                self.ctx.stats.record_run(manifest)
                self.ctx.stats.record_merge(len(group))
                next_runs.append(manifest)
                for spent in group:
                    self._discard(spent)
            runs = next_runs
        if len(runs) > 1:
            self.ctx.stats.record_merge(len(runs))
        yield from merge_run_frames(runs, self.frame_records)

    def sorted_values(self) -> np.ndarray:
        """The fully sorted values as one array (caller materializes anyway)."""
        frames = [f.values for f in self.merged_frames()]
        if not frames:
            return np.empty(0, dtype=self.value_dtype)
        return np.concatenate(frames)

    @staticmethod
    def _discard(manifest: SpillManifest) -> None:
        """Drop an intermediate run consumed by a merge pass (best effort)."""
        try:
            os.remove(manifest.path)
        except OSError:  # pragma: no cover - cleanup only
            pass


def external_sort_chunks(
    chunks: Iterator[tuple[np.ndarray, np.ndarray]],
    ctx: "OOCContext",
    value_dtype: np.dtype,
    key_dtype: np.dtype = np.dtype(np.int64),
    max_fanin: int = DEFAULT_MAX_FANIN,
) -> ExternalSorter:
    """Feed ``(keys, values)`` chunks into a sorter and return it ready to merge."""
    sorter = ExternalSorter(ctx, value_dtype, key_dtype, max_fanin=max_fanin)
    for keys, values in chunks:
        sorter.add_chunk(keys, values)
    return sorter


def external_sort_records(
    chunks: Iterable[np.ndarray],
    key: str,
    ascending: bool,
    ctx: "OOCContext",
    dtype: np.dtype,
) -> np.ndarray:
    """Stable external sort of record chunks (in input order) by one field.

    The one way a plain ``Sort`` runs when its input exceeds the budget,
    whether the chunks stream from an input file or from received run
    files.
    """
    key_dtype = sort_key_array(np.empty(0, dtype=dtype[key]), ascending).dtype
    pieces = ((sort_key_array(records[key], ascending), records) for records in chunks)
    return external_sort_chunks(
        pieces, ctx, dtype, key_dtype, max_fanin=ctx.max_fanin
    ).sorted_values()

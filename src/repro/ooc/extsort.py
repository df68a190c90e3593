"""External merge sort over spill run files.

The classic two-phase design, specialized to the columnar run-file layout:

1. **Run formation** — each budget-sized chunk is stably ordered in memory
   (:func:`repro.order.stable_order`, as every sort in the repo) and
   written out as one sorted run (frames small enough that a
   k-way merge holding one frame per run stays inside the budget).
2. **Block merge** — :func:`merge_run_frames` merges the runs a *block* at
   a time, in O(frames) interpreter steps instead of one per record.  Each
   round takes ``bound``, the smallest frame-last key over the live runs:
   every record below it is already resident (each run is sorted, so what
   a run has not loaded yet is at least its own frame-last key, hence at
   least ``bound``).  One ``searchsorted`` per run cuts its frame at
   ``bound``, the slices are concatenated in run order, one stable
   ``argsort`` orders the block (numpy's timsort: the block is a handful
   of presorted slices, which it merges in O(n)), and it leaves as frames of
   ``frame_records``.  Resident at once: one frame per run plus one output
   block of at most as many records.  When more runs exist than the merge
   fan-in allows, consecutive groups are merged into longer runs first
   (multi-pass), so the fan-in bounds residency for any number of runs.

A sort whose rows can be fetched by index (see :mod:`repro.ops.sort`)
spills *narrow* runs: the values are row ids, so a run record is the sort
key plus a row id, and :class:`SortedRuns` gathers each merged frame's
records from the source rows as it streams (:func:`external_sort_rows`).
Records are spilled whole only where no row can be fetched by index — a
text input, the run files an SPMD record exchange received
(:func:`external_sort_records`).

Stability is the load-bearing property (the paper's cyclic distribution
depends on tie order): chunks are added in input order and runs are
numbered in creation order, so equal keys must leave lowest run first.
Inside a block the stable order over slices concatenated in run order
does that.  Across blocks the *tie rule* does: let ``owner`` be the
lowest-numbered run whose frame ends on ``bound``.  Its next frame may
continue the tie, so runs above it hold their ``== bound`` records back
(``side="left"``) until the owner has moved past ``bound``; runs up to and
including the owner release theirs (``side="right"``) — a run below the
owner ends its frame strictly above ``bound``, so all of its ties are
resident.  The owner always empties its frame, so every round retires at
least one frame.  Keys compare the way numpy sorts them (NaN last, and
equal to itself), which is also how the runs were formed — so the merged
stream is exactly what a stable in-memory sort of the concatenated input
produces, for any budget, any fan-in and any float key.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from repro.core.dataset import Dataset, row_id_dtype
from repro.ooc.runfile import Frame, RunReader, RunWriter, SpillManifest
from repro.order import sort_key_array, sort_key_dtype, stable_order

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.formats.records import RecordSchema
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
        self.next_frame()

    def next_frame(self) -> None:
        """Load the next non-empty frame (``keys`` is None once exhausted)."""
        for frame in self._frames:
            if len(frame):
                self.keys = frame.keys
                self.values = frame.values
                self.i = 0
                return
        self.keys = None
        self.values = None

    def take_through(self, bound, side: str) -> tuple[np.ndarray, np.ndarray]:
        """Cut the resident frame at ``bound`` and advance past the cut."""
        lo = self.i
        hi = lo + int(np.searchsorted(self.keys[lo:], bound, side=side))
        taken = self.keys[lo:hi], self.values[lo:hi]
        self.i = hi
        if hi >= len(self.keys):
            self.next_frame()
        return taken

    def close(self) -> None:
        """Release the run file, wherever the read position is (closing the
        started frame generator runs the reader's own ``finally``)."""
        self._frames.close()


def merge_run_frames(
    manifests: Sequence[SpillManifest], frame_records: int
) -> Iterator[Frame]:
    """Block merge of sorted runs, streamed as frames of ``frame_records``.

    Holds one input frame per run plus one output block — the caller
    bounds memory by bounding ``len(manifests)`` (the fan-in) and the
    frame size.  Ties break by run ordinal, preserving input order (the
    module docstring has the tie rule).
    """
    if not manifests:
        return
    if len(manifests) == 1:
        # single run: already sorted, re-stream its frames verbatim
        yield from RunReader(manifests[0].path).frames()
        return
    cursors: list[_Cursor] = []
    try:
        for m in manifests:
            cursors.append(_Cursor(RunReader(m.path)))
        # merged records not yet emitted: fewer than one frame, and no
        # greater than anything still to come, so they lead the next block
        carry_keys = carry_values = None
        while True:
            live = [cur for cur in cursors if cur.keys is not None]
            if not live:
                break
            lasts = np.array([cur.keys[-1] for cur in live])
            # numpy's order, not Python's: NaN is the largest key and ties
            # with itself; the stable argsort picks the lowest run on a tie
            first = int(np.argsort(lasts, kind="stable")[0])
            bound = lasts[first]
            key_parts = [] if carry_keys is None else [carry_keys]
            value_parts = [] if carry_values is None else [carry_values]
            for ordinal, cur in enumerate(live):
                keys, values = cur.take_through(
                    bound, "right" if ordinal <= first else "left"
                )
                if len(keys):
                    key_parts.append(keys)
                    value_parts.append(values)
            if len(key_parts) == 1:
                block_keys, block_values = key_parts[0], value_parts[0]
            else:
                block_keys = np.concatenate(key_parts)
                # numpy's own stable sort, not stable_order: the block is a
                # few presorted slices, which timsort merges in O(n) (1.3 ms
                # against the packed kernel's 2.2 ms for 8 slices of 14.5k)
                order = np.argsort(block_keys, kind="stable")
                block_keys = block_keys[order]
                # naming the dtype skips numpy's per-call field promotion
                block_values = np.concatenate(
                    value_parts, dtype=value_parts[0].dtype
                )[order]
            full = len(block_keys) - len(block_keys) % frame_records
            for pos in range(0, full, frame_records):
                yield Frame(
                    values=block_values[pos : pos + frame_records],
                    keys=block_keys[pos : pos + frame_records],
                )
            carry_keys = carry_values = None
            if full < len(block_keys):
                # copied so the carry does not pin the block it was cut from
                carry_keys = block_keys[full:].copy()
                carry_values = block_values[full:].copy()
        if carry_keys is not None:
            yield Frame(values=carry_values, keys=carry_keys)
    finally:
        for cur in cursors:
            cur.close()


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
        # one input frame per merged run plus one more fit in a chunk's
        # worth of budget (a quarter of it); the merge's output block — the
        # cut slices, concatenated and gathered — adds up to two more
        itemsize = self.value_dtype.itemsize + self.key_dtype.itemsize
        self.frame_records = max(
            1, self.ctx.chunk_records(itemsize) // (self.max_fanin + 1)
        )
        self.runs: list[SpillManifest] = []

    def add_chunk(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Stable-sort one chunk and write it out as a sorted run."""
        if not len(values):
            return
        order = stable_order(keys)
        self._write_run(keys[order], values[order])

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

    @property
    def num_records(self) -> int:
        """Records added so far (what the merged stream will hold)."""
        return sum(run.num_records for run in self.runs)

    def _collapse(self) -> None:
        """Multi-pass: merge consecutive groups until one merge suffices."""
        while len(self.runs) > self.max_fanin:
            next_runs: list[SpillManifest] = []
            for i in range(0, len(self.runs), self.max_fanin):
                group = self.runs[i : i + self.max_fanin]
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
            self.runs = next_runs

    def merged_frames(self) -> Iterator[Frame]:
        """The globally sorted stream, frame at a time, within budget.

        Re-iterable while the run files exist: the collapse passes happen
        once, every call re-streams the final merge.
        """
        self._collapse()
        if len(self.runs) > 1:
            self.ctx.stats.record_merge(len(self.runs))
        yield from merge_run_frames(self.runs, self.frame_records)

    def sorted_values(self) -> np.ndarray:
        """The fully sorted values as one array (caller materializes anyway)."""
        out = np.empty(self.num_records, dtype=self.value_dtype)
        pos = 0
        for frame in self.merged_frames():
            out[pos : pos + len(frame)] = frame.values
            pos += len(frame)
        return out

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


class SortedRuns:
    """A spilled sort's output, left on disk: the merge runs when it is read.

    Stands where a flat :class:`~repro.core.dataset.Dataset` would — it
    has the ``schema``, ``len``, ``nbytes``, ``is_packed``, ``chunks()``
    and ``materialize()`` a :class:`~repro.ooc.chunked.ChunkedDataset`
    has — so a consumer that streams (``Distribute``) never holds the
    sorted copy, and one that cannot calls :meth:`materialize`.  Valid, and
    re-iterable, while the spill directory lives.  With ``rows`` the runs
    hold row ids, and every frame is gathered from ``rows`` as it streams.
    """

    is_packed = False

    def __init__(
        self,
        sorter: ExternalSorter,
        schema: "RecordSchema",
        rows: Optional[np.ndarray] = None,
    ) -> None:
        self.sorter = sorter
        self.schema = schema
        self.rows = rows

    def __len__(self) -> int:
        return self.sorter.num_records

    @property
    def nbytes(self) -> int:
        """In-memory structured size of the sorted records."""
        return len(self) * self.schema.itemsize

    def chunks(self) -> Iterator[Dataset]:
        """The sorted records in order, one merged frame at a time."""
        for frame in self.sorter.merged_frames():
            records = frame.values if self.rows is None else self.rows[frame.values]
            yield Dataset(schema=self.schema, records=records)

    def materialize(self) -> Dataset:
        """The sorted records as one in-memory dataset."""
        values = self.sorter.sorted_values()
        return Dataset(
            schema=self.schema, records=values if self.rows is None else self.rows[values]
        )

    def __reduce__(self) -> tuple:
        # a checkpoint holds the records, never paths into a spill directory
        return Dataset, (self.schema, self.materialize().records)

    def row_ids(self) -> Iterator[np.ndarray]:
        """Narrow runs' merged row ids, a frame at a time: what a sort of
        this output streams into its own runs."""
        for frame in self.sorter.merged_frames():
            yield frame.values


def external_sort_records(
    chunks: Iterable[np.ndarray],
    key: str,
    ascending: bool,
    ctx: "OOCContext",
    schema: "RecordSchema",
) -> SortedRuns:
    """Stable external sort of record chunks (in input order) by one field.

    The one way a plain ``Sort`` runs when its input exceeds the budget,
    whether the chunks stream from an input file or from received run
    files.  Run formation happens here; the merge is deferred to whoever
    reads the returned view.
    """
    dtype = schema.dtype
    key_dtype = sort_key_dtype(dtype[key], ascending)
    pieces = ((sort_key_array(records[key], ascending), records) for records in chunks)
    sorter = external_sort_chunks(pieces, ctx, dtype, key_dtype, max_fanin=ctx.max_fanin)
    return SortedRuns(sorter, schema)


def external_sort_rows(
    rows: np.ndarray,
    ids: Union[np.ndarray, Iterable[np.ndarray], None],
    key: str,
    ascending: bool,
    ctx: "OOCContext",
    schema: "RecordSchema",
) -> SortedRuns:
    """Stable external sort of the entries ``rows[ids]`` (``rows`` when
    ``ids`` is ``None``) by one field, spilling narrow runs.

    ``ids`` is an array, or arrays streamed in entry order (a spilled
    narrow sort's :meth:`SortedRuns.row_ids`).  Reads the key column a
    budget-sized chunk at a time; a run record is the sort key plus the
    entry's row id, of the narrowest unsigned dtype that addresses
    ``rows``.  The merged stream gathers its records from ``rows`` frame by
    frame, so no record is ever written to a run file.
    """
    id_dtype = row_id_dtype(len(rows))
    key_dtype = sort_key_dtype(schema.dtype[key], ascending)
    column = rows[key]
    step = ctx.chunk_records(key_dtype.itemsize + id_dtype.itemsize)
    sorter = ExternalSorter(ctx, id_dtype, key_dtype, max_fanin=ctx.max_fanin)
    if ids is None:
        for pos in range(0, len(rows), step):
            end = min(pos + step, len(rows))
            keys = sort_key_array(column[pos:end], ascending)
            sorter.add_chunk(keys, np.arange(pos, end, dtype=id_dtype))
    else:
        if isinstance(ids, np.ndarray):
            ids = np.array_split(ids, range(step, len(ids), step))
        for chunk in _joined(ids, step):
            chunk = chunk.astype(id_dtype, copy=False)
            sorter.add_chunk(sort_key_array(column[chunk], ascending), chunk)
    ctx.stats.narrow = ctx.stats.narrow or bool(sorter.runs)
    return SortedRuns(sorter, schema, rows=rows)


def _joined(arrays: Iterable[np.ndarray], size: int) -> Iterator[np.ndarray]:
    """Consecutive arrays joined until each piece holds ``size`` entries
    (the last may hold fewer)."""
    held: list[np.ndarray] = []
    count = 0
    for array in arrays:
        held.append(array)
        count += len(array)
        while count >= size:
            joined = np.concatenate(held) if len(held) > 1 else held[0]
            yield joined[:size]
            held, count = [joined[size:]], count - size
    if count:
        yield np.concatenate(held)

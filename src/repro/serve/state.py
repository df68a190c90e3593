"""Hot partition state of the daemon: append log, generations, atomic swap.

Two structures live here:

* :class:`PartitionGeneration` — one generation's hot partitions.  Each
  partition is a list of record-array *chunks*: the rebuilt base (workflow
  output schema) plus the incrementally-routed batches appended since (in
  the input schema — a rebalance folds them into the workflow schema).
  A routed batch is counted when it is dealt and, when the partitions are
  next read, gathered once into owner order, every partition's chunk a
  view of that one array (:meth:`PartitionGeneration.deal`).
* :class:`ServeState` — the arrival-ordered append log (one growing
  record array plus batch end offsets, read as views — a
  :class:`BatchLog` batch by batch), the *current* generation, and the
  offset past which acknowledged batches still wait to be dealt.  The
  swap discipline is the subsystem's core invariant: mutation happens
  only between awaits on the daemon's single event loop,
  and a rebalance replaces the whole :class:`PartitionGeneration` object in
  one assignment — an in-flight request that grabbed a reference keeps
  seeing a fully consistent generation, never a torn mix of old and new
  partitions (pinned by ``tests/serve/test_server.py``).

The log is the ground truth: a rebalance rebuilds partitions by running the
full workflow over the accumulated log — already one array, the
concatenated input — which is exactly the cold batch run over it: the
bit-identical equivalence contract of
``tests/serve/test_incremental_equivalence.py``.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any, Optional

import numpy as np

from repro.errors import PaParError
from repro.order import stable_order


class ServeError(PaParError):
    """A streaming-service configuration or state error."""


class PartitionGeneration:
    """One generation of hot partitions (rebuilt base + appended chunks).

    A dealt batch is counted at once and attached to the partitions when
    they are next read (:attr:`chunks`, :attr:`key_ranges`): a generation a
    rebuild replaces first is never gathered at all.
    """

    def __init__(
        self,
        generation: int,
        chunks: list[list[np.ndarray]],
        counts: np.ndarray,
        rebuilt_records: int,
        key_field: Optional[str] = None,
    ) -> None:
        #: monotonically increasing swap counter (0 = the warm-start build)
        self.generation = generation
        #: per-partition chunk lists; chunk dtypes may differ between the
        #: rebuilt base and incrementally appended input-schema batches
        self._chunks = chunks
        #: per-partition record counts (kept incrementally; int64)
        self.counts = counts
        #: how many log records the rebuilt base covers (drift = log - this)
        self.rebuilt_records = rebuilt_records
        #: the column whose per-partition (min, max) is kept up to date (the
        #: router's key, so ``query`` never walks the chunks); see :meth:`track`
        self.key_field = key_field
        self._key_ranges: list[Optional[tuple[Any, Any]]] = []
        #: ``(records, owners, sizes)`` dealt and counted, not yet attached
        self._unattached: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []

    @classmethod
    def from_partitions(
        cls,
        generation: int,
        partitions: list[np.ndarray],
        rebuilt_records: int,
        key_field: Optional[str] = None,
    ) -> "PartitionGeneration":
        """Wrap freshly rebuilt partition arrays as a new generation."""
        new = cls(
            generation=generation,
            chunks=[[p] for p in partitions],
            counts=np.array([len(p) for p in partitions], dtype=np.int64),
            rebuilt_records=rebuilt_records,
        )
        new.track(key_field)
        return new

    @property
    def chunks(self) -> list[list[np.ndarray]]:
        """Per partition, its chunks: the rebuilt base, then every dealt
        batch's share in arrival order."""
        self._attach()
        return self._chunks

    @property
    def key_ranges(self) -> list[Optional[tuple[Any, Any]]]:
        """Per partition, ``(min, max)`` of ``key_field``, ``None`` where no
        chunk carries it (empty when no field is tracked)."""
        self._attach()
        return self._key_ranges

    @property
    def num_partitions(self) -> int:
        """How many partitions this generation holds."""
        return len(self._chunks)

    @property
    def total_records(self) -> int:
        """Records across every partition (base + appended chunks)."""
        return int(self.counts.sum())

    def track(self, key_field: Optional[str]) -> None:
        """Keep a running ``(min, max)`` of ``key_field`` per partition.

        Seeded by one walk over the chunks held now; every batch attached
        widens it from then on.
        """
        self._attach()
        self.key_field = key_field
        self._key_ranges = (
            [self._walk_key_range(pid, key_field) for pid in range(self.num_partitions)]
            if key_field is not None
            else []
        )

    def deal(self, records: np.ndarray, owners: np.ndarray) -> None:
        """Deal a routed batch: ``records[i]`` goes to partition ``owners[i]``.

        Counted now; attached — one stable order of the owners and **one**
        gather, each partition's chunk a view of the gathered array, in
        arrival order — when the partitions are next read, so neither array
        may change until then (the daemon deals read-only views of its log).
        Nothing is dealt when an owner lies outside ``[0, num_partitions)``.
        Event-loop only.
        """
        if len(records) == 0:
            return
        parts = self.num_partitions
        if not (
            len(owners) == len(records)
            and (owners.dtype.kind == "u" or owners.min() >= 0)
            and owners.max() < parts
        ):
            raise ServeError(
                f"cannot deal {len(records)} records by {len(owners)} owner ids: "
                f"need one id in [0, {parts}) per record"
            )
        sizes = np.bincount(owners, minlength=parts)
        self.counts += sizes
        self._unattached.append((records, owners, sizes))

    def _attach(self) -> None:
        """Gather every batch dealt since the last read into its chunks."""
        if not self._unattached:
            return
        batches, self._unattached = self._unattached, []
        for records, owners, sizes in batches:
            dealt = records[stable_order(owners)]
            hit, starts = [], []
            end = 0
            for pid, size in enumerate(sizes.tolist()):
                if size:
                    hit.append(pid)
                    starts.append(end)
                    end += size
                    self._chunks[pid].append(dealt[end - size : end])
            if self.key_field not in (dealt.dtype.names or ()):
                continue
            keys = dealt[self.key_field]
            ranges = self._key_ranges
            for pid, lo, hi in zip(
                hit,
                np.minimum.reduceat(keys, starts).tolist(),
                np.maximum.reduceat(keys, starts).tolist(),
            ):
                held = ranges[pid]
                if held is not None:
                    lo, hi = min(held[0], lo), max(held[1], hi)
                ranges[pid] = (lo, hi)

    def partition_records(self, partition_id: int) -> np.ndarray:
        """One partition materialized as a single record array.

        Raises :class:`ServeError` when the partition holds chunks of
        different schemas (appends since the last rebalance use the input
        schema while the rebuilt base uses the workflow output schema) —
        callers that need a uniform array should rebalance first.
        """
        chunks = self.chunks[partition_id]
        if not chunks:
            return np.empty(0)
        dtypes = {c.dtype for c in chunks}
        if len(dtypes) > 1:
            raise ServeError(
                f"partition {partition_id} holds mixed-schema chunks "
                "(incremental appends pending); rebalance before materializing"
            )
        return chunks[0] if len(chunks) == 1 else np.concatenate(chunks)

    def key_range(self, partition_id: int, key_field: str) -> Optional[tuple[Any, Any]]:
        """(min, max) of ``key_field`` in a partition, or None when absent.

        O(1) for the tracked field; any other field walks the chunks.
        """
        if key_field == self.key_field:
            return self.key_ranges[partition_id]
        return self._walk_key_range(partition_id, key_field)

    def _walk_key_range(
        self, partition_id: int, key_field: str
    ) -> Optional[tuple[Any, Any]]:
        lo = hi = None
        for chunk in self.chunks[partition_id]:
            if len(chunk) == 0 or key_field not in (chunk.dtype.names or ()):
                continue
            col = chunk[key_field]
            clo, chi = col.min(), col.max()
            lo = clo if lo is None else min(lo, clo)
            hi = chi if hi is None else max(hi, chi)
        if lo is None:
            return None
        return (lo.item() if hasattr(lo, "item") else lo,
                hi.item() if hasattr(hi, "item") else hi)

    def stats(self, key_field: Optional[str] = None) -> list[dict[str, Any]]:
        """Per-partition summary rows for the ``query`` verb."""
        out = []
        for pid in range(self.num_partitions):
            row: dict[str, Any] = {"id": pid, "records": int(self.counts[pid])}
            if key_field is not None:
                rng = self.key_range(pid, key_field)
                if rng is not None:
                    row["key_min"], row["key_max"] = rng
            out.append(row)
        return out


class BatchLog(Sequence[np.ndarray]):
    """The log as its batches: read-only views of one record array cut at ``ends``.

    ``records`` holds every batch back to back and ``ends[i]`` is where
    batch ``i`` stops; indexing yields the batch (a slice, a list of them).
    What :func:`repro.serve.router.build_router` samples and what a
    snapshot writes, one key per batch.
    """

    def __init__(self, records: np.ndarray, ends: list[int]) -> None:
        self.records = records
        self.ends = ends

    def __len__(self) -> int:
        return len(self.ends)

    def __getitem__(self, index):  # type: ignore[override]
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        i = range(len(self.ends))[index]
        return self.records[self.ends[i - 1] if i else 0 : self.ends[i]]


class ServeState:
    """The append log plus the current partition generation.

    The log is one record array, grown geometrically and never rewritten
    below ``log_records``: a batch is copied in once, and every reader — a
    pass, a rebuild on a worker thread, a snapshot — takes a read-only view
    of a prefix, which a later append or a growth (a new array, the old one
    left as it was) never changes.  The batches still to be dealt into
    ``current`` are the log past an offset.
    """

    def __init__(self) -> None:
        #: every logged record in arrival order in ``_buf[:log_records]``;
        #: the rest is unwritten capacity
        self._buf: Optional[np.ndarray] = None
        #: ``_buf`` as bytes (None for a dtype with object fields)
        self._bytes: Optional[np.ndarray] = None
        #: end offset of each batch; batch 0 is the warm-start input
        self._ends: list[int] = []
        #: total records across the log
        self.log_records = 0
        #: the hot generation requests read (swapped atomically on rebalance)
        self.current: Optional[PartitionGeneration] = None
        #: how many batches (and records) of the log are dealt into
        #: ``current``; the acknowledged rest waits for the next pass
        self._dealt_batches = 0
        self._dealt_records = 0

    @classmethod
    def of_log(cls, log: BatchLog) -> "ServeState":
        """A state over ``log`` as it stands, all of it dealt; its records
        are not copied (a snapshot's frozen view) — an append would grow
        into a new buffer."""
        state = cls()
        state._buf, state._ends = log.records, list(log.ends)
        state.log_records = state._dealt_records = len(log.records)
        state._dealt_batches = len(log.ends)
        return state

    def admit(self, records: np.ndarray) -> None:
        """Copy one checked batch into the log — what its ``ok`` stands for —
        and leave it for the next pass to deal."""
        lo = self.log_records
        hi = lo + len(records)
        buf = self._buf
        if buf is None or hi > len(buf) or buf.dtype != records.dtype:
            self._grow(records.dtype, hi)
        self._write(lo, records)
        self._ends.append(hi)
        self.log_records = hi

    def _grow(self, dtype: np.dtype, need: int) -> None:
        """A larger buffer holding the log so far; views of the old one stay valid."""
        old = self._buf
        if old is not None and old.dtype != dtype:
            raise ServeError(
                f"cannot log a batch of dtype {dtype} in a log of {old.dtype}"
            )
        self._buf = np.empty(max(need, 2 * len(old) if old is not None else 0), dtype=dtype)
        self._bytes = None if dtype.hasobject else self._buf.view(np.uint8)
        if old is not None:
            self._write(0, old[: self.log_records])

    def _write(self, at: int, records: np.ndarray) -> None:
        """Copy ``records`` into the buffer from record ``at`` on.

        As bytes where the dtype allows: numpy assigns structured records
        field by field, at several times the cost.
        """
        if self._bytes is None:
            self._buf[at : at + len(records)] = records
        else:
            width = self._buf.itemsize
            self._bytes[at * width : (at + len(records)) * width] = (
                np.ascontiguousarray(records).view(np.uint8)
            )

    def append_log(self, records: np.ndarray) -> None:
        """Log a batch ``current`` already holds (the warm-start input, a
        restored log): nothing to deal."""
        if self.pending:
            raise ServeError("cannot log a dealt batch behind undealt ones")
        self.admit(records)
        self._dealt_batches, self._dealt_records = len(self._ends), self.log_records

    @property
    def pending(self) -> int:
        """Acknowledged batches not yet dealt into ``current``."""
        return len(self._ends) - self._dealt_batches

    def take_undealt(self) -> tuple[np.ndarray, int]:
        """The undealt records as one read-only view, and how many batches
        they came in; from now on they count as dealt."""
        records = self.freeze_log()[self._dealt_records :]
        batches = self.pending
        self._dealt_batches, self._dealt_records = len(self._ends), self.log_records
        return records, batches

    def freeze_log(self) -> np.ndarray:
        """The log as of now: a read-only view safe to read from any thread."""
        if self._buf is None:
            return np.empty(0)
        view = self._buf[: self.log_records]
        view.flags.writeable = False
        return view

    @property
    def log(self) -> BatchLog:
        """The log as of now, batch by batch."""
        return BatchLog(self.freeze_log(), self._ends[:])

    def swap(self, new_generation: PartitionGeneration) -> PartitionGeneration:
        """Publish ``new_generation`` as current (single-assignment atomic)."""
        if self.current is not None and new_generation.generation <= self.current.generation:
            raise ServeError(
                f"generation must advance: {new_generation.generation} <= "
                f"{self.current.generation}"
            )
        self.current = new_generation
        return new_generation

    @property
    def drift_fraction(self) -> float:
        """Fraction of the log the current generation has not been rebuilt over."""
        if self.current is None or self.log_records == 0:
            return 0.0
        pending = self.log_records - self.current.rebuilt_records
        return max(0.0, pending / self.log_records)


__all__ = ["BatchLog", "PartitionGeneration", "ServeError", "ServeState"]

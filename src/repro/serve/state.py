"""Hot partition state of the daemon: append log, generations, atomic swap.

Two structures live here:

* :class:`PartitionGeneration` — one generation's hot partitions.  Each
  partition is a list of record-array *chunks*: the rebuilt base (workflow
  output schema) plus the incrementally-routed batches appended since (in
  the input schema — a rebalance folds them into the workflow schema).
  A routed batch is gathered once into owner order and every partition's
  chunk is a view of that one array (:meth:`PartitionGeneration.deal`).
* :class:`ServeState` — the arrival-ordered append log, the *current*
  generation, and the acknowledged batches still to be dealt into it.  The
  swap discipline is the subsystem's core invariant: mutation happens
  only between awaits on the daemon's single event loop,
  and a rebalance replaces the whole :class:`PartitionGeneration` object in
  one assignment — an in-flight request that grabbed a reference keeps
  seeing a fully consistent generation, never a torn mix of old and new
  partitions (pinned by ``tests/serve/test_server.py``).

The log is the ground truth: a rebalance rebuilds partitions by running the
full workflow over the accumulated log, which is exactly the cold batch run
over the concatenated input — the bit-identical equivalence contract of
``tests/serve/test_incremental_equivalence.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from repro.errors import PaParError
from repro.order import stable_order


class ServeError(PaParError):
    """A streaming-service configuration or state error."""


@dataclass
class PartitionGeneration:
    """One generation of hot partitions (rebuilt base + appended chunks)."""

    #: monotonically increasing swap counter (0 = the warm-start build)
    generation: int
    #: per-partition chunk lists; chunk dtypes may differ between the
    #: rebuilt base and incrementally appended input-schema batches
    chunks: list[list[np.ndarray]]
    #: per-partition record counts (kept incrementally; int64)
    counts: np.ndarray
    #: how many log records the rebuilt base covers (drift = log - this)
    rebuilt_records: int
    #: the column whose per-partition (min, max) is kept up to date (the
    #: router's key, so ``query`` never walks the chunks); see :meth:`track`
    key_field: Optional[str] = None
    #: per-partition ``(min, max)`` of ``key_field``, ``None`` where no
    #: chunk carries it
    key_ranges: list[Optional[tuple[Any, Any]]] = field(default_factory=list)

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
    def num_partitions(self) -> int:
        """How many partitions this generation holds."""
        return len(self.chunks)

    @property
    def total_records(self) -> int:
        """Records across every partition (base + appended chunks)."""
        return int(self.counts.sum())

    def track(self, key_field: Optional[str]) -> None:
        """Keep a running ``(min, max)`` of ``key_field`` per partition.

        Seeded by one walk over the chunks held now; :meth:`deal` widens it
        from then on.
        """
        self.key_field = key_field
        self.key_ranges = (
            [self._walk_key_range(pid, key_field) for pid in range(self.num_partitions)]
            if key_field is not None
            else []
        )

    def deal(self, records: np.ndarray, owners: np.ndarray) -> None:
        """Attach a routed batch: ``records[i]`` goes to partition ``owners[i]``.

        One stable order of the owners and **one** gather; each partition's
        chunk is a view of the gathered array, in arrival order.  Nothing is
        attached when an owner lies outside ``[0, num_partitions)``.
        Event-loop only.
        """
        if len(records) == 0:
            return
        parts = self.num_partitions
        if not (
            len(owners) == len(records)
            and owners.min() >= 0
            and owners.max() < parts
        ):
            raise ServeError(
                f"cannot deal {len(records)} records by {len(owners)} owner ids: "
                f"need one id in [0, {parts}) per record"
            )
        dealt = records[stable_order(owners)]
        sizes = np.bincount(owners, minlength=parts)
        hit = np.flatnonzero(sizes)
        ends = np.cumsum(sizes)[hit]
        starts = ends - sizes[hit]
        for pid, start, end in zip(hit.tolist(), starts.tolist(), ends.tolist()):
            self.chunks[pid].append(dealt[start:end])
        self.counts += sizes
        if self.key_field in (dealt.dtype.names or ()):
            keys = dealt[self.key_field]
            for pid, lo, hi in zip(
                hit.tolist(),
                np.minimum.reduceat(keys, starts).tolist(),
                np.maximum.reduceat(keys, starts).tolist(),
            ):
                held = self.key_ranges[pid]
                if held is not None:
                    lo, hi = min(held[0], lo), max(held[1], hi)
                self.key_ranges[pid] = (lo, hi)

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


@dataclass
class ServeState:
    """The append log plus the current partition generation."""

    #: arrival-ordered record batches; batch 0 is the warm-start input
    log: list[np.ndarray] = field(default_factory=list)
    #: total records across the log (cached; the log can get long)
    log_records: int = 0
    #: the hot generation requests read (swapped atomically on rebalance)
    current: Optional[PartitionGeneration] = None
    #: acknowledged batches — in ``log`` already — that the next pass still
    #: has to route and deal into ``current``
    undealt: list[np.ndarray] = field(default_factory=list)

    def append_log(self, records: np.ndarray) -> None:
        """Record one arrived batch in the ground-truth log."""
        self.log.append(records)
        self.log_records += len(records)

    def admit(self, records: np.ndarray) -> None:
        """Log an append — what its ``ok`` stands for — and queue it for the deal."""
        self.append_log(records)
        self.undealt.append(records)

    def freeze_log(self) -> tuple[list[np.ndarray], int]:
        """A stable (copy, record count) of the log for a background rebuild.

        The returned list is safe to read from a worker thread: batches are
        append-only and the copy pins the prefix the rebuild covers.
        """
        return list(self.log), self.log_records

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


__all__ = ["PartitionGeneration", "ServeError", "ServeState"]

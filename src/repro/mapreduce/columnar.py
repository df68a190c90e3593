"""Columnar key-value batches and the vectorized shuffle kernels.

The generic :class:`~repro.mapreduce.engine.MRMPIEngine` phases move Python
``(key, value)`` tuples through per-pair loops; fine for arbitrary objects,
but the partitioning workflows only ever shuffle numpy-typed keys with
fixed-width record values.  This module keeps such batches columnar — one
keys array plus one values array (structured dtypes for records) — and
drives every phase with array kernels:

* :func:`bucketize` — one stable order + ``bincount`` + ``split``
  replaces the O(n * destinations) per-destination ``flatnonzero`` scans.
  Both workflow runtimes and the engine shuffle route through it.
* :func:`group` — stable order + run-boundary detection, optionally
  restoring the generic engine's first-seen group order exactly.

  Every stable order here comes from :func:`repro.order.stable_order`:
  owner ids, group ranks and integer keys are sorted packed (key and index
  in one ``uint64``, numpy's vectorized sort); float or string keys, and
  integer keys whose range plus index exceed 64 bits, fall back to numpy's
  stable ``argsort`` with the same result.
* vectorized hash / range / explicit partitioning via
  :meth:`~repro.mapreduce.partitioner.Partitioner.partition_array`.
* ``reduceat``-based combiners for the Table I aggregates
  (count / sum / min / max / mean).

Equivalence with the per-pair path is by construction (stable orderings
everywhere) and enforced by ``tests/mapreduce/test_columnar_equivalence.py``.

The module also hosts :class:`PerfCounters`, the lightweight perf layer the
runtimes thread through ``PartitionResult.extra["perf"]`` (printed by
``python -m repro run --stats``).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional, Sequence

import numpy as np

from repro.errors import MapReduceError
from repro.order import stable_order

__all__ = [
    "KVBatch",
    "GroupedKVBatch",
    "bucketize",
    "group",
    "concat_batches",
    "index_dtype",
    "PerfCounters",
    "VectorCombiner",
    "COMBINERS",
]


# -- index dtype selection ---------------------------------------------------

#: largest record count addressable by int32 indexes (module-level so tests
#: can lower it to exercise the int64 path without allocating 2**31 records)
_INT32_MAX = np.iinfo(np.int32).max


def index_dtype(n: int) -> np.dtype:
    """The index dtype for a batch of ``n`` records.

    int32 halves the footprint of the shuffle's index arrays and the
    ``reduceat`` offsets for every realistic batch; beyond 2**31 - 1
    records int32 would silently wrap (negative indexes → wrong or
    out-of-bounds buckets), so larger batches get int64.
    """
    return np.dtype(np.int64) if n > _INT32_MAX else np.dtype(np.int32)


# -- bucketization ----------------------------------------------------------


def bucketize(owners: np.ndarray, num_buckets: int) -> list[np.ndarray]:
    """Per-bucket index arrays for ``owners`` in one pass.

    Equivalent to ``[np.flatnonzero(owners == b) for b in range(num_buckets)]``
    — each bucket keeps the original relative order (the stable sort keeps
    shuffles deterministic and bit-identical to the scan version) — but costs
    one O(n log n) sort instead of ``num_buckets`` O(n) scans.
    """
    owners = np.asarray(owners)
    if owners.ndim != 1:
        raise MapReduceError(f"owners must be 1-D, got shape {owners.shape}")
    if num_buckets < 1:
        raise MapReduceError(f"num_buckets must be >= 1, got {num_buckets!r}")
    if owners.size == 0:
        empty = np.empty(0, dtype=index_dtype(0))
        return [empty for _ in range(num_buckets)]
    if owners.dtype.kind not in "iu":
        owners = owners.astype(np.int64)
    lo, hi = int(owners.min()), int(owners.max())
    if lo < 0 or hi >= num_buckets:
        raise MapReduceError(
            f"owner ids must lie in [0, {num_buckets}), got range [{lo}, {hi}]"
        )
    order = stable_order(owners).astype(index_dtype(owners.size), copy=False)
    # the views np.split returns, without its per-section Python overhead
    ends = np.cumsum(np.bincount(owners, minlength=num_buckets)).tolist()
    return [order[lo:hi] for lo, hi in zip([0] + ends, ends)]


# -- the columnar batch -----------------------------------------------------


@dataclass
class KVBatch:
    """A batch of key-value pairs held as two aligned numpy arrays.

    ``keys`` is a 1-D array (int / bytes / float); ``values`` is a 1-D array
    of the same length — a structured dtype when each value is a record.
    """

    keys: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        self.keys = np.asarray(self.keys)
        self.values = np.asarray(self.values)
        if self.keys.ndim != 1:
            raise MapReduceError(f"KVBatch keys must be 1-D, got shape {self.keys.shape}")
        if len(self.keys) != len(self.values):
            raise MapReduceError(
                f"KVBatch length mismatch: {len(self.keys)} keys, {len(self.values)} values"
            )

    def __len__(self) -> int:
        return len(self.keys)

    @property
    def nbytes(self) -> int:
        return self.keys.nbytes + self.values.nbytes

    def take(self, indices: np.ndarray) -> "KVBatch":
        idx = np.asarray(indices)
        return KVBatch(keys=self.keys[idx], values=self.values[idx])

    def pairs(self) -> list[tuple[Any, Any]]:
        """The batch as plain Python pairs (the generic engine's currency)."""
        return list(zip(self.keys.tolist(), self.values.tolist()))

    @classmethod
    def from_pairs(
        cls,
        pairs: Sequence[tuple[Any, Any]],
        key_dtype: Any = None,
        value_dtype: Any = None,
    ) -> "KVBatch":
        """Columnarize a pair list (pass ``value_dtype`` for record tuples)."""
        keys = np.array([k for k, _ in pairs], dtype=key_dtype)
        if value_dtype is not None:
            values = np.array([tuple(v) if isinstance(v, (list, tuple)) else v
                               for _, v in pairs], dtype=value_dtype)
        else:
            values = np.array([v for _, v in pairs])
        return cls(keys=keys, values=values)


def concat_batches(batches: Sequence[KVBatch]) -> KVBatch:
    """Concatenate batches in order (empty slices keep their dtype)."""
    if not batches:
        raise MapReduceError("cannot concatenate zero KVBatches")
    if len(batches) == 1:
        return batches[0]
    return KVBatch(
        keys=np.concatenate([b.keys for b in batches]),
        values=np.concatenate([b.values for b in batches]),
    )


@dataclass
class GroupedKVBatch:
    """A grouped batch: one key per group, values concatenated group-major.

    Group ``g`` owns ``values[offsets[g]:offsets[g+1]]``; ``offsets`` has
    ``num_groups + 1`` entries.  The columnar analog of the generic engine's
    ``list[(key, list[value])]``.
    """

    keys: np.ndarray
    values: np.ndarray
    offsets: np.ndarray

    def __len__(self) -> int:
        return len(self.keys)

    @property
    def num_records(self) -> int:
        return len(self.values)

    @property
    def counts(self) -> np.ndarray:
        return np.diff(self.offsets)

    def value_slices(self) -> Iterator[tuple[Any, np.ndarray]]:
        for g in range(len(self.keys)):
            yield self.keys[g], self.values[self.offsets[g] : self.offsets[g + 1]]

    def items(self) -> list[tuple[Any, list[Any]]]:
        """The grouping as plain Python (mirrors ``MRMPIEngine.group``)."""
        keys = self.keys.tolist()
        values = self.values.tolist()
        offs = self.offsets.tolist()
        return [(keys[g], values[offs[g] : offs[g + 1]]) for g in range(len(keys))]


def group(batch: KVBatch, order: str = "first-seen") -> GroupedKVBatch:
    """Group a batch by key via one stable order + run-boundary detection.

    ``order="first-seen"`` reproduces the generic engine's dict grouping
    (groups appear in order of each key's first occurrence; values keep
    arrival order); ``order="key"`` leaves groups key-sorted, which is
    cheaper when the caller sorts anyway.
    """
    if order not in ("first-seen", "key"):
        raise MapReduceError(f"unknown group order {order!r}")
    n = len(batch)
    if n == 0:
        return GroupedKVBatch(
            keys=batch.keys, values=batch.values, offsets=np.zeros(1, dtype=index_dtype(0))
        )
    sort_idx = stable_order(batch.keys)
    sorted_keys = batch.keys[sort_idx]
    boundary = np.empty(n, dtype=bool)
    boundary[0] = True
    boundary[1:] = sorted_keys[1:] != sorted_keys[:-1]
    starts = np.flatnonzero(boundary)
    lengths = np.diff(np.append(starts, n))
    if order == "first-seen":
        # the stable sort puts each key's earliest original index at its run
        # start, so ranking runs by that index restores dict insertion order
        seen = stable_order(sort_idx[starts])
        gid_sorted = np.cumsum(boundary) - 1
        rank_of_group = np.empty(len(starts), dtype=np.int64)
        rank_of_group[seen] = np.arange(len(starts))
        sort_idx = sort_idx[stable_order(rank_of_group[gid_sorted])]
        group_order = seen
    else:
        group_order = np.arange(len(starts))
    offsets = np.concatenate(([0], np.cumsum(lengths[group_order])))
    return GroupedKVBatch(
        keys=sorted_keys[starts][group_order],
        values=batch.values[sort_idx],
        # reduceat offsets sized to the batch: int32 until indexes could wrap
        offsets=offsets.astype(index_dtype(n)),
    )


# -- vectorized combiners (Table I aggregates) -----------------------------


class VectorCombiner:
    """A combiner usable by both engine paths.

    Called as a generic ``reduce_fn(key, values, emit)`` it aggregates one
    Python value list; handed a :class:`GroupedKVBatch` via
    :meth:`apply_grouped` it aggregates every group with one ``reduceat``.
    """

    name: str = "abstract"

    def __call__(self, key: Any, values: list[Any], emit: Callable[[Any, Any], None]) -> None:
        emit(key, self._scalar(values))

    def _scalar(self, values: list[Any]) -> Any:
        raise NotImplementedError

    def apply_grouped(self, grouped: GroupedKVBatch) -> KVBatch:
        raise NotImplementedError


class CountCombiner(VectorCombiner):
    name = "count"

    def _scalar(self, values: list[Any]) -> Any:
        return len(values)

    def apply_grouped(self, grouped: GroupedKVBatch) -> KVBatch:
        return KVBatch(keys=grouped.keys, values=grouped.counts.astype(np.int64))


class _ReduceatCombiner(VectorCombiner):
    """Aggregates via a numpy ufunc's ``reduceat`` over the group offsets."""

    ufunc: np.ufunc

    def _scalar(self, values: list[Any]) -> Any:
        return self.ufunc.reduce(np.asarray(values))

    def apply_grouped(self, grouped: GroupedKVBatch) -> KVBatch:
        if len(grouped) == 0:
            return KVBatch(keys=grouped.keys, values=grouped.values)
        out = self.ufunc.reduceat(grouped.values, grouped.offsets[:-1])
        return KVBatch(keys=grouped.keys, values=out)


class SumCombiner(_ReduceatCombiner):
    name = "sum"
    ufunc = np.add


class MinCombiner(_ReduceatCombiner):
    name = "min"
    ufunc = np.minimum


class MaxCombiner(_ReduceatCombiner):
    name = "max"
    ufunc = np.maximum


class MeanCombiner(VectorCombiner):
    name = "mean"

    def _scalar(self, values: list[Any]) -> Any:
        return float(np.asarray(values).mean())

    def apply_grouped(self, grouped: GroupedKVBatch) -> KVBatch:
        if len(grouped) == 0:
            return KVBatch(keys=grouped.keys, values=grouped.values.astype(np.float64))
        sums = np.add.reduceat(grouped.values.astype(np.float64), grouped.offsets[:-1])
        return KVBatch(keys=grouped.keys, values=sums / grouped.counts)


#: the Table I aggregate add-ons, by configuration name
COMBINERS: dict[str, VectorCombiner] = {
    c.name: c
    for c in (CountCombiner(), SumCombiner(), MinCombiner(), MaxCombiner(), MeanCombiner())
}


# -- perf counters -----------------------------------------------------------


@dataclass
class PerfCounters:
    """Records / bytes moved plus per-phase wall and virtual time.

    One instance per rank; :meth:`merge` folds rank counters into a run
    total (records and bytes sum; wall time sums — total CPU work across
    rank threads; virtual time takes the max — the critical path).
    """

    records_moved: int = 0
    bytes_moved: int = 0
    #: phase name -> [wall seconds, virtual seconds]
    phases: dict[str, list[float]] = field(default_factory=dict)
    #: out-of-core spill counters (empty unless a memory budget spilled);
    #: keys: runs_written / spilled_records / spilled_bytes / max_merge_fanin
    spill: dict[str, int] = field(default_factory=dict)
    #: which tail of the final deal produced the output of an SPMD run
    #: (empty on serial): ``{"mode": "in_place", "parts", "bytes"}`` — what
    #: this rank's own partitions hold, written by the ranks themselves — or
    #: ``{"mode": "gathered", "reason"}`` when the driver is handed them
    output: dict[str, Any] = field(default_factory=dict)

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
            acc[0] += wall
            acc[1] = max(acc[1], virt)
        if other.spill:
            self.add_spill(other.spill)
        for name, value in other.output.items():
            # parts and bytes add up over the ranks; mode and reason agree
            if isinstance(value, int):
                value += self.output.get(name, 0)
            self.output[name] = value

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
        return out

    @staticmethod
    def merge_ranks(counters: Sequence[Optional["PerfCounters"]]) -> "PerfCounters":
        total = PerfCounters()
        for c in counters:
            if c is not None:
                total.merge(c)
        return total

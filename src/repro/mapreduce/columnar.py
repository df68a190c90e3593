"""Columnar key-value batches and the vectorized shuffle kernels.

The partitioning workflows shuffle numpy-typed keys with fixed-width record
values, so a batch stays columnar — one keys array plus one values array
(structured dtypes for records) — and every step is an array kernel:

* :func:`bucketize` — one stable order + ``bincount`` + ``split``
  replaces the O(n * destinations) per-destination ``flatnonzero`` scans.
  The SPMD executor's range exchange routes through it, whether its
  outbox is in memory or spilled.
* :func:`group` — stable order + run-boundary detection; groups come out
  in first-seen key order (dict grouping's order) or key-sorted.

  Every stable order here comes from :func:`repro.order.stable_order`:
  owner ids, group ranks and integer keys are sorted packed (key and index
  in one ``uint64``, numpy's vectorized sort); float or string keys, and
  integer keys whose range plus index exceed 64 bits, fall back to numpy's
  stable ``argsort`` with the same result.

Each kernel equals its scan or dict-grouping oracle
(``tests/mapreduce/test_columnar_equivalence.py``).

:class:`PerfCounters` lives in :mod:`repro.core.perf` (a run that exchanges
no records never loads this module); it is re-exported here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.perf import PerfCounters
from repro.errors import MapReduceError
from repro.order import stable_order

__all__ = [
    "KVBatch",
    "GroupedKVBatch",
    "bucketize",
    "group",
    "index_dtype",
    "PerfCounters",
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


@dataclass
class GroupedKVBatch:
    """A grouped batch: one key per group, values concatenated group-major.

    Group ``g`` owns ``values[offsets[g]:offsets[g+1]]``; ``offsets`` has
    ``num_groups + 1`` entries.
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


def group(batch: KVBatch, order: str = "first-seen") -> GroupedKVBatch:
    """Group a batch by key via one stable order + run-boundary detection.

    ``order="first-seen"`` reproduces dict grouping (groups appear in order
    of each key's first occurrence; values keep arrival order);
    ``order="key"`` leaves groups key-sorted, which is cheaper when the
    caller sorts anyway.
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

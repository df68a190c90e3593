"""Incremental routing of appended batches into the hot partitions.

A cold batch run decides each record's partition from *global* information
(its position in the fully sorted order, the sampled range boundaries, the
total record count).  A streamed append cannot know those, so the daemon
routes incrementally with the best vectorized approximation the workflow's
shape allows, and relies on the drift-triggered rebalance to reconcile the
hot partitions with the exact cold-batch answer:

* final ``distribute`` fed by a ``group`` chain — hash-route on the group
  key (:class:`~repro.mapreduce.partitioner.HashPartitioner`), preserving
  key co-location;
* fed by a ``sort`` chain — range-route on the sort key with quantile
  boundaries sampled from the accumulated log
  (:class:`~repro.mapreduce.partitioner.RangePartitioner`), preserving key
  locality;
* no key-bearing stage — positional dealing on a running global arrival
  index, each batch one more window for the distribute policy's
  :meth:`~repro.policies.distr.DistributionPolicy.pieces`, which for
  ``cyclic``/``graphVertexCut`` *is* the exact cold answer when arrival
  order equals file order.

These are the executor's routing objects, not a third implementation: the
range partitioner cuts keys for the SPMD sort and group exchanges, and
``pieces`` deals every backend's ``distribute``.  All three route a batch
in one vectorized pass — a range router over integer keys looks the owners
up in a table of :meth:`~repro.mapreduce.partitioner.RangePartitioner.partition_array`'s
answers across the boundaries' span — into owner ids of
:attr:`IncrementalRouter.owner_dtype` (one byte for up to 256 partitions,
which :func:`repro.order.stable_order` sorts by radix), and the server deals
them into the hot partitions with
:meth:`repro.serve.state.PartitionGeneration.deal`.

A range router compares keys in the *sort order*: both the sampled
boundaries and every routed key go through
:func:`repro.ops.sort.sort_key_array`, so a descending sort spreads over
all partitions (largest keys first) exactly as the cold run lays them out.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any, Optional

import numpy as np

from repro.core.planner import WorkflowPlan
from repro.formats.records import RecordSchema
from repro.mapreduce.partitioner import HashPartitioner, Partitioner, RangePartitioner
from repro.mapreduce.sampling import quantile_boundaries, sample_array
from repro.ops.distribute import Distribute
from repro.ops.group import Group
from repro.ops.sort import Sort, sort_key_array
from repro.serve.state import BatchLog, ServeError

#: how many log keys the range router samples for its quantile boundaries
ROUTER_SAMPLE_SIZE = 4096

#: the widest span of integer keys (last boundary - first + 2) a range router
#: keeps an owner table for; wider spans search the boundaries per key
OWNER_TABLE_SPAN = 1 << 16


class IncrementalRouter:
    """Maps an appended record batch to per-record partition owners."""

    #: routing strategy label (``hash`` / ``range`` / ``positional``)
    kind: str = "base"

    def __init__(self, num_partitions: int, key_field: Optional[str] = None) -> None:
        self.num_partitions = num_partitions
        self.key_field = key_field
        #: the integer type of the owner ids :meth:`route` returns
        self.owner_dtype = np.dtype(np.uint8 if num_partitions <= 256 else np.int64)

    def route(self, records: np.ndarray) -> np.ndarray:
        """Partition owner per record (vectorized; ``owner_dtype`` ids)."""
        raise NotImplementedError

    def partition_for_key(self, key: Any) -> Optional[int]:
        """The partition a single key routes to (``None`` for positional)."""
        return None

    def describe(self) -> dict[str, Any]:
        """A JSON-safe summary for the ``query`` verb."""
        out: dict[str, Any] = {"kind": self.kind, "partitions": self.num_partitions}
        if self.key_field is not None:
            out["key"] = self.key_field
        return out


class KeyedRouter(IncrementalRouter):
    """Route on a key column through a vectorized :class:`Partitioner`."""

    def __init__(
        self,
        partitioner: Partitioner,
        key_field: str,
        kind: str,
        ascending: bool = True,
    ) -> None:
        super().__init__(partitioner.num_reducers, key_field)
        self.partitioner = partitioner
        self.kind = kind
        #: False when the partitioner's boundaries are over negated keys
        self.ascending = ascending
        #: ``(lo, hi, owners)``: the owner of every integer key in ``[lo, hi]``,
        #: a key below or above looking up ``lo`` or ``hi`` (None: search)
        self._table = _owner_table(partitioner, self.owner_dtype)

    def route(self, records: np.ndarray) -> np.ndarray:
        """Vectorized owners from the key column (one partitioner pass, or
        one table lookup)."""
        if self.key_field not in (records.dtype.names or ()):
            raise ServeError(
                f"appended batch lacks routing key field {self.key_field!r}"
            )
        keys = sort_key_array(records[self.key_field], self.ascending)
        if self._table is not None and _fits_int64(keys.dtype):
            lo, hi, owners = self._table
            spots = keys.astype(np.int64)
            np.maximum(spots, lo, out=spots)
            np.minimum(spots, hi, out=spots)
            spots -= lo
            return owners[spots]
        return self.partitioner.partition_array(keys).astype(self.owner_dtype)

    def partition_for_key(self, key: Any) -> Optional[int]:
        """The partition one key value routes to (a routed batch of one)."""
        keys = sort_key_array(np.asarray([key]), self.ascending)
        return int(self.partitioner.partition_array(keys)[0])


class PositionalRouter(IncrementalRouter):
    """Deal records by global arrival index under the distribute policy.

    For ``cyclic`` / ``graphVertexCut`` dealing this matches the cold batch
    run exactly (partition = global index mod P); for ``block`` it is an
    approximation that the next rebalance corrects, because block boundaries
    move as the total grows.  A permutation-defined policy cannot deal a
    batch at a time and is refused here, while the daemon starts up.
    """

    kind = "positional"

    def __init__(self, op: Distribute, start_index: int) -> None:
        super().__init__(op.num_partitions)
        op.policy.require_positional()
        self.op = op
        #: global arrival index of the next record to route
        self.next_index = start_index

    def route(self, records: np.ndarray) -> np.ndarray:
        """Owners by global arrival index, advancing the running counter."""
        n = len(records)
        owners = np.empty(n, dtype=self.owner_dtype)
        first, self.next_index = self.next_index, self.next_index + n
        for p, _slot, where in self.op.policy.pieces(
            self.next_index, self.num_partitions, first, n
        ):
            owners[where] = p
        return owners

    def describe(self) -> dict[str, Any]:
        """Base summary plus the policy name and the running index."""
        out = super().describe()
        out["policy"] = self.op.policy.name
        out["next_index"] = self.next_index
        return out


def _fits_int64(dtype: np.dtype) -> bool:
    """Whether every value of ``dtype`` is an int64 value."""
    return dtype.kind == "i" or (dtype.kind in "ub" and dtype.itemsize < 8)


def _owner_table(
    partitioner: Partitioner, owner_dtype: np.dtype
) -> Optional[tuple[int, int, np.ndarray]]:
    """The range partitioner's owners over its integer boundaries' span.

    Every key in ``[lo, hi]`` — the first boundary to one past the last —
    maps through ``partition_array`` itself; a key outside routes as the
    end it is clipped to (below the first boundary: partition 0, above the
    last: the last partition).  None for float or unbounded keys, or a span
    wider than :data:`OWNER_TABLE_SPAN`.
    """
    if not isinstance(partitioner, RangePartitioner) or not partitioner.boundaries:
        return None
    bounds = np.asarray(partitioner.boundaries)
    if not _fits_int64(bounds.dtype):
        return None
    lo, hi = int(bounds[0]), int(bounds[-1]) + 1
    if hi - lo + 1 > OWNER_TABLE_SPAN or hi > np.iinfo(np.int64).max:
        return None
    owners = partitioner.partition_array(np.arange(lo, hi + 1, dtype=np.int64))
    return lo, hi, owners.astype(owner_dtype)


def _routing_stage(plan: WorkflowPlan) -> Optional[Any]:
    """The last key-bearing (sort/group) operator feeding the final distribute."""
    job = plan.final_job
    while job.source is not None:
        job = plan.job(job.source)
        if isinstance(job.operator, (Sort, Group)):
            return job.operator
    return None


def build_router(
    plan: WorkflowPlan,
    input_schema: RecordSchema,
    log_batches: Sequence[np.ndarray],
    total_records: int,
    sample: Optional["KeySample"] = None,
) -> IncrementalRouter:
    """Choose and build the router for ``plan`` from the accumulated log.

    ``log_batches`` (a list of record arrays, or a
    :class:`~repro.serve.state.BatchLog`) feeds the range router's
    boundary sample — continued from ``sample``, a :func:`sample_log` of a
    prefix of it, when given;
    ``total_records`` seeds the positional router's global index so dealing
    continues where the last rebuild left off.
    """
    final = plan.final_job.operator
    if not isinstance(final, Distribute):
        raise ServeError(
            f"serve needs a workflow ending in a distribute job, got "
            f"{plan.final_job.operator_name!r}"
        )
    stage = _routing_stage(plan)
    if stage is not None and input_schema.has_field(stage.key):
        if isinstance(stage, Group):
            return KeyedRouter(
                HashPartitioner(final.num_partitions), stage.key, kind="hash"
            )
        boundaries = (
            sample.boundaries(log_batches, final.num_partitions) if sample is not None
            else _sampled_boundaries(stage, log_batches, final.num_partitions)
        )
        if boundaries is not None:
            return KeyedRouter(
                RangePartitioner(boundaries, final.num_partitions),
                stage.key,
                kind="range",
                ascending=stage.ascending,
            )
    return PositionalRouter(final, start_index=total_records)


def sample_log(
    plan: WorkflowPlan, input_schema: RecordSchema, log_batches: Sequence[np.ndarray]
) -> Optional["KeySample"]:
    """The range router's key sample of ``log_batches``, or None when
    ``plan`` routes otherwise: what a rebuild takes of the log it froze, on
    its own thread, for :func:`build_router` to continue on the loop."""
    stage = _routing_stage(plan)
    if isinstance(stage, Sort) and input_schema.has_field(stage.key):
        return KeySample(stage, log_batches)
    return None


class KeySample:
    """The range router's key sample of a log prefix, to be continued over
    the batches appended after it.

    Each batch contributes up to ``ROUTER_SAMPLE_SIZE`` keys — a larger one
    a uniform choice of that many, one draw per batch — and Algorithm R
    thins their concatenation, the pool, back down to that many: one draw
    per pooled key past the first ``ROUTER_SAMPLE_SIZE``.  One generator
    seeded 0 makes every draw, the choices first.  A batch that small
    contributes all of its keys without a draw, so each maximal run of
    such batches is taken as one slice of the log: a daemon's log is
    thousands of small batches.

    A rebuild samples the log it froze on its own thread, and the swap, on
    the event loop, continues the same reservoir and generator over the
    tail (:meth:`boundaries`): the split points are those of sampling the
    whole log at once, and the loop draws only for the tail's keys.  A tail
    batch larger than ``ROUTER_SAMPLE_SIZE`` draws its choice ahead of every
    reservoir draw, so then the loop samples the whole log again.
    """

    def __init__(self, op: Sort, log_batches: Sequence[np.ndarray]) -> None:
        self.op = op
        records, ends = _contiguous(log_batches)
        #: how many records and batches of the log the sample covers
        self.records, self.batches = len(records), len(ends)
        rng = np.random.default_rng(0)
        pool = self._pool(records, ends, rng)
        #: how many pooled keys the reservoir has seen
        self.pooled = 0 if pool is None else len(pool)
        #: the reservoir: every pooled key up to ``ROUTER_SAMPLE_SIZE``, then
        #: the keys Algorithm R kept (None before the first key)
        self.reservoir = None if pool is None else _continue_reservoir(None, 0, pool, rng)
        self._state = rng.bit_generator.state

    def _pool(
        self, records: np.ndarray, ends: np.ndarray, rng: np.random.Generator
    ) -> Optional[np.ndarray]:
        """The sort keys ``records`` contribute, batch by batch (None without a key)."""
        op = self.op
        if not len(records) or op.key not in (records.dtype.names or ()):
            return None
        keys = records[op.key]
        pieces = []
        starts = np.concatenate(([0], ends[:-1]))
        run_start = 0
        for i in np.flatnonzero(ends - starts > ROUTER_SAMPLE_SIZE).tolist():
            start, end = int(starts[i]), int(ends[i])
            pieces.append(sort_key_array(keys[run_start:start], op.ascending))
            pieces.append(sample_array(
                sort_key_array(keys[start:end], op.ascending), ROUTER_SAMPLE_SIZE, rng
            ))
            run_start = end
        pieces.append(sort_key_array(keys[run_start:], op.ascending))
        return np.concatenate(pieces)

    def boundaries(
        self, log_batches: Sequence[np.ndarray], num_partitions: int
    ) -> Optional[list[Any]]:
        """Quantile split points of the sort key over ``log_batches`` — the
        sampled prefix and the batches after it — or None when it is empty."""
        if num_partitions == 1:
            return []
        records, ends = _contiguous(log_batches)
        if not len(records) or self.op.key not in (records.dtype.names or ()):
            return None
        tail_ends = ends[self.batches :] - self.records
        if np.any(np.diff(tail_ends, prepend=0) > ROUTER_SAMPLE_SIZE):
            sample = KeySample(self.op, log_batches).reservoir
        else:
            rng = np.random.default_rng(0)
            rng.bit_generator.state = self._state
            tail = records[self.records :][self.op.key]
            sample = _continue_reservoir(
                self.reservoir, self.pooled, sort_key_array(tail, self.op.ascending), rng
            )
        return quantile_boundaries(sample, num_partitions)


def _continue_reservoir(
    reservoir: Optional[np.ndarray], seen: int, keys: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Algorithm R's reservoir once ``keys`` follow the ``seen`` items that
    left ``reservoir``: item ``i >= ROUTER_SAMPLE_SIZE`` replaces slot
    ``j ~ U[0, i]`` when ``j < ROUTER_SAMPLE_SIZE``.

    All draws are made at once (the generator's per-element draws continue
    one another across calls), and a fancy assignment with repeated slots
    leaves the last replacement behind, as the element-by-element loop does.
    """
    size = ROUTER_SAMPLE_SIZE
    head, rest = keys[: max(0, size - seen)], keys[max(0, size - seen) :]
    sample = head.copy() if reservoir is None else np.concatenate((reservoir, head))
    if len(rest):
        first = seen + len(head)
        draws = rng.integers(0, np.arange(first, first + len(rest)) + 1)
        hits = np.flatnonzero(draws < size)
        sample[draws[hits]] = rest[hits]
    return sample


def _sampled_boundaries(
    op: Sort, log_batches: Sequence[np.ndarray], num_partitions: int
) -> Optional[list[Any]]:
    """Quantile split points of the sort key over the log, or None when empty
    (:class:`KeySample` of the whole log, here)."""
    return KeySample(op, ()).boundaries(log_batches, num_partitions)


def _contiguous(log_batches: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The log as one record array and its batch end offsets.

    A :class:`~repro.serve.state.BatchLog` already is; a list of batches is
    concatenated (batches without a record are left out, so an empty
    batch of another dtype cannot refuse the rest).
    """
    if isinstance(log_batches, BatchLog):
        return log_batches.records, np.asarray(log_batches.ends, dtype=np.int64)
    batches = [b for b in log_batches if len(b)]
    if not batches:
        return np.empty(0), np.zeros(0, dtype=np.int64)
    records = batches[0] if len(batches) == 1 else np.concatenate(batches)
    return records, np.cumsum([len(b) for b in batches])


__all__ = [
    "IncrementalRouter",
    "KeySample",
    "KeyedRouter",
    "PositionalRouter",
    "ROUTER_SAMPLE_SIZE",
    "build_router",
    "sample_log",
]

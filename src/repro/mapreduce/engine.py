"""The MR-MPI-style engine: map, collate (shuffle+group), reduce.

One :class:`MRMPIEngine` wraps one rank's :class:`~repro.mpi.Communicator`.
All ranks call the same methods collectively, exactly like MR-MPI's
``map() -> collate() -> reduce()`` sequence.  Intermediate data stays
in memory (MR-MPI's in-core mode), matching the paper's evaluation where
execution time excludes I/O.

Every phase accepts either the generic currency — Python ``(key, value)``
tuples, processed through per-pair loops — or a columnar
:class:`~repro.mapreduce.columnar.KVBatch`, which takes the vectorized fast
path (argsort bucketization, searchsorted/hash array partitioning,
``reduceat`` combiners).  Both paths produce identical outputs and charge
identical virtual-time costs; only wall-clock speed differs.

Virtual-time accounting: local phases charge the attached cluster cost model
(hashing for collate, comparison sort for sorted reduces, a linear pass for
map), and the shuffle charges network time through the MPI layer itself.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional, Sequence, Union

import numpy as np

from repro.errors import MapReduceError
from repro.mapreduce.columnar import (
    GroupedKVBatch,
    KVBatch,
    PerfCounters,
    bucketize,
    concat_batches,
)
from repro.mapreduce.columnar import group as columnar_group
from repro.mapreduce.partitioner import HashPartitioner, Partitioner
from repro.mpi.comm import Communicator
from repro.order import stable_order

#: ``map_fn(item, emit)`` — calls ``emit(key, value)`` zero or more times.
MapFn = Callable[[Any, Callable[[Any, Any], None]], None]
#: ``reduce_fn(key, values, emit)`` — calls ``emit(key, value)``.
ReduceFn = Callable[[Any, list[Any], Callable[[Any, Any], None]], None]

KV = tuple[Any, Any]
#: what the shuffle-side phases accept: pairs, or a columnar batch
KVInput = Union[Sequence[KV], KVBatch]


class MRMPIEngine:
    """MapReduce primitives for one rank of an SPMD run."""

    def __init__(
        self,
        comm: Communicator,
        perf: Optional[PerfCounters] = None,
        recorder: Optional[Any] = None,
    ) -> None:
        self.comm = comm
        #: optional perf-counter sink (records / bytes moved by shuffles)
        self.perf = perf
        #: optional observability recorder (spans around each shuffle)
        self.recorder = recorder
        #: jobs this engine has started (fault-injection job boundary index)
        self.jobs_run = 0

    def _shuffle_span(self, records: int, nbytes: int):
        return self.recorder.span(
            "shuffle", category="shuffle",
            rank=self.comm.rank, clock=self.comm.clock,
            attrs={"records": records, "nbytes": nbytes},
        )

    # -- cost charging -------------------------------------------------------

    def _charge(self, single_core_cost: float) -> None:
        cluster = self.comm.cluster
        if cluster is not None:
            self.comm.charge_compute(cluster.compute(single_core_cost))

    def charge_job_overhead(self) -> None:
        """Fixed per-job scheduling cost (mapper/reducer launch)."""
        cluster = self.comm.cluster
        if cluster is not None:
            self.comm.charge_compute(cluster.cost.job_overhead)

    # -- phases ----------------------------------------------------------------

    def map(self, local_items: Union[Iterable[Any], KVBatch], map_fn: Optional[MapFn]) -> KVInput:
        """Apply ``map_fn`` to this rank's local items; collect emitted pairs.

        A :class:`KVBatch` input stays columnar: ``map_fn=None`` (or
        :func:`identity_map`) passes the batch through unchanged, a map
        function exposing ``apply_batch(batch) -> KVBatch`` runs vectorized,
        and any other map function de-vectorizes to the per-pair loop.
        """
        cost = self.comm.cluster.cost if self.comm.cluster else None
        if isinstance(local_items, KVBatch):
            if cost is not None:
                self._charge(cost.stream(len(local_items)))
            if map_fn is None or map_fn is identity_map:
                return local_items
            apply_batch = getattr(map_fn, "apply_batch", None)
            if apply_batch is not None:
                return apply_batch(local_items)
            local_items = local_items.pairs()
            cost = None  # already charged for the pass
        if map_fn is None:
            map_fn = identity_map
        out: list[KV] = []
        emit = lambda k, v: out.append((k, v))  # noqa: E731 - tight inner loop
        count = 0
        for item in local_items:
            map_fn(item, emit)
            count += 1
        if cost is not None:
            self._charge(cost.stream(count))
        return out

    def combine(self, kv: KVInput, combine_fn: ReduceFn) -> KVInput:
        """Map-side combiner: pre-reduce local pairs before the shuffle.

        The classic MapReduce optimization — grouping and reducing each
        mapper's output locally shrinks the shuffle volume for aggregating
        reducers (word-count-style jobs).  ``combine_fn`` must be the same
        shape as the reduce function and associative.  A
        :class:`~repro.mapreduce.columnar.VectorCombiner` over a
        :class:`KVBatch` aggregates every group with one ``reduceat``.
        """
        cost = self.comm.cluster.cost if self.comm.cluster else None
        if cost is not None:
            self._charge(cost.hash_group(len(kv)))
        if isinstance(kv, KVBatch):
            apply_grouped = getattr(combine_fn, "apply_grouped", None)
            if apply_grouped is not None:
                return apply_grouped(columnar_group(kv, order="first-seen"))
            kv = kv.pairs()
        grouped: dict[Any, list[Any]] = {}
        for k, v in kv:
            grouped.setdefault(k, []).append(v)
        out: list[KV] = []
        emit = lambda k, v: out.append((k, v))  # noqa: E731
        for k, values in grouped.items():
            combine_fn(k, values, emit)
        return out

    def shuffle(self, kv: KVInput, partitioner: Partitioner) -> KVInput:
        """Exchange pairs so each lands on the rank chosen by ``partitioner``.

        The reducer space is ``partitioner.num_reducers``; reducers are mapped
        round-robin onto ranks (``reducer % comm.size``), so more reducers
        than ranks is fine (the Figure 8 workflow uses ``num_reducers=3``
        regardless of communicator size).

        A :class:`KVBatch` shuffles columnar: one vectorized
        ``partition_array`` call, one argsort bucketization, and numpy-array
        payloads through ``alltoall`` instead of tuple lists.
        """
        size = self.comm.size
        cost = self.comm.cluster.cost if self.comm.cluster else None
        if cost is not None:
            self._charge(cost.hash_group(len(kv)))
        if isinstance(kv, KVBatch):
            owners = partitioner.partition_array(kv.keys) % size
            outboxes_b = [kv.take(idx) for idx in bucketize(owners, size)]
            if self.perf is not None:
                self.perf.count_move(len(kv), kv.nbytes)
            if self.recorder is not None:
                with self._shuffle_span(len(kv), kv.nbytes):
                    inboxes_b = self.comm.alltoall(outboxes_b)
            else:
                inboxes_b = self.comm.alltoall(outboxes_b)
            return concat_batches(inboxes_b)
        outboxes: list[list[KV]] = [[] for _ in range(size)]
        for k, v in kv:
            outboxes[partitioner(k) % size].append((k, v))
        if self.perf is not None:
            self.perf.count_move(len(kv), 0)
        if self.recorder is not None:
            with self._shuffle_span(len(kv), 0):
                inboxes = self.comm.alltoall(outboxes)
        else:
            inboxes = self.comm.alltoall(outboxes)
        return [pair for box in inboxes for pair in box]

    def group(self, kv: KVInput) -> Union[list[tuple[Any, list[Any]]], GroupedKVBatch]:
        """Group local pairs by key, preserving first-seen key order."""
        cost = self.comm.cluster.cost if self.comm.cluster else None
        if cost is not None:
            self._charge(cost.hash_group(len(kv)))
        if isinstance(kv, KVBatch):
            return columnar_group(kv, order="first-seen")
        groups: dict[Any, list[Any]] = {}
        for k, v in kv:
            groups.setdefault(k, []).append(v)
        return list(groups.items())

    def collate(
        self,
        kv: KVInput,
        partitioner: Optional[Partitioner] = None,
        num_reducers: Optional[int] = None,
    ) -> Union[list[tuple[Any, list[Any]]], GroupedKVBatch]:
        """MR-MPI ``collate``: shuffle by key, then group locally."""
        if partitioner is None:
            partitioner = HashPartitioner(num_reducers or self.comm.size)
        return self.group(self.shuffle(kv, partitioner))

    def reduce(
        self,
        grouped: Union[Sequence[tuple[Any, list[Any]]], GroupedKVBatch],
        reduce_fn: ReduceFn,
    ) -> KVInput:
        """Apply ``reduce_fn`` to each local key group.

        Columnar groupings stay columnar for :func:`identity_reduce`
        (an index-free re-emit) and for vectorized combiners
        (``apply_grouped``); any other reduce function receives per-group
        numpy value slices through the generic loop.
        """
        cost = self.comm.cluster.cost if self.comm.cluster else None
        if isinstance(grouped, GroupedKVBatch):
            if cost is not None:
                self._charge(cost.stream(grouped.num_records))
            if reduce_fn is identity_reduce:
                return KVBatch(
                    keys=np.repeat(grouped.keys, grouped.counts), values=grouped.values
                )
            apply_grouped = getattr(reduce_fn, "apply_grouped", None)
            if apply_grouped is not None:
                return apply_grouped(grouped)
            grouped = grouped.items()
            cost = None  # already charged
        out: list[KV] = []
        emit = lambda k, v: out.append((k, v))  # noqa: E731
        total = 0
        for k, values in grouped:
            reduce_fn(k, values, emit)
            total += len(values)
        if cost is not None:
            self._charge(cost.stream(total))
        return out

    def sort_local(self, kv: KVInput, *, descending: bool = False) -> KVInput:
        """Stable sort of local pairs by key (the reducer-side sort of Fig. 9)."""
        cost = self.comm.cluster.cost if self.comm.cluster else None
        if cost is not None:
            self._charge(cost.sort(len(kv)))
        if isinstance(kv, KVBatch):
            keys = kv.keys
            if descending:
                if keys.dtype.kind not in "iuf":
                    raise MapReduceError(
                        f"descending columnar sort needs a numeric key dtype, got {keys.dtype}"
                    )
                keys = -keys.astype(np.int64) if keys.dtype.kind in "iu" else -keys
            return kv.take(stable_order(keys))
        return sorted(kv, key=lambda pair: pair[0], reverse=descending)

    # -- convenience -------------------------------------------------------------

    def run_job(
        self,
        local_items: Union[Iterable[Any], KVBatch],
        map_fn: Optional[MapFn],
        reduce_fn: ReduceFn,
        partitioner: Optional[Partitioner] = None,
        num_reducers: Optional[int] = None,
        sort_keys: bool = False,
        descending: bool = False,
        combiner: Optional[ReduceFn] = None,
    ) -> KVInput:
        """One full map -> (combine) -> collate -> (sort) -> reduce job.

        Each job is a fault-injection boundary: a scheduled rank crash for
        this engine's job index fires before the map phase or after the
        reduce phase (see :meth:`repro.mpi.comm.Communicator.check_fault`).
        """
        job_index = self.jobs_run
        self.jobs_run += 1
        self.comm.check_fault(job_index, "before")
        self.charge_job_overhead()
        kv = self.map(local_items, map_fn)
        if combiner is not None:
            kv = self.combine(kv, combiner)
        if partitioner is None:
            partitioner = HashPartitioner(num_reducers or self.comm.size)
        shuffled = self.shuffle(kv, partitioner)
        if sort_keys:
            shuffled = self.sort_local(shuffled, descending=descending)
        grouped = self.group(shuffled)
        out = self.reduce(grouped, reduce_fn)
        self.comm.check_fault(job_index, "after")
        return out

    def gather_output(self, local_output: Union[Sequence[Any], KVBatch]) -> Optional[list[Any]]:
        """Collect per-rank outputs at rank 0, concatenated in rank order."""
        if isinstance(local_output, KVBatch):
            local_output = local_output.pairs()
        chunks = self.comm.gather(list(local_output), root=0)
        if chunks is None:
            return None
        return [item for chunk in chunks for item in chunk]


def identity_map(item: Any, emit: Callable[[Any, Any], None]) -> None:
    """Map function for pre-keyed items: expects ``item == (key, value)``."""
    try:
        k, v = item
    except (TypeError, ValueError) as exc:
        raise MapReduceError(f"identity_map expects (key, value) pairs, got {item!r}") from exc
    emit(k, v)


def identity_reduce(key: Any, values: list[Any], emit: Callable[[Any, Any], None]) -> None:
    """Reduce function that re-emits every value under its key."""
    for v in values:
        emit(key, v)

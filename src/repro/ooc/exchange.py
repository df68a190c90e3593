"""The run-file halves of the distributed operator exchanges.

The SPMD plan executor (:class:`~repro.core.runtime.MPIRuntime`) makes one
decision per exchange: :func:`uniform_spill_decision`, an
``allreduce(MAX)`` over per-rank working-set sizes, decides *collectively*
whether to spill, so every rank takes the same path and the collective
sequences stay aligned (a rank-local decision would deadlock the simulated
fabric).  Below the budget the executor moves ``Dataset`` chunks through
``alltoall`` itself; above it, it calls into this module, where sources are
consumed chunk at a time, each chunk's buckets drain into per-destination
run files, the ``alltoall`` ships only manifests, and receivers stream
frames back in source-rank order.  Either way the executor runs the same
local kernel and the same partition assembly on what arrived, and either
way the routing rule is the same object: the range cut is a
:class:`~repro.mapreduce.partitioner.RangePartitioner`, the deal the
policy's :meth:`~repro.policies.distr.DistributionPolicy.pieces` — here
applied chunk by chunk.

Bit-identity with the in-memory path holds by construction: bucketization
is stable within each chunk and chunks preserve input order, so each
sender's run replays its in-memory outbox order; manifests are drained in
source-rank order, matching the in-memory concat; and the external sort
breaks key ties by run ordinal (arrival order).  Range boundaries derived
from a bounded sample may differ from the in-memory run, but boundaries
only steer *placement* — the final partitions depend on global order
alone, which is boundary-invariant (the same invariant that makes results
rank-count-independent).
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Any

import numpy as np

from repro.core.dataset import Dataset
from repro.mapreduce.columnar import PerfCounters, bucketize
from repro.mapreduce.partitioner import RangePartitioner
from repro.mpi import MAX
from repro.mpi.comm import Communicator
from repro.ooc.chunked import ChunkedDataset, iter_dataset_chunks
from repro.ooc.extsort import external_sort_records
from repro.ooc.spill import (
    OOCContext,
    SpillableShuffle,
    concat_manifest_values,
    drain_frames,
)
from repro.ops.sort import Sort, sort_key_array


def uniform_spill_decision(comm: Communicator, ctx: OOCContext, nbytes: int) -> bool:
    """Collectively true when any rank's working set exceeds the budget."""
    return bool(comm.allreduce(int(nbytes), MAX) > ctx.budget.limit)


def _spill_span(comm: Communicator, name: str, records: int, nbytes: int):
    if comm.recorder is None:
        return nullcontext()
    return comm.recorder.span(
        name, category="spill", rank=comm.rank, clock=comm.clock,
        attrs={"records": records, "nbytes": nbytes},
    )


def _bounded_key_sample(source: Any, key: str, sample_size: int) -> np.ndarray:
    """A strided key sample of bounded size (never the full key column).

    In-memory sources just expose their column (already resident); chunked
    sources stream and keep every ``stride``-th key, bounding the sample to
    ~4x the reservoir size the boundary derivation draws from anyway.
    """
    if not isinstance(source, ChunkedDataset):
        return np.asarray(source.column(key))
    n = len(source)
    stride = max(1, n // max(1, 4 * sample_size))
    parts: list[np.ndarray] = []
    pos = 0
    for chunk in source.chunks():
        col = chunk.records[key]
        first = (-pos) % stride
        parts.append(col[first::stride])
        pos += len(col)
    if not parts:
        return np.empty(0, dtype=source.schema.dtype[key])
    return np.concatenate(parts)


def spilled_range_exchange(
    comm: Communicator,
    source: Any,
    key: str,
    ascending: bool,
    reducers: int,
    ctx: OOCContext,
    perf: PerfCounters,
    sample_size: int,
) -> list:
    """Range-shuffle a (possibly chunked) source through spill files.

    Returns the received manifests in source-rank order.  Serves the sort
    and the group job alike: group is simply the ``ascending`` case with
    raw keys.
    """
    schema = source.schema
    sample = sort_key_array(_bounded_key_sample(source, key, sample_size), ascending)
    partitioner = RangePartitioner.sampled(comm, sample, reducers, sample_size)
    shuffle = SpillableShuffle(ctx, comm.size, schema.dtype, kind="range")
    with _spill_span(comm, "spill-shuffle", len(source), source.nbytes):
        for chunk in iter_dataset_chunks(source, ctx.chunk_records(schema.itemsize)):
            sort_keys = sort_key_array(chunk.records[key], ascending)
            owners = (partitioner.partition_array(sort_keys) * comm.size) // reducers
            for dest, idx in enumerate(bucketize(owners, comm.size)):
                if len(idx):
                    shuffle.append(dest, chunk.records[idx])
            perf.count_move(len(chunk.records), chunk.records.nbytes)
        return comm.alltoall(shuffle.finish())


def reduce_received(op: Any, inbox: list, schema: Any, ctx: OOCContext) -> Dataset:
    """The operator's local kernel over a spilled exchange's received runs.

    A plain sort whose received side exceeds the budget too runs as an
    external merge sort — one frame per merged run plus one output block
    resident — filling the one array the next job's exchange reads (the
    SPMD receive side materializes; only the serial runtime streams a
    sorted-runs view onward).  Everything else materializes the frames in
    source-rank order first: a sort with an add-on packs its output, and a
    group's pack is pointer-rich, not fixed-width — there the budget bounds
    the *shuffle*, which dominates.
    """
    received_nbytes = sum(m.nbytes for m in inbox if m is not None)
    if isinstance(op, Sort) and op.addon is None and ctx.should_spill(received_nbytes):
        return external_sort_records(
            (frame.values for frame in drain_frames(inbox)),
            op.key, op.ascending, ctx, schema,
        ).materialize()
    received = Dataset(
        schema=schema, records=concat_manifest_values(inbox, schema.dtype)
    )
    return op.apply_local(received)


def spilled_distribute_stream(
    comm: Communicator,
    op: Any,
    stream: Any,
    offset: int,
    total: int,
    ctx: OOCContext,
    perf: PerfCounters,
) -> list[tuple[int, int, Dataset]]:
    """One Distribute stream through run files.

    ``offset`` is this rank's first global entry index in the stream and
    ``total`` the stream's global entry count.  Each chunk is one more
    window of positions for the policy's ``pieces`` — the rule the
    in-memory deal applies to the rank's whole share — and each piece one
    keyless frame tagged ``first global index * P + partition``, so what
    comes back is the ``(partition, first global index, entries)`` chunks
    the in-memory exchange delivers; the caller assembles partitions from
    either the same way.
    """
    schema = stream.schema
    num_p = op.num_partitions
    shuffle = SpillableShuffle(ctx, comm.size, schema.dtype, kind="dist")
    with _spill_span(comm, "spill-distribute", len(stream), stream.nbytes):
        pos = offset
        for chunk in iter_dataset_chunks(stream, ctx.chunk_records(schema.itemsize)):
            records = chunk.records
            m = len(records)
            for p, _slot, where in op.policy.pieces(total, num_p, pos, m):
                first = pos + where.indices(m)[0]
                shuffle.append(p % comm.size, records[where], tag=first * num_p + p)
            perf.count_move(m, records.nbytes)
            pos += m
        inbox = comm.alltoall(shuffle.finish())
    return [
        (frame.tag % num_p, frame.tag // num_p, Dataset(schema=schema, records=frame.values))
        for frame in drain_frames(inbox)
    ]

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
in one vectorized pass, and the server deals the owners into the hot
partitions with :meth:`repro.serve.state.PartitionGeneration.deal`.

A range router compares keys in the *sort order*: both the sampled
boundaries and every routed key go through
:func:`repro.ops.sort.sort_key_array`, so a descending sort spreads over
all partitions (largest keys first) exactly as the cold run lays them out.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from repro.core.planner import WorkflowPlan
from repro.formats.records import RecordSchema
from repro.mapreduce.partitioner import HashPartitioner, Partitioner, RangePartitioner
from repro.mapreduce.sampling import (
    quantile_boundaries,
    reservoir_indices,
    sample_array,
)
from repro.ops.distribute import Distribute
from repro.ops.group import Group
from repro.ops.sort import Sort, sort_key_array
from repro.serve.state import ServeError

#: how many log keys the range router samples for its quantile boundaries
ROUTER_SAMPLE_SIZE = 4096


class IncrementalRouter:
    """Maps an appended record batch to per-record partition owners."""

    #: routing strategy label (``hash`` / ``range`` / ``positional``)
    kind: str = "base"

    def __init__(self, num_partitions: int, key_field: Optional[str] = None) -> None:
        self.num_partitions = num_partitions
        self.key_field = key_field

    def route(self, records: np.ndarray) -> np.ndarray:
        """Partition owner per record (vectorized; one int64 per record)."""
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

    def route(self, records: np.ndarray) -> np.ndarray:
        """Vectorized owners from the key column (one partitioner pass)."""
        if self.key_field not in (records.dtype.names or ()):
            raise ServeError(
                f"appended batch lacks routing key field {self.key_field!r}"
            )
        keys = sort_key_array(records[self.key_field], self.ascending)
        return np.asarray(self.partitioner.partition_array(keys), dtype=np.int64)

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
        owners = np.empty(n, dtype=np.int64)
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


def _routing_stage(plan: WorkflowPlan) -> Optional[Any]:
    """The last key-bearing (sort/group) operator feeding the final distribute."""
    stage = None
    for job in plan.jobs:
        if isinstance(job.operator, (Sort, Group)):
            stage = job.operator
    return stage


def build_router(
    plan: WorkflowPlan,
    input_schema: RecordSchema,
    log_batches: list[np.ndarray],
    total_records: int,
) -> IncrementalRouter:
    """Choose and build the router for ``plan`` from the accumulated log.

    ``log_batches`` feeds the range router's boundary sample;
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
        boundaries = _sampled_boundaries(
            stage, log_batches, final.num_partitions
        )
        if boundaries is not None:
            return KeyedRouter(
                RangePartitioner(boundaries, final.num_partitions),
                stage.key,
                kind="range",
                ascending=stage.ascending,
            )
    return PositionalRouter(final, start_index=total_records)


def _sampled_boundaries(
    op: Sort, log_batches: list[np.ndarray], num_partitions: int
) -> Optional[list[Any]]:
    """Quantile split points of the sort key over the log, or None when empty.

    Each batch contributes up to ``ROUTER_SAMPLE_SIZE`` keys and Algorithm R
    thins their concatenation back down to that many — all as arrays: the
    log of a long-lived daemon is thousands of small batches, and this runs
    on the event loop at every rebalance.
    """
    if num_partitions == 1:
        return []
    rng = np.random.default_rng(0)
    samples = [
        sample_array(
            sort_key_array(batch[op.key], op.ascending),
            ROUTER_SAMPLE_SIZE,
            rng,
        )
        for batch in log_batches
        if len(batch) and op.key in (batch.dtype.names or ())
    ]
    if not samples:
        return None
    pooled = np.concatenate(samples)
    if len(pooled) > ROUTER_SAMPLE_SIZE:
        pooled = pooled[reservoir_indices(len(pooled), ROUTER_SAMPLE_SIZE, rng)]
    return quantile_boundaries(pooled, num_partitions)


__all__ = [
    "IncrementalRouter",
    "KeyedRouter",
    "PositionalRouter",
    "ROUTER_SAMPLE_SIZE",
    "build_router",
]

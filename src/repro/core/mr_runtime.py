"""The MapReduce backend: the SPMD plan executor under the MR-MPI mapping.

The paper maps one formalization onto MPI and onto MR-MPI (Figures 9 and
11).  Both mappings move the same entries through the same exchanges —
sort and group as a sampled range shuffle, distribute with the partition id
as the temporary reduce-key — so ``backend="mapreduce"`` runs the rank
program of :class:`~repro.core.runtime.MPIRuntime` and overrides only what
genuinely differs between the two:

* the **backend label** on the plan span;
* the **reducer count** of a range exchange: a workflow may pin it
  (Figure 8: ``num_reducers=3``); reducers map onto ranks contiguously, so
  the output is the same for any count while the shuffle traffic is not;
* the **cost model**: an MR-MPI job is priced with the fixed per-job
  scheduling overhead, its transfers and its packing only — no sort /
  hash / stream kernel.

This is the repo's only MR-MPI mapping: a job's shuffle is the executor's
exchange (``bucketize`` + ``alltoall`` for a range shuffle, the positional
deal for distribute) and its reduce the operator's local kernel.

Partitions are bit-identical to the other backends (tested).  This module
is imported only when ``backend="mapreduce"`` is selected or
``repro.core.MapReduceRuntime`` is asked for (pinned by a fresh-interpreter
test).
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.planner import PlannedJob
from repro.core.runtime import MPIRuntime
from repro.mpi.comm import Communicator


class MapReduceRuntime(MPIRuntime):
    """Executes a workflow plan as a sequence of MR-MPI jobs."""

    backend_name = "mapreduce"

    def _cost_model(self):
        """The run's cluster model with every kernel constant at zero."""
        cost = replace(self.cluster.cost, sort_per_cmp=0.0, stream_per_rec=0.0, hash_per_rec=0.0)
        return replace(self.cluster, cost=cost)

    def _reducers(self, job: PlannedJob, comm: Communicator) -> int:
        """The workflow's pinned reducer count, else one reducer per rank."""
        return job.num_reducers or comm.size

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
* the **cost profile**: an MR-MPI job pays the fixed per-job scheduling
  overhead only — no separate sort / hash / stream kernel charges.

The literal MR-MPI primitives (``map`` → ``collate`` → ``reduce`` over
key-value pairs, with combiners and custom partitioners) live in
:class:`repro.mapreduce.MRMPIEngine`; that engine runs the
:mod:`repro.mapreduce` jobs, not workflow plans.

Partitions are bit-identical to the other backends (tested).  This module
is imported only when ``backend="mapreduce"`` is selected or
``repro.core.MapReduceRuntime`` is asked for (pinned by a fresh-interpreter
test).
"""

from __future__ import annotations

from repro.core.planner import PlannedJob
from repro.core.runtime import MPIRuntime
from repro.mpi.comm import Communicator


class MapReduceRuntime(MPIRuntime):
    """Executes a workflow plan as a sequence of MR-MPI jobs."""

    backend_name = "mapreduce"
    charges_kernels = False

    def _reducers(self, job: PlannedJob, comm: Communicator) -> int:
        """The workflow's pinned reducer count, else one reducer per rank."""
        return job.num_reducers or comm.size

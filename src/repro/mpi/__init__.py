"""A pure-Python, thread-based SPMD MPI runtime.

The paper maps PaPar workflows onto MPI (MVAPICH2) and MR-MPI.  Neither is
installable here, so this package provides the mpi4py-shaped subset the
SPMD executors program against: the collectives ``alltoall``,
``allgather``, ``allreduce`` and ``exscan`` for generic Python objects,
plus the point-to-point and rank-0-rooted collectives they are built from.
The buffer-based ``Allreduce``/``Alltoallv`` for numpy arrays — the "fast
path" mirroring the mpi4py tutorial idiom — serve the collective
benchmarks.

Each rank runs as one OS thread; messages move through an in-process
:class:`~repro.mpi.fabric.Fabric`.  Every rank tallies the bytes and
messages it sends to each destination; with a
:class:`~repro.cluster.ClusterModel` those tallies are priced
(:func:`repro.cluster.model.price`), which is how the evaluation figures
obtain cluster-scale timings (DESIGN.md §6).

Collectives are implemented with real distributed algorithms (binomial-tree
broadcast/reduce, pairwise all-to-all) so that the priced traffic
reflects log-p / p-1 step structure, not a magic zero-cost shortcut.
"""

from repro.mpi.comm import Communicator
from repro.mpi.launcher import run_mpi
from repro.mpi.reduce_ops import MAX, SUM, ReduceOp

__all__ = [
    "Communicator",
    "run_mpi",
    "ReduceOp",
    "SUM",
    "MAX",
]

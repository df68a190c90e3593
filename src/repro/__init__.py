"""PaPar — a parallel data partitioning framework for big data applications.

This package reproduces the system described in

    Wang, Zhang, Zhang, Pumma, Feng.
    "PaPar: A Parallel Data Partitioning Framework for Big Data Applications."
    IPDPS 2017.

Layout
------
``repro.mpi``
    A pure-Python, thread-based SPMD MPI runtime (the paper ran on MVAPICH2;
    see DESIGN.md for the substitution argument).
``repro.cluster``
    Cluster cost model pricing a run's counts (nodes, Ethernet vs InfiniBand networks).
``repro.mapreduce``
    Columnar shuffle kernels, reducer partitioners and key sampling shared
    by the SPMD runtimes.
``repro.config`` / ``repro.formats``
    The two user-facing configuration files (input-data format and workflow)
    and the record formats they describe, read through one row-range view
    of the input file (the programming-free alternative to Hadoop's
    ``InputFormat``).
``repro.ops`` / ``repro.policies``
    The operator building blocks (Table I of the paper) and distribution
    policies formalized as stride-permutation matrices.
``repro.core``
    The PaPar framework facade: parse configs, plan jobs, generate code,
    and execute partitioning workflows.
The two driving applications (muBLASTP database partitioning and
PowerLyra-style graph partitioning, ``benchmarks/apps/``), the experiment
harness, the Hadoop job runner and its ``InputFormat`` interface, the
speculative scheduler and the reducer rebalancer are the benchmarks' own
(``benchmarks/``).
"""

from repro._lazy import lazy_exports
from repro._version import __version__

# ``PaPar`` loads on first use, so ``python -m repro --help`` imports no numpy
__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "repro.core.framework": ("PaPar",),
})
__all__ += ["__version__"]

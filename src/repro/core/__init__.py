"""PaPar core: dataset, planner, code generator, runtimes, facade.

The paper's primary contribution lives here: parse the two configuration
files, formalize the workflow as key-value jobs plus permutation-matrix
distributions, generate the parallel partitioner, and execute it on the
MPI/MapReduce backends.
"""

from repro.core.codegen import (
    compile_partitioner,
    generate_partitioner_source,
    write_partitioner,
)
from repro.core.dataset import Dataset, concat
from repro.core.framework import PaPar
from repro.core.planner import PlannedJob, Planner, WorkflowPlan
from repro.core.runtime import MPIRuntime, PartitionResult, SerialRuntime



def __getattr__(name: str):
    # MapReduceRuntime keeps its import path but loads on first use, so a
    # serial / mpi run never imports the module (pinned by a test)
    if name == "MapReduceRuntime":
        from repro.core.mr_runtime import MapReduceRuntime

        return MapReduceRuntime
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "PaPar",
    "Dataset",
    "concat",
    "Planner",
    "WorkflowPlan",
    "PlannedJob",
    "SerialRuntime",
    "MPIRuntime",
    "MapReduceRuntime",
    "PartitionResult",
    "generate_partitioner_source",
    "compile_partitioner",
    "write_partitioner",
]

"""PaPar core: dataset, planner, code generator, runtimes, facade.

The paper's primary contribution lives here: parse the two configuration
files, formalize the workflow as key-value jobs plus permutation-matrix
distributions, generate the parallel partitioner, and execute it on the
MPI/MapReduce backends.
"""

from repro._lazy import lazy_exports

# every name loads on first use: a serial run never imports the SPMD
# runtimes or the code generator (pinned by fresh-interpreter tests)
__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "repro.core.framework": ("PaPar",),
    "repro.core.dataset": ("Dataset", "concat"),
    "repro.core.planner": ("Planner", "WorkflowPlan", "PlannedJob"),
    "repro.core.runtime": ("SerialRuntime", "MPIRuntime", "PartitionResult"),
    "repro.core.mr_runtime": ("MapReduceRuntime",),
    "repro.core.codegen": (
        "generate_partitioner_source", "compile_partitioner", "write_partitioner",
    ),
})

"""An MR-MPI-style MapReduce engine on the simulated MPI runtime.

The paper maps PaPar onto three backends: Hadoop, MR-MPI (Plimpton & Devine's
C++ MapReduce-on-MPI library) and raw MPI.  The evaluation uses MR-MPI because
the driving applications are C++.  This package provides the equivalent:

* :class:`~repro.mapreduce.engine.MRMPIEngine` — per-rank map, hash/range/
  explicit shuffle over ``alltoall``, grouped reduce; mirrors the
  ``map -> collate -> reduce`` call sequence of MR-MPI.
* :class:`~repro.mapreduce.local.LocalEngine` — a serial reference
  implementation used to check that distributed runs compute the same result.
* :mod:`~repro.mapreduce.sampling` — the data-sampling machinery from
  Section III-D (per-node samples approximating the global key distribution
  to derive balanced reducer ranges).
* :mod:`~repro.mapreduce.hadoop` — the Hadoop ``InputFormat`` interface shim
  (``get_splits`` / ``get_record_reader``) mentioned in Section III-A.
"""

from repro._lazy import lazy_exports

# names load on first use: the workflow runtimes need the columnar kernels
# and the partitioners, not the engines
__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "repro.mapreduce.columnar": (
        "COMBINERS", "GroupedKVBatch", "KVBatch", "PerfCounters",
        "VectorCombiner", "bucketize", "concat_batches",
    ),
    "repro.mapreduce.engine": ("MRMPIEngine",),
    "repro.mapreduce.job": ("MapReduceJob",),
    "repro.mapreduce.local": ("LocalEngine",),
    "repro.mapreduce.partitioner": (
        "ExplicitPartitioner", "HashPartitioner", "Partitioner",
        "RangePartitioner", "stable_hash", "stable_hash_array",
    ),
    "repro.mapreduce.hadoop_engine": ("HadoopCluster", "HadoopJobResult"),
    "repro.mapreduce.rebalance": ("imbalance", "rebalance"),
    "repro.mapreduce.sampling": ("reservoir_sample", "sample_key_ranges"),
})

"""MapReduce building blocks: columnar shuffle kernels, partitioners, sampling.

The paper maps PaPar onto three backends: Hadoop, MR-MPI (Plimpton &
Devine's C++ MapReduce-on-MPI library) and raw MPI.  The MR-MPI mapping is
``backend="mapreduce"`` (:class:`repro.core.mr_runtime.MapReduceRuntime`):
each operator is one map → shuffle → reduce job over the SPMD executor's
rank program.  This package holds the kernels that program calls:

* :mod:`~repro.mapreduce.columnar` — :class:`KVBatch`, :func:`bucketize`
  and :func:`group`, the local kernels of every exchange (and, re-exported,
  :class:`~repro.core.perf.PerfCounters`, ``run --stats``).
* :mod:`~repro.mapreduce.partitioner` — hash / range / explicit reducer
  choice, scalar and vectorized (``partition_array``).
* :mod:`~repro.mapreduce.sampling` — the data-sampling machinery from
  Section III-D (per-node samples approximating the global key distribution
  to derive balanced reducer ranges).

The Hadoop mapping — its ``InputFormat`` interface (Section III-A), the
single-process job runner — the speculative scheduler and the reducer
rebalancer are benchmark ablations (``benchmarks/_hadoop.py``,
``_speculative.py``, ``_rebalance.py``); a run reads its input through the
configured schema instead (:mod:`repro.formats`).
"""

from repro._lazy import lazy_exports

# names load on first use: a run needs the columnar kernels and the
# partitioners only when it exchanges records
__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "repro.mapreduce.columnar": ("GroupedKVBatch", "KVBatch", "bucketize"),
    "repro.core.perf": ("PerfCounters",),
    "repro.mapreduce.partitioner": (
        "ExplicitPartitioner", "HashPartitioner", "Partitioner",
        "RangePartitioner", "stable_hash", "stable_hash_array",
    ),
    "repro.mapreduce.sampling": ("reservoir_sample",),
})

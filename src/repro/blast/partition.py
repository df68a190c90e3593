"""The muBLASTP partitioning methods (baseline implementations).

Two methods, matching the labels of Section IV-B:

* ``block`` — the default method: contiguous chunks with similar sequence
  counts (no sort);
* ``cyclic`` — the optimized method of [36]: stable-sort the index by the
  encoded sequence length, then deal sequences round-robin, so every
  partition has (1) a similar number of sequences, (2) well-mixed lengths
  and (3) similar encoded data sizes.

These are the *application's own* partitioners, used as the comparison
baseline: the current muBLASTP implementation "only provides a multithreaded
method for the input database [and] can not scale out on 16 nodes", which is
what Figure 13 measures PaPar against.  :func:`baseline_partition_time`
models that single-node multithreaded runtime with the shared cost model.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.model import CostModel
from repro.errors import PaParError
from repro.formats.records import BLAST_INDEX_SCHEMA
from repro.policies.distr import get_policy


def mublastp_partition(
    index: np.ndarray, num_partitions: int, policy: str = "cyclic"
) -> list[np.ndarray]:
    """Partition a four-tuple index exactly like muBLASTP does."""
    if index.dtype != BLAST_INDEX_SCHEMA.dtype:
        raise PaParError("mublastp_partition expects a blast_db index array")
    if num_partitions < 1:
        raise PaParError(f"num_partitions must be >= 1, got {num_partitions!r}")
    if policy == "cyclic":
        order = np.argsort(index["seq_size"], kind="stable")
        work = index[order]
    elif policy == "block":
        work = index
    else:
        raise PaParError(f"unknown muBLASTP policy {policy!r}; use 'cyclic' or 'block'")
    dist = get_policy("cyclic" if policy == "cyclic" else "block")
    perm = dist.permutation(len(work), num_partitions)
    counts = dist.counts(len(work), num_partitions)
    offsets = np.concatenate(([0], np.cumsum(counts)))
    return [
        work[perm[offsets[p] : offsets[p + 1]]].copy() for p in range(num_partitions)
    ]


def baseline_partition_time(
    num_sequences: int,
    threads: int = 16,
    cost: CostModel = CostModel(),
) -> float:
    """Modeled runtime of muBLASTP's multithreaded single-node partitioner.

    One parallel sort of the index plus one streaming pass to deal and
    rewrite the entries.  It uses every core of *one* node (the paper runs it
    with 16 threads) but cannot scale out.
    """
    if num_sequences < 0:
        raise PaParError(f"num_sequences must be >= 0, got {num_sequences!r}")
    sort = cost.parallel(cost.sort(num_sequences), threads)
    deal = cost.parallel(cost.stream(num_sequences) * 2, threads)
    return sort + deal + cost.job_overhead


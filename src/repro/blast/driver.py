"""Distributed muBLASTP search driver on the simulated MPI runtime.

muBLASTP follows MPI + OpenMP: one MPI rank per socket, each rank owning one
database partition and searching the whole query batch against it with its
OpenMP threads.  This driver reproduces that execution: rank ``r`` owns
partition ``r``, builds its k-mer index, searches the broadcast batch, and
the results are reduced to rank 0.  With a cluster model the makespan is
the run's priced traffic plus the slowest partition's search, modelled from
the kernel's deterministic work counters and spread over the rank's
threads (the Figure 12 quantity).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.blast.database import SequenceDatabase
from repro.blast.index import build_index, extract_partition
from repro.blast.partition import mublastp_partition
from repro.blast.search import PartitionIndex, SearchResult
from repro.cluster.model import ClusterModel
from repro.errors import PaParError
from repro.mpi import MAX, SUM, run_mpi
from repro.mpi.comm import Communicator


@dataclass
class DistributedSearchResult:
    """Outcome of one distributed batch search."""

    total: SearchResult
    #: simulated seconds of the slowest rank (the Figure 12 quantity)
    makespan: float
    per_partition_seconds: list[float]


def _search_rank_program(
    comm: Communicator,
    partitions: list[SequenceDatabase],
    queries: list[np.ndarray],
) -> tuple[SearchResult, float]:
    """One rank: index own partition, search the batch, reduce results."""
    my_db = partitions[comm.rank]
    index = PartitionIndex(my_db)
    result = index.search_batch(queries)
    # reduce hit statistics to rank 0 (muBLASTP's result collection)
    total_hits = comm.reduce(result.num_hits, SUM)
    total_cols = comm.reduce(result.extension_columns, SUM)
    best = comm.reduce(result.best_score, MAX)
    combined = (
        SearchResult(num_hits=total_hits, extension_columns=total_cols, best_score=best)
        if comm.rank == 0
        else result
    )
    return combined, result.modeled_seconds


def distributed_search(
    db: SequenceDatabase,
    queries: list[np.ndarray],
    num_partitions: int,
    policy: str = "cyclic",
    cluster: Optional[ClusterModel] = None,
) -> DistributedSearchResult:
    """Partition ``db``, search ``queries`` with one rank per partition."""
    if num_partitions < 1:
        raise PaParError(f"num_partitions must be >= 1, got {num_partitions!r}")
    if not queries:
        raise PaParError("distributed_search needs at least one query")
    index = build_index(db)
    parts_idx = mublastp_partition(index, num_partitions, policy=policy)
    partitions = [extract_partition(db, p) for p in parts_idx]
    run = run_mpi(
        _search_rank_program,
        num_partitions,
        cluster=cluster,
        args=(partitions, queries),
    )
    per_partition = [seconds for _, seconds in run.results]
    total = run.results[0][0]
    # the search cost, spread over the rank's worker threads (muBLASTP's
    # OpenMP level), on top of the priced result collection
    makespan = (run.elapsed + cluster.compute(max(per_partition))
                if cluster is not None else max(per_partition))
    return DistributedSearchResult(
        total=total, makespan=makespan, per_partition_seconds=per_partition
    )

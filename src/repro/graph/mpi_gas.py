"""Distributed GAS execution on the simulated MPI runtime.

Where :class:`~repro.graph.gas.GASEngine` executes the partitions in one
process and *models* the mirror synchronization, this driver runs one rank
per partition and performs the synchronization with real messages: each
superstep every rank computes partial gather accumulators over its local
edges and combines them with a vector ``allreduce``.  The result must equal
the serial engine and the unpartitioned reference (tested), and the actual
bytes moved validate the replication-based communication model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.cluster.model import ClusterModel
from repro.errors import PaParError
from repro.graph.gas import EDGE_COST_S
from repro.graph.partition import PartitionedGraph
from repro.mpi import SUM, run_mpi
from repro.mpi.comm import Communicator


@dataclass
class DistributedPageRankResult:
    ranks: np.ndarray
    iterations: int
    elapsed: float
    bytes_moved: int


def _pagerank_rank_program(
    comm: Communicator,
    src_parts: list[np.ndarray],
    dst_parts: list[np.ndarray],
    num_vertices: int,
    out_deg: np.ndarray,
    iterations: int,
    damping: float,
) -> np.ndarray:
    src = src_parts[comm.rank]
    dst = dst_parts[comm.rank]
    ranks = np.full(num_vertices, 1.0 / num_vertices)
    for _ in range(iterations):
        acc = np.zeros(num_vertices)
        contrib = ranks / out_deg
        np.add.at(acc, dst, contrib[src])
        # mirror -> master synchronization: combine partial accumulators
        # (buffer-path Allreduce: the zero-copy fast path of the runtime)
        acc = comm.Allreduce(acc, SUM)
        ranks = (1.0 - damping) / num_vertices + damping * acc
    return ranks


def distributed_pagerank(
    pg: PartitionedGraph,
    iterations: int = 10,
    damping: float = 0.85,
    cluster: Optional[ClusterModel] = None,
) -> DistributedPageRankResult:
    """PageRank with one MPI rank per partition; real message traffic."""
    if iterations < 1:
        raise PaParError(f"iterations must be >= 1, got {iterations!r}")
    if cluster is not None and cluster.size != pg.num_partitions:
        raise PaParError(
            f"cluster has {cluster.size} ranks but the graph has {pg.num_partitions} partitions"
        )
    g = pg.graph
    src_parts = [g.src[pg.edge_owner == p] for p in range(pg.num_partitions)]
    dst_parts = [g.dst[pg.edge_owner == p] for p in range(pg.num_partitions)]
    out_deg = np.maximum(g.out_degrees(), 1)
    run = run_mpi(
        _pagerank_rank_program,
        pg.num_partitions,
        cluster=cluster,
        args=(src_parts, dst_parts, g.num_vertices, out_deg, iterations, damping),
    )
    elapsed = run.elapsed
    if cluster is not None:
        # the busiest partition's edge work every superstep, as GASEngine models it
        busiest = max(len(src) for src in src_parts)
        elapsed += iterations * cluster.compute(busiest * EDGE_COST_S)
    return DistributedPageRankResult(
        ranks=run.results[0],
        iterations=iterations,
        elapsed=elapsed,
        bytes_moved=run.bytes_moved,
    )

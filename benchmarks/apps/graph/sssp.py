"""Single-source shortest paths on the GAS engine.

A third vertex program for the PowerLyra substrate (the paper cites
"PageRank, Connected Components, etc." as the algorithms the hybrid
partitioning accelerates).  Synchronous Bellman-Ford supersteps over the
partitioned edge sets: each superstep relaxes every partition's local edges
against the current distance vector and combines the per-partition minima
(the same mirror synchronization pattern PageRank uses, so the cut-dependent
cost model carries over unchanged).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import PaParError
from .gas import ExecutionReport
from .partition import PartitionedGraph

INF = np.inf


def sssp(
    pg: PartitionedGraph,
    source: int,
    weights: Optional[np.ndarray] = None,
    max_iterations: int = 10_000,
) -> tuple[np.ndarray, ExecutionReport]:
    """Distances from ``source`` along directed edges (Bellman-Ford).

    ``weights`` defaults to unit edge weights (hop counts); negative weights
    are rejected (the synchronous relaxation assumes non-negative costs).
    """
    g = pg.graph
    if not (0 <= source < g.num_vertices):
        raise PaParError(f"source {source} out of range for {g.num_vertices} vertices")
    if weights is None:
        weights = np.ones(g.num_edges)
    else:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (g.num_edges,):
            raise PaParError("weights must have one entry per edge")
        if len(weights) and weights.min() < 0:
            raise PaParError("negative edge weights are not supported")

    per_part = [
        (g.src[pg.edge_owner == p], g.dst[pg.edge_owner == p], weights[pg.edge_owner == p])
        for p in range(pg.num_partitions)
    ]
    dist = np.full(g.num_vertices, INF)
    dist[source] = 0.0
    report = ExecutionReport()
    comm_per_iter = pg.comm_bytes_per_iteration()
    for _ in range(max_iterations):
        new_dist = dist.copy()
        for src, dst, w in per_part:
            candidate = dist[src] + w
            np.minimum.at(new_dist, dst, candidate)
        report.iterations += 1
        report.comm_bytes += comm_per_iter
        if np.array_equal(
            np.nan_to_num(new_dist, posinf=-1.0), np.nan_to_num(dist, posinf=-1.0)
        ):
            break
        dist = new_dist
    return dist, report

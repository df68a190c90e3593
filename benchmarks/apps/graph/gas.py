"""A GAS (gather-apply-scatter) execution engine over partitioned graphs.

PowerLyra integrates its partitioning with GraphLab's GAS engine; Figure 14
measures PageRank execution time under the three cuts.  This engine executes
vertex programs *correctly* for any edge placement (results are identical
across cuts — only costs differ) and accounts two costs per superstep:

* **compute** — the busiest partition's local edge work (partitions run in
  parallel, one per rank);
* **communication** — mirror/master synchronization volume, which is a
  direct function of the placement's replication factor.

Modelled time comes from the shared :class:`~repro.cluster.ClusterModel`, so
Figure 14's 8-node vs 16-node comparisons use the same machinery as the
partitioning-time figures.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cluster.model import ClusterModel
from repro.errors import PaParError
from .partition import PartitionedGraph

#: modeled per-edge gather/scatter cost on one core, seconds
EDGE_COST_S = 8e-9
#: per-superstep engine overhead (scheduling, barrier), seconds
SUPERSTEP_OVERHEAD_S = 150e-6


@dataclass
class ExecutionReport:
    """Costs of one vertex-program execution."""

    iterations: int = 0
    elapsed: float = 0.0
    comm_bytes: int = 0
    max_partition_edges: int = 0
    extra: dict = field(default_factory=dict)


class GASEngine:
    """Executes vertex programs over one :class:`PartitionedGraph`."""

    def __init__(self, pg: PartitionedGraph, cluster: ClusterModel | None = None):
        self.pg = pg
        self.cluster = cluster
        g = pg.graph
        self._per_part = [
            (g.src[pg.edge_owner == p], g.dst[pg.edge_owner == p])
            for p in range(pg.num_partitions)
        ]
        self._iter_comm_bytes = pg.comm_bytes_per_iteration()
        self._edges_per_part = pg.edges_per_partition()

    # -- cost model -----------------------------------------------------------

    def _iteration_time(self) -> float:
        """Modeled wall time of one superstep on the attached cluster."""
        if self.cluster is None:
            return 0.0
        busiest = int(self._edges_per_part.max()) if len(self._edges_per_part) else 0
        compute = self.cluster.compute(busiest * EDGE_COST_S)
        # mirrors sync over the network; volume spread across nodes
        per_node_bytes = self._iter_comm_bytes / max(self.cluster.num_nodes, 1)
        comm = self.cluster.network.transfer_time(int(per_node_bytes), same_node=False)
        return compute + comm + SUPERSTEP_OVERHEAD_S

    # -- algorithms -------------------------------------------------------------

    def pagerank(
        self, iterations: int = 10, damping: float = 0.85
    ) -> tuple[np.ndarray, ExecutionReport]:
        """PageRank by synchronous GAS supersteps.

        Every partition gathers rank/out-degree contributions along its local
        edges; partial accumulators are combined across partitions (the
        mirror -> master sync the comm model charges for).
        """
        if iterations < 1:
            raise PaParError(f"iterations must be >= 1, got {iterations!r}")
        g = self.pg.graph
        n = g.num_vertices
        if n == 0:
            return np.empty(0), ExecutionReport()
        out_deg = np.maximum(g.out_degrees(), 1)
        ranks = np.full(n, 1.0 / n)
        report = ExecutionReport(max_partition_edges=int(self._edges_per_part.max()))
        for _ in range(iterations):
            acc = np.zeros(n)
            contrib = ranks / out_deg
            for src, dst in self._per_part:
                # gather: each partition accumulates over its local edges
                np.add.at(acc, dst, contrib[src])
            # apply: combine partial accumulators (global sync point)
            ranks = (1.0 - damping) / n + damping * acc
            report.iterations += 1
            report.comm_bytes += self._iter_comm_bytes
            report.elapsed += self._iteration_time()
        return ranks, report

    def connected_components(self, max_iterations: int = 200) -> tuple[np.ndarray, ExecutionReport]:
        """Label propagation over the undirected view, to fixpoint."""
        g = self.pg.graph
        n = g.num_vertices
        labels = np.arange(n, dtype=np.int64)
        report = ExecutionReport(
            max_partition_edges=int(self._edges_per_part.max()) if n else 0
        )
        for _ in range(max_iterations):
            new_labels = labels.copy()
            for src, dst in self._per_part:
                np.minimum.at(new_labels, dst, labels[src])
                np.minimum.at(new_labels, src, labels[dst])
            report.iterations += 1
            report.comm_bytes += self._iter_comm_bytes
            report.elapsed += self._iteration_time()
            if np.array_equal(new_labels, labels):
                break
            labels = new_labels
        return labels, report


def pagerank_reference(graph, iterations: int = 10, damping: float = 0.85) -> np.ndarray:
    """Unpartitioned power-iteration PageRank (correctness oracle)."""
    n = graph.num_vertices
    if n == 0:
        return np.empty(0)
    out_deg = np.maximum(graph.out_degrees(), 1)
    ranks = np.full(n, 1.0 / n)
    for _ in range(iterations):
        acc = np.zeros(n)
        np.add.at(acc, graph.dst, (ranks / out_deg)[graph.src])
        ranks = (1.0 - damping) / n + damping * acc
    return ranks

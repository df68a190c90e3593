"""The native PowerLyra baseline: reference partitioner and timing model.

Two roles (paper Section IV-C, Figure 15):

1. :func:`papar_equivalent_hybrid_cut` — an *independent* straight-line
   reimplementation of the Figure 11 hybrid-cut semantics (group by
   in-vertex, threshold split, per-stream cyclic dealing).  The integration
   suite checks the PaPar-generated partitioner emits exactly these
   partitions — the paper's correctness claim ("PaPar can produce the same
   partitions as the driving applications").

2. :class:`PartitionerTimeModel` — analytic time models of both
   partitioners at full Table II scale.  The model encodes the paper's own
   explanation of Figure 15:

   * PowerLyra's single-node path is faster (NUMA-aware C++,
     ``native_compute_scale``), so it wins on the small/medium graphs;
   * its shuffle runs over kernel sockets on Ethernet while PaPar/MR-MPI
     uses RDMA on InfiniBand, so PaPar wins when communication dominates;
   * PowerLyra's *dynamic* low-degree scoring tables are sized by the
     full vertex set and stop fitting in cache for LiveJournal-scale
     graphs (``llc_bytes``), plus the per-vertex scoring overhead itself —
     which is why PaPar overtakes it on LiveJournal (paper: 1.2x);
   * PowerLyra's socket mesh costs per-node setup that grows with the node
     count, which is why it does not scale on the small Google graph.

   Constants are calibrated so the published ratios come out (documented in
   EXPERIMENTS.md); the *mechanisms* — not the constants — are the model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import PaParError
from .graph import Graph
from repro.policies.permutation import cyclic_permutation_indices, partition_counts


def papar_equivalent_hybrid_cut(
    graph: Graph, num_partitions: int, threshold: int
) -> list[np.ndarray]:
    """Hybrid-cut partitions exactly as the PaPar workflow produces them.

    Returns one ``(k, 3)`` int64 array per partition with rows
    ``(vertex_a, vertex_b, indegree)`` — the unpacked output format of the
    Figure 10 workflow (the count add-on's attribute included).
    """
    if num_partitions < 1:
        raise PaParError(f"num_partitions must be >= 1, got {num_partitions!r}")
    indeg = graph.in_degrees()
    # group edges by target, ascending target id, stable within group
    order = np.argsort(graph.dst, kind="stable")
    src, dst = graph.src[order], graph.dst[order]
    deg = indeg[dst]
    rows = np.column_stack((src, dst, deg)).astype(np.int64)

    high_mask = deg >= threshold
    high_rows = rows[high_mask]
    low_rows = rows[~high_mask]

    parts: list[list[np.ndarray]] = [[] for _ in range(num_partitions)]

    # high-degree stream: individual edges dealt cyclically by position
    perm = cyclic_permutation_indices(len(high_rows), num_partitions)
    counts = partition_counts(len(high_rows), num_partitions, "cyclic")
    offsets = np.concatenate(([0], np.cumsum(counts)))
    for p in range(num_partitions):
        parts[p].append(high_rows[perm[offsets[p] : offsets[p + 1]]])

    # low-degree stream: whole vertex groups dealt cyclically by group position
    if len(low_rows):
        group_keys, group_starts = np.unique(low_rows[:, 1], return_index=True)
        group_bounds = np.concatenate((np.sort(group_starts), [len(low_rows)]))
        n_groups = len(group_keys)
        perm_g = cyclic_permutation_indices(n_groups, num_partitions)
        counts_g = partition_counts(n_groups, num_partitions, "cyclic")
        offs_g = np.concatenate(([0], np.cumsum(counts_g)))
        for p in range(num_partitions):
            for g in perm_g[offs_g[p] : offs_g[p + 1]]:
                parts[p].append(low_rows[group_bounds[g] : group_bounds[g + 1]])

    return [
        np.concatenate(chunks) if chunks else np.empty((0, 3), dtype=np.int64)
        for chunks in parts
    ]


@dataclass(frozen=True)
class PartitionerTimeModel:
    """Analytic hybrid-cut partitioning time for both systems.

    All times in seconds for a graph of ``V`` vertices and ``E`` edges on
    ``num_nodes`` nodes (16 cores each, the Table II testbed node).
    """

    threads_per_node: int = 16
    parallel_efficiency: float = 0.85
    edge_bytes: int = 16
    #: per-edge partitioning work (hash, route, copy) through MR-MPI
    papar_edge_cost_s: float = 60e-9
    #: NUMA-aware native path is faster per edge
    native_compute_scale: float = 0.35
    #: effective point-to-point bandwidths (bytes/s)
    ib_bandwidth: float = 3.6e9
    eth_bandwidth: float = 1.06e9
    #: native pipeline overlaps compute with its socket shuffle
    native_comm_overlap: float = 2.4e9 / 1.06e9
    #: PaPar shuffles twice (group job + distribute job); native routes ~1.2x
    papar_shuffle_rounds: float = 2.0
    native_shuffle_rounds: float = 1.2
    #: flat framework costs and per-node coordination costs
    papar_flat_s: float = 6e-3
    papar_per_node_s: float = 0.15e-3
    native_flat_s: float = 1e-3
    native_per_node_s: float = 0.25e-3
    #: dynamic low-degree scoring: per-vertex work on each node
    native_score_per_vertex_s: float = 48e-9
    #: last-level cache capacity for the native scoring/degree tables
    llc_bytes: float = 12e6

    def _effective_threads(self) -> float:
        return self.threads_per_node * self.parallel_efficiency

    def _comm_time(self, num_edges: int, num_nodes: int, bandwidth: float, rounds: float) -> float:
        if num_nodes <= 1:
            return 0.0
        per_node_bytes = num_edges * self.edge_bytes / num_nodes
        cross_fraction = 1.0 - 1.0 / num_nodes
        return rounds * per_node_bytes * cross_fraction / bandwidth

    def papar_time(self, num_vertices: int, num_edges: int, num_nodes: int) -> float:
        """PaPar on MR-MPI over InfiniBand RDMA."""
        compute = (
            num_edges / num_nodes * self.papar_edge_cost_s / self._effective_threads()
        )
        comm = self._comm_time(num_edges, num_nodes, self.ib_bandwidth, self.papar_shuffle_rounds)
        return compute + comm + self.papar_flat_s + self.papar_per_node_s * num_nodes

    def native_time(self, num_vertices: int, num_edges: int, num_nodes: int) -> float:
        """Native PowerLyra over sockets on Ethernet."""
        table_bytes = num_vertices * 8.0
        cache_factor = 1.0 + max(0.0, (table_bytes - self.llc_bytes) / self.llc_bytes)
        compute = (
            num_edges
            / num_nodes
            * self.papar_edge_cost_s
            * self.native_compute_scale
            * cache_factor
            / self._effective_threads()
        )
        comm = self._comm_time(
            num_edges,
            num_nodes,
            self.eth_bandwidth * self.native_comm_overlap,
            self.native_shuffle_rounds,
        )
        scoring = num_vertices * self.native_score_per_vertex_s / self._effective_threads()
        return (
            compute
            + comm
            + scoring
            + self.native_flat_s
            + self.native_per_node_s * num_nodes
        )

    def speedup_papar_over_native(
        self, num_vertices: int, num_edges: int, num_nodes: int
    ) -> float:
        """> 1 when PaPar's generated partitioner is faster."""
        return self.native_time(num_vertices, num_edges, num_nodes) / self.papar_time(
            num_vertices, num_edges, num_nodes
        )

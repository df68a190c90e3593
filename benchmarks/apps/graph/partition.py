"""Graph partitioning strategies: edge-cut, vertex-cut, hybrid-cut.

The paper's Figure 14 compares three placements (labels as in Section IV-C):

* **edge-cut** — every edge is placed independently (hash of the edge), so
  a vertex's edges — in and out — scatter across partitions (Figure 2 draws
  it cutting straight through a vertex's edge list).  Both endpoints of
  every edge replicate, the worst case on power-law graphs.
* **vertex-cut** — "distributes a vertex with all its in-edges to a
  partition": every edge is stored at its *target* vertex's partition.
  Low-degree-friendly but a hub drags all its in-edges onto one partition.
* **hybrid-cut** (PowerLyra) — vertex-cut for low-in-degree targets, and
  the in-edges of high-degree targets spread by *source* (Figure 2).

Each strategy yields an edge -> partition assignment; replication factor and
balance metrics are computed uniformly from that assignment, which is what
the GAS engine charges communication for.

Two assigners are provided for the group-to-partition choice: ``hash``
(PowerLyra's runtime behaviour) and ``cyclic`` (the deterministic
permutation-matrix formalization PaPar generates — Figure 11).  With
``cyclic`` the native implementation reproduces the PaPar-generated
partitions bit-for-bit, which is how the paper's "same partitions" check is
reproduced in ``tests/integration``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import PaParError
from .graph import Graph


@dataclass
class PartitionedGraph:
    """An edge -> partition assignment over a graph."""

    graph: Graph
    num_partitions: int
    edge_owner: np.ndarray  # int64, one partition id per edge
    strategy: str = "unknown"

    def __post_init__(self) -> None:
        if len(self.edge_owner) != self.graph.num_edges:
            raise PaParError("edge_owner must assign every edge")
        if len(self.edge_owner) and (
            self.edge_owner.min() < 0 or self.edge_owner.max() >= self.num_partitions
        ):
            raise PaParError("edge_owner contains out-of-range partition ids")

    # -- structure ----------------------------------------------------------

    def edges_per_partition(self) -> np.ndarray:
        """Edge count of every partition."""
        return np.bincount(self.edge_owner, minlength=self.num_partitions).astype(np.int64)

    def partition(self, p: int) -> Graph:
        """Subgraph held by partition ``p``."""
        return self.graph.select(self.edge_owner == p)

    # -- replication metrics ------------------------------------------------------

    def vertex_replicas(self) -> np.ndarray:
        """Number of distinct partitions each vertex appears in (as either
        endpoint of a local edge).  Isolated vertices count one replica
        (their master copy)."""
        v = self.graph.num_vertices
        pairs = np.concatenate(
            [
                self.graph.src * np.int64(self.num_partitions) + self.edge_owner,
                self.graph.dst * np.int64(self.num_partitions) + self.edge_owner,
            ]
        )
        unique = np.unique(pairs)
        counts = np.bincount((unique // self.num_partitions).astype(np.int64), minlength=v)
        return np.maximum(counts, 1).astype(np.int64)

    def replication_factor(self) -> float:
        """Average replicas per vertex — the comm-cost driver of GAS engines."""
        if self.graph.num_vertices == 0:
            return 0.0
        return float(self.vertex_replicas().mean())

    def edge_balance(self) -> float:
        """Max/mean ratio of per-partition edge counts (compute balance)."""
        counts = self.edges_per_partition().astype(np.float64)
        if counts.sum() == 0:
            return 1.0
        return float(counts.max() / counts.mean())

    def comm_bytes_per_iteration(self, value_bytes: int = 8) -> int:
        """GAS sync volume per superstep: every mirror exchanges its
        accumulator with the master and receives the new value back."""
        mirrors = int(self.vertex_replicas().sum()) - self.graph.num_vertices
        return 2 * mirrors * value_bytes


def _hash_assign(ids: np.ndarray, num_partitions: int) -> np.ndarray:
    """Vectorized stable hash of vertex ids onto partitions."""
    # splitmix-style mix keeps low-bit-correlated ids from mapping trivially
    x = ids.astype(np.uint64) + np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    x = x ^ (x >> np.uint64(31))
    return (x % np.uint64(num_partitions)).astype(np.int64)


def _cyclic_assign(ids: np.ndarray, num_partitions: int) -> np.ndarray:
    """The PaPar formalization: deal distinct keys round-robin in ascending
    key order (the cyclic permutation applied to the packed group stream)."""
    unique = np.unique(ids)
    rank = np.searchsorted(unique, ids)
    return (rank % num_partitions).astype(np.int64)


_ASSIGNERS: dict[str, Callable[[np.ndarray, int], np.ndarray]] = {
    "hash": _hash_assign,
    "cyclic": _cyclic_assign,
}


def _check(num_partitions: int, assigner: str) -> Callable[[np.ndarray, int], np.ndarray]:
    if num_partitions < 1:
        raise PaParError(f"num_partitions must be >= 1, got {num_partitions!r}")
    if assigner not in _ASSIGNERS:
        raise PaParError(f"unknown assigner {assigner!r}; known: {sorted(_ASSIGNERS)}")
    return _ASSIGNERS[assigner]


def edge_cut(graph: Graph, num_partitions: int, assigner: str = "hash") -> PartitionedGraph:
    """Each edge placed independently by a hash of the edge itself."""
    assign = _check(num_partitions, assigner)
    # mix both endpoints so parallel structure does not bias the placement
    edge_ids = graph.src * np.int64(0x1F123BB5) + graph.dst
    owner = assign(edge_ids, num_partitions)
    return PartitionedGraph(graph, num_partitions, owner, strategy="edge-cut")


def vertex_cut(graph: Graph, num_partitions: int, assigner: str = "hash") -> PartitionedGraph:
    """Each vertex with all its in-edges on one partition."""
    assign = _check(num_partitions, assigner)
    owner = assign(graph.dst, num_partitions)
    return PartitionedGraph(graph, num_partitions, owner, strategy="vertex-cut")


def hybrid_cut(
    graph: Graph,
    num_partitions: int,
    threshold: int = 200,
    assigner: str = "hash",
) -> PartitionedGraph:
    """PowerLyra's hybrid-cut (Figure 2).

    In-edges of a low-in-degree vertex stay together (placed by target);
    in-edges of a high-in-degree vertex spread (placed by source).
    """
    if threshold < 0:
        raise PaParError(f"threshold must be >= 0, got {threshold!r}")
    assign = _check(num_partitions, assigner)
    indeg = graph.in_degrees()
    high = indeg[graph.dst] >= threshold
    owner = np.where(
        high,
        assign(graph.src, num_partitions),
        assign(graph.dst, num_partitions),
    )
    return PartitionedGraph(graph, num_partitions, owner, strategy="hybrid-cut")


STRATEGIES = {
    "edge-cut": edge_cut,
    "vertex-cut": vertex_cut,
    "hybrid-cut": hybrid_cut,
}


def partition_by(
    strategy: str, graph: Graph, num_partitions: int, **kwargs
) -> PartitionedGraph:
    """Dispatch on the Figure 14 strategy names."""
    if strategy not in STRATEGIES:
        raise PaParError(f"unknown strategy {strategy!r}; known: {sorted(STRATEGIES)}")
    return STRATEGIES[strategy](graph, num_partitions, **kwargs)

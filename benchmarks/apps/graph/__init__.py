"""The PowerLyra driving application (paper Sections II-A, IV-C).

Graph containers, synthetic Table II dataset generators, the three
partitioning strategies of Figure 14 (edge-cut / vertex-cut / hybrid-cut),
a GAS execution engine with PageRank and Connected Components, graph
statistics, and the native-PowerLyra baseline (reference hybrid-cut +
partitioning-time model for Figure 15).
"""

from .gas import (
    ExecutionReport,
    GASEngine,
    pagerank_reference,
)
from .generate import (
    DATASETS,
    GOOGLE,
    LIVEJOURNAL,
    POKEC,
    DatasetSpec,
    generate_graph,
    generate_powerlaw,
)
from .graph import Graph
from .partition import (
    PartitionedGraph,
    STRATEGIES,
    edge_cut,
    hybrid_cut,
    partition_by,
    vertex_cut,
)
from .sssp import sssp
from .powerlyra import PartitionerTimeModel, papar_equivalent_hybrid_cut
from .stats import GraphStats, compute_stats, count_triangles

__all__ = [
    "Graph",
    "generate_graph",
    "generate_powerlaw",
    "DATASETS",
    "GOOGLE",
    "POKEC",
    "LIVEJOURNAL",
    "DatasetSpec",
    "PartitionedGraph",
    "edge_cut",
    "vertex_cut",
    "hybrid_cut",
    "partition_by",
    "STRATEGIES",
    "GASEngine",
    "ExecutionReport",
    "pagerank_reference",
    "GraphStats",
    "compute_stats",
    "count_triangles",
    "papar_equivalent_hybrid_cut",
    "PartitionerTimeModel",
    "sssp",
]

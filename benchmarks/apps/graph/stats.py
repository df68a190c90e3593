"""Graph statistics: the Table II columns."""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph


@dataclass(frozen=True)
class GraphStats:
    """One Table II row."""

    name: str
    vertices: int
    edges: int
    type: str
    triangles: int

    def as_row(self) -> tuple:
        return (self.name, self.vertices, self.edges, self.type, self.triangles)


def count_triangles(graph: Graph) -> int:
    """Undirected triangle count via trace(A^3)/6 on the symmetrized graph.

    Matches SNAP's convention for the Table II "Triangles" column (triangles
    are counted on the underlying undirected simple graph).
    """
    a = graph.adjacency()
    sym = a + a.T
    sym.data[:] = 1.0  # simple graph: collapse reciprocal edges
    sym.setdiag(0)
    sym.eliminate_zeros()
    a2 = sym @ sym
    # trace(A^3) without forming A^3: sum over shared edges
    tri = (a2.multiply(sym)).sum()
    return int(round(tri / 6.0))


def compute_stats(graph: Graph, name: str) -> GraphStats:
    """All Table II columns for one graph."""
    return GraphStats(
        name=name,
        vertices=graph.num_vertices,
        edges=graph.num_edges,
        type="Directed",
        triangles=count_triangles(graph),
    )


"""Single-source shortest paths over the partitioned graph."""

import sys
from pathlib import Path

import numpy as np
import pytest

from repro.errors import PaParError

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks"))
try:
    from apps.graph import Graph, generate_powerlaw, hybrid_cut, vertex_cut
    from apps.graph.sssp import sssp
finally:
    sys.path.pop(0)


@pytest.fixture(scope="module")
def powerlaw():
    return generate_powerlaw(1200, 9000, alpha=2.2, seed=8)


class TestSSSP:
    def test_matches_networkx(self, powerlaw):
        import networkx as nx

        pg = hybrid_cut(powerlaw, 4, threshold=20)
        dist, report = sssp(pg, source=0)
        nxg = nx.DiGraph()
        nxg.add_nodes_from(range(powerlaw.num_vertices))
        nxg.add_edges_from(zip(powerlaw.src.tolist(), powerlaw.dst.tolist()))
        expected = nx.single_source_shortest_path_length(nxg, 0)
        for v in range(powerlaw.num_vertices):
            if v in expected:
                assert dist[v] == expected[v], v
            else:
                assert np.isinf(dist[v]), v
        assert report.iterations >= 2

    def test_independent_of_cut(self, powerlaw):
        a, _ = sssp(hybrid_cut(powerlaw, 4, threshold=20), source=3)
        b, _ = sssp(vertex_cut(powerlaw, 7), source=3)
        np.testing.assert_array_equal(a, b)

    def test_weighted(self):
        g = Graph.from_edges([(0, 1), (1, 2), (0, 2)])
        weights = np.array([1.0, 1.0, 5.0])
        dist, _ = sssp(vertex_cut(g, 2), source=0, weights=weights)
        assert dist.tolist() == [0.0, 1.0, 2.0]  # via 0->1->2, not 0->2

    def test_unreachable_infinite(self):
        g = Graph.from_edges([(0, 1)], num_vertices=3)
        dist, _ = sssp(vertex_cut(g, 2), source=0)
        assert dist[2] == np.inf

    def test_source_distance_zero(self, powerlaw):
        dist, _ = sssp(vertex_cut(powerlaw, 3), source=42)
        assert dist[42] == 0.0

    def test_validation(self, powerlaw):
        pg = vertex_cut(powerlaw, 2)
        with pytest.raises(PaParError):
            sssp(pg, source=-1)
        with pytest.raises(PaParError):
            sssp(pg, source=0, weights=np.array([1.0]))
        with pytest.raises(PaParError):
            sssp(pg, source=0, weights=-np.ones(powerlaw.num_edges))

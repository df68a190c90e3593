"""Graph container, synthetic dataset generators, statistics."""

import sys
from pathlib import Path

import numpy as np
import pytest

from repro.errors import PaParError

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks"))
try:
    from apps.graph import (
        DATASETS,
        Graph,
        compute_stats,
        count_triangles,
        generate_graph,
        generate_powerlaw,
    )
finally:
    sys.path.pop(0)


class TestGraph:
    def test_from_edges(self):
        g = Graph.from_edges([(0, 1), (1, 2), (2, 0)])
        assert g.num_vertices == 3
        assert g.num_edges == 3

    def test_degrees(self):
        g = Graph.from_edges([(0, 1), (2, 1), (1, 0)])
        assert g.in_degrees().tolist() == [1, 2, 0]
        assert g.out_degrees().tolist() == [1, 1, 1]

    def test_dataset_roundtrip(self):
        g = Graph.from_edges([(5, 1), (3, 2)])
        back = Graph.from_dataset(g.to_dataset(), num_vertices=g.num_vertices)
        np.testing.assert_array_equal(back.src, g.src)
        np.testing.assert_array_equal(back.dst, g.dst)

    def test_empty_graph(self):
        g = Graph.from_edges([])
        assert g.num_vertices == 0
        assert g.num_edges == 0

    def test_invalid_vertices(self):
        with pytest.raises(PaParError):
            Graph.from_edges([(0, 5)], num_vertices=3)
        with pytest.raises(PaParError):
            Graph(np.array([-1]), np.array([0]))

    def test_select(self):
        g = Graph.from_edges([(0, 1), (1, 2), (2, 0)])
        sub = g.select(np.array([True, False, True]))
        assert sub.num_edges == 2
        assert sub.num_vertices == g.num_vertices

    def test_adjacency(self):
        g = Graph.from_edges([(0, 1), (0, 1)])  # parallel edges accumulate
        a = g.adjacency()
        assert a[0, 1] == 2.0


class TestGenerators:
    def test_table2_specs(self):
        """The paper's Table II vertex/edge counts."""
        assert DATASETS["google"].vertices == 875_713
        assert DATASETS["google"].edges == 5_105_039
        assert DATASETS["pokec"].vertices == 1_632_803
        assert DATASETS["pokec"].edges == 30_622_564
        assert DATASETS["livejournal"].vertices == 4_847_571
        assert DATASETS["livejournal"].edges == 68_993_773

    @pytest.mark.parametrize("name", ["google", "pokec", "livejournal"])
    def test_scaled_generation_preserves_avg_degree(self, name):
        spec = DATASETS[name]
        g = generate_graph(name, scale=0.005, seed=1)
        # dedup removes some edges; average degree within 40% of the original
        assert g.num_edges / g.num_vertices == pytest.approx(spec.avg_degree, rel=0.4)

    @pytest.mark.parametrize("name", ["google", "pokec", "livejournal"])
    def test_power_law_in_degrees(self, name):
        g = generate_graph(name, scale=0.01, seed=2)
        deg = g.in_degrees()
        # a heavy tail over many low-degree vertices
        assert np.percentile(deg, 99) / deg.mean() > 3.0
        assert np.median(deg) <= deg.mean()

    def test_simple_graph(self):
        g = generate_powerlaw(500, 3000, seed=3)
        assert not np.any(g.src == g.dst)  # no self loops
        packed = g.src * g.num_vertices + g.dst
        assert len(np.unique(packed)) == g.num_edges  # no duplicates

    def test_deterministic(self):
        a = generate_powerlaw(200, 800, seed=5)
        b = generate_powerlaw(200, 800, seed=5)
        np.testing.assert_array_equal(a.src, b.src)
        np.testing.assert_array_equal(a.dst, b.dst)

    def test_different_seeds_differ(self):
        a = generate_powerlaw(200, 800, seed=5)
        b = generate_powerlaw(200, 800, seed=6)
        assert not np.array_equal(a.src, b.src)

    def test_invalid_args(self):
        with pytest.raises(PaParError):
            generate_graph("twitter")
        with pytest.raises(PaParError):
            generate_graph("google", scale=0)
        with pytest.raises(PaParError):
            generate_powerlaw(1, 5)
        with pytest.raises(PaParError):
            generate_powerlaw(10, 5, alpha=0.5)


class TestStats:
    def test_triangle_count_known_graphs(self):
        # a directed 3-cycle is one undirected triangle
        tri = Graph.from_edges([(0, 1), (1, 2), (2, 0)])
        assert count_triangles(tri) == 1
        # K4 has 4 triangles
        k4_edges = [(i, j) for i in range(4) for j in range(4) if i < j]
        assert count_triangles(Graph.from_edges(k4_edges)) == 4
        # a path has none
        assert count_triangles(Graph.from_edges([(0, 1), (1, 2), (2, 3)])) == 0

    def test_reciprocal_edges_not_triangles(self):
        g = Graph.from_edges([(0, 1), (1, 0), (1, 2)])
        assert count_triangles(g) == 0

    def test_triangles_match_networkx(self):
        import networkx as nx

        g = generate_powerlaw(150, 900, seed=7)
        ours = count_triangles(g)
        nxg = nx.Graph()
        nxg.add_nodes_from(range(g.num_vertices))
        nxg.add_edges_from(zip(g.src.tolist(), g.dst.tolist()))
        theirs = sum(nx.triangles(nxg).values()) // 3
        assert ours == theirs

    def test_compute_stats_row(self):
        g = generate_powerlaw(100, 400, seed=8)
        stats = compute_stats(g, "toy")
        assert stats.vertices == 100
        assert stats.edges == g.num_edges
        assert stats.type == "Directed"
        assert stats.as_row()[0] == "toy"

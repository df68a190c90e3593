"""Partitioning strategies, replication metrics, and the GAS engine."""

import sys
from pathlib import Path

import numpy as np
import pytest

from repro.errors import PaParError
from repro.cluster import ClusterModel, ETHERNET_10G, INFINIBAND_QDR

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks"))
try:
    from apps.graph import (
        GASEngine,
        Graph,
        PartitionedGraph,
        edge_cut,
        generate_graph,
        generate_powerlaw,
        hybrid_cut,
        pagerank_reference,
        partition_by,
        vertex_cut,
    )
    from apps.graph.partition import _hash_assign
finally:
    sys.path.pop(0)


@pytest.fixture(scope="module")
def powerlaw():
    return generate_powerlaw(2000, 16000, alpha=2.2, seed=3)


class TestStrategies:
    def test_every_edge_assigned_once(self, powerlaw):
        for strategy in ("edge-cut", "vertex-cut", "hybrid-cut"):
            pg = partition_by(strategy, powerlaw, 8)
            assert pg.edges_per_partition().sum() == powerlaw.num_edges

    def test_vertex_cut_keeps_in_edges_together(self, powerlaw):
        pg = vertex_cut(powerlaw, 8)
        owners_by_dst = {}
        for d, p in zip(powerlaw.dst.tolist(), pg.edge_owner.tolist()):
            assert owners_by_dst.setdefault(d, p) == p

    def test_hybrid_low_degree_in_edges_together(self, powerlaw):
        threshold = 30
        pg = hybrid_cut(powerlaw, 8, threshold=threshold)
        indeg = powerlaw.in_degrees()
        owners_by_dst = {}
        for d, p in zip(powerlaw.dst.tolist(), pg.edge_owner.tolist()):
            if indeg[d] < threshold:
                assert owners_by_dst.setdefault(d, p) == p

    def test_hybrid_high_degree_spread(self, powerlaw):
        threshold = 30
        pg = hybrid_cut(powerlaw, 8, threshold=threshold)
        indeg = powerlaw.in_degrees()
        hubs = np.flatnonzero(indeg >= max(threshold, 50))
        if len(hubs):
            hub = int(hubs[np.argmax(indeg[hubs])])
            owners = set(pg.edge_owner[powerlaw.dst == hub].tolist())
            assert len(owners) > 1

    def test_hybrid_extremes_match_pure_cuts(self, powerlaw):
        # threshold 0: everything is "high" -> all edges placed by source
        all_high = hybrid_cut(powerlaw, 8, threshold=0)
        np.testing.assert_array_equal(
            all_high.edge_owner, _hash_assign(powerlaw.src, 8)
        )
        # huge threshold: everything is "low" -> pure vertex-cut
        all_low = hybrid_cut(powerlaw, 8, threshold=10**9)
        np.testing.assert_array_equal(all_low.edge_owner, vertex_cut(powerlaw, 8).edge_owner)

    def test_unknown_strategy(self, powerlaw):
        with pytest.raises(PaParError):
            partition_by("spectral", powerlaw, 4)

    def test_invalid_partitioned_graph(self, powerlaw):
        with pytest.raises(PaParError):
            PartitionedGraph(powerlaw, 2, np.zeros(3, dtype=np.int64))
        with pytest.raises(PaParError):
            PartitionedGraph(
                powerlaw, 2, np.full(powerlaw.num_edges, 5, dtype=np.int64)
            )

    def test_cyclic_assigner_deterministic_dealing(self):
        g = generate_powerlaw(100, 500, seed=9)
        pg = vertex_cut(g, 4, assigner="cyclic")
        # distinct targets, ascending, dealt round-robin
        targets = np.unique(g.dst)
        for i, t in enumerate(targets):
            owners = set(pg.edge_owner[g.dst == t].tolist())
            assert owners == {i % 4}


class TestReplication:
    def test_replication_bounds(self, powerlaw):
        for strategy in ("edge-cut", "vertex-cut", "hybrid-cut"):
            pg = partition_by(strategy, powerlaw, 8)
            rf = pg.replication_factor()
            assert 1.0 <= rf <= 8.0

    def test_hybrid_beats_edge_cut_replication(self, powerlaw):
        """The Figure 14 mechanism: hybrid-cut's replication factor is the
        smallest on power-law graphs, edge-cut's the largest."""
        rf = {
            s: partition_by(s, powerlaw, 16, **({"threshold": 30} if s == "hybrid-cut" else {})).replication_factor()
            for s in ("edge-cut", "vertex-cut", "hybrid-cut")
        }
        assert rf["hybrid-cut"] < rf["edge-cut"]
        assert rf["vertex-cut"] < rf["edge-cut"]

    def test_single_partition_no_mirrors(self, powerlaw):
        pg = vertex_cut(powerlaw, 1)
        assert pg.replication_factor() == 1.0
        assert pg.comm_bytes_per_iteration() == 0

    def test_comm_bytes_formula(self, powerlaw):
        pg = hybrid_cut(powerlaw, 8, threshold=30)
        mirrors = int(pg.vertex_replicas().sum()) - powerlaw.num_vertices
        assert pg.comm_bytes_per_iteration(value_bytes=8) == 2 * mirrors * 8


class TestGASEngine:
    def test_pagerank_matches_reference_for_all_cuts(self, powerlaw):
        ref = pagerank_reference(powerlaw, iterations=8)
        for strategy in ("edge-cut", "vertex-cut", "hybrid-cut"):
            pg = partition_by(strategy, powerlaw, 8)
            ranks, report = GASEngine(pg).pagerank(iterations=8)
            np.testing.assert_allclose(ranks, ref, rtol=1e-10)
            assert report.iterations == 8

    def test_pagerank_sums_to_one_ish(self, powerlaw):
        pg = hybrid_cut(powerlaw, 4, threshold=30)
        ranks, _ = GASEngine(pg).pagerank(iterations=20)
        # dangling mass leaks, but ranks stay a proper distribution-ish
        assert 0.5 < ranks.sum() <= 1.0 + 1e-9
        assert (ranks > 0).all()

    def test_connected_components_correct(self):
        # two disjoint triangles plus an isolated vertex
        edges = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
        g = Graph.from_edges(edges, num_vertices=7)
        pg = vertex_cut(g, 3)
        labels, report = GASEngine(pg).connected_components()
        assert labels[0] == labels[1] == labels[2]
        assert labels[3] == labels[4] == labels[5]
        assert labels[0] != labels[3]
        assert labels[6] == 6
        assert report.iterations >= 2

    def test_components_match_networkx(self, powerlaw):
        import networkx as nx

        pg = hybrid_cut(powerlaw, 4, threshold=30)
        labels, _ = GASEngine(pg).connected_components()
        nxg = nx.Graph()
        nxg.add_nodes_from(range(powerlaw.num_vertices))
        nxg.add_edges_from(zip(powerlaw.src.tolist(), powerlaw.dst.tolist()))
        comps = list(nx.connected_components(nxg))
        for comp in comps:
            comp_labels = {int(labels[v]) for v in comp}
            assert len(comp_labels) == 1

    def test_virtual_time_charged_with_cluster(self, powerlaw):
        cluster = ClusterModel(num_nodes=8, ranks_per_node=1, network=ETHERNET_10G)
        pg = hybrid_cut(powerlaw, 8, threshold=30)
        _, report = GASEngine(pg, cluster=cluster).pagerank(iterations=5)
        assert report.elapsed > 0
        assert report.comm_bytes > 0

    def test_hybrid_cut_fastest_modeled_time(self):
        """Figure 14's headline: hybrid-cut executes PageRank fastest."""
        g = generate_graph("google", scale=0.02, seed=4)
        cluster = ClusterModel(num_nodes=8, ranks_per_node=1, network=ETHERNET_10G)
        times = {}
        for strategy in ("edge-cut", "vertex-cut", "hybrid-cut"):
            kwargs = {"threshold": 200} if strategy == "hybrid-cut" else {}
            pg = partition_by(strategy, g, 8, **kwargs)
            _, report = GASEngine(pg, cluster=cluster).pagerank(iterations=10)
            times[strategy] = report.elapsed
        assert times["hybrid-cut"] < times["edge-cut"]
        assert times["hybrid-cut"] <= times["vertex-cut"] * 1.05

    def test_invalid_iterations(self, powerlaw):
        pg = vertex_cut(powerlaw, 2)
        with pytest.raises(PaParError):
            GASEngine(pg).pagerank(iterations=0)

    def test_empty_graph(self):
        g = Graph.from_edges([])
        pg = PartitionedGraph(g, 2, np.empty(0, dtype=np.int64))
        ranks, report = GASEngine(pg).pagerank()
        assert len(ranks) == 0

"""Hybrid-cut threshold sweep (the paper's tunable, Section IV-A).

The paper fixes ``threshold = 200`` "to divide the vertices into the
low-cut or high-cut group".  This ablation sweeps the threshold across the
degree distribution and records replication factor, edge balance and
modeled PageRank time — showing the U-shape that makes a mid-range
threshold the right choice: threshold 0 degenerates to pure source-spread
(high replication), a huge threshold degenerates to pure vertex-cut
(hub-imbalanced), and the optimum sits where only the power-law tail is
spread.
"""

import numpy as np
import pytest

from _harness import Experiment, shape
from repro.cluster import ClusterModel, ETHERNET_10G
from apps.graph import GASEngine, generate_graph, hybrid_cut

NODES = 16
THRESHOLDS = (0, 1, 2, 4, 8, 16, 32, 64, 10**9)


@pytest.fixture(scope="module")
def graph():
    return generate_graph("google", scale=0.02, seed=77)


def run_sweep(graph):
    cluster = ClusterModel(num_nodes=NODES, ranks_per_node=1, network=ETHERNET_10G)
    exp = Experiment("Threshold sweep", "hybrid-cut threshold vs replication and time")
    results = {}
    for threshold in THRESHOLDS:
        pg = hybrid_cut(graph, NODES, threshold=threshold)
        _, report = GASEngine(pg, cluster=cluster).pagerank(iterations=10)
        results[threshold] = (pg.replication_factor(), pg.edge_balance(), report.elapsed)
        exp.add(
            threshold=threshold,
            high_degree_fraction=float((graph.in_degrees() >= threshold).mean()),
            replication=results[threshold][0],
            edge_balance=results[threshold][1],
            pagerank_s=results[threshold][2],
        )
    exp.note("paper fixes threshold=200 at full scale; the sweep shows the trade-off")
    return exp, results


def test_threshold_sweep(benchmark, graph, reporter):
    exp, results = benchmark.pedantic(run_sweep, args=(graph,), rounds=1, iterations=1)
    reporter.record(exp)
    rf = {t: r[0] for t, r in results.items()}
    times = {t: r[2] for t, r in results.items()}
    # both degenerate extremes replicate more than a mid-range threshold
    mid = min(THRESHOLDS[2:-1], key=lambda t: rf[t])
    shape(rf[mid] < rf[0], "mid threshold replicates less than all-high (t=0)")
    shape(rf[mid] <= rf[10**9], "mid threshold replicates no more than all-low")
    # and the best modeled PageRank time is at an interior threshold
    best = min(THRESHOLDS, key=lambda t: times[t])
    shape(best not in (0,), f"optimum threshold ({best}) is not the all-high extreme")


def test_hybrid_cut_kernel(benchmark, graph):
    pg = benchmark(hybrid_cut, graph, NODES, 4)
    assert pg.edges_per_partition().sum() == graph.num_edges

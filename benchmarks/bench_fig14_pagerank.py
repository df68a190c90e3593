"""Figure 14 — PageRank execution time under the three cuts.

Normalized execution time of PageRank (GAS engine) with hybrid-cut,
edge-cut, and vertex-cut on 8 and 16 nodes for the three (synthetic)
datasets.  Paper claims: hybrid-cut delivers the best performance, and
because the datasets are power-law, vertex-cut — not edge-cut — is the
closer competitor.
"""

import pytest

from _harness import Experiment, shape
from repro.cluster import ClusterModel, ETHERNET_10G
from apps.graph import DATASETS, GASEngine, generate_graph, partition_by

SCALE = 0.01
THRESHOLD = 200  # the paper's hybrid-cut threshold
ITERATIONS = 10
STRATEGIES = ("hybrid-cut", "edge-cut", "vertex-cut")


@pytest.fixture(scope="module")
def graphs():
    return {name: generate_graph(name, scale=SCALE, seed=23) for name in DATASETS}


def run_figure14(graphs):
    exp = Experiment(
        "Figure 14", "PageRank time by cut, normalized to hybrid-cut (>1 = hybrid wins)"
    )
    normalized = {}
    for nodes in (8, 16):
        cluster = ClusterModel(num_nodes=nodes, ranks_per_node=1, network=ETHERNET_10G)
        for name, g in graphs.items():
            # threshold scales with the graph: the paper's 200 applies to
            # full-size datasets; keep the same quantile of the degree tail
            threshold = max(int(THRESHOLD * SCALE), 3)
            times = {}
            for strategy in STRATEGIES:
                kwargs = {"threshold": threshold} if strategy == "hybrid-cut" else {}
                pg = partition_by(strategy, g, nodes, **kwargs)
                _, report = GASEngine(pg, cluster=cluster).pagerank(iterations=ITERATIONS)
                times[strategy] = report.elapsed
            for strategy in STRATEGIES:
                ratio = times[strategy] / times["hybrid-cut"]
                normalized[(name, nodes, strategy)] = ratio
            exp.add(
                graph=name,
                nodes=nodes,
                hybrid_s=times["hybrid-cut"],
                edge_norm=normalized[(name, nodes, "edge-cut")],
                vertex_norm=normalized[(name, nodes, "vertex-cut")],
            )
    exp.note("paper: hybrid-cut best; vertex-cut closer to hybrid than edge-cut")
    return exp, normalized


def test_figure14_pagerank(benchmark, graphs, reporter):
    exp, normalized = benchmark.pedantic(run_figure14, args=(graphs,), rounds=1, iterations=1)
    reporter.record(exp)

    for (name, nodes, strategy), ratio in normalized.items():
        if strategy != "hybrid-cut":
            shape(
                ratio >= 0.98,
                f"hybrid-cut at least matches {strategy} on {name}/{nodes} nodes "
                f"(normalized {ratio:.2f})",
            )
    # on power-law graphs, vertex-cut is the closer competitor
    for name in graphs:
        for nodes in (8, 16):
            shape(
                normalized[(name, nodes, "vertex-cut")]
                <= normalized[(name, nodes, "edge-cut")],
                f"vertex-cut closer to hybrid than edge-cut on {name}/{nodes}",
            )


def test_pagerank_kernel(benchmark, graphs):
    """Kernel timing: 3 PageRank iterations over the hybrid-cut google graph."""
    g = graphs["google"]
    pg = partition_by("hybrid-cut", g, 8, threshold=3)
    engine = GASEngine(pg)
    ranks, _ = benchmark(engine.pagerank, 3)
    assert len(ranks) == g.num_vertices

"""Table II — statistics of the (synthetic stand-in) graph datasets.

Regenerates the Vertices / Edges / Type / Triangles columns on the scaled
synthetic graphs, alongside the paper's full-scale numbers for reference.
"""

import pytest

from _harness import Experiment, shape
from apps.graph import DATASETS, compute_stats, count_triangles, generate_graph

SCALE = 0.005
#: the published Table II rows (full-scale SNAP datasets)
PAPER_ROWS = {
    "google": (875713, 5105039, 13391903),
    "pokec": (1632803, 30622564, 32557458),
    "livejournal": (4847571, 68993773, 177820130),
}


@pytest.fixture(scope="module")
def graphs():
    return {name: generate_graph(name, scale=SCALE, seed=42) for name in DATASETS}


def run_table2(graphs):
    exp = Experiment("Table II", f"Graph dataset statistics (synthetic, scale={SCALE})")
    for name, g in graphs.items():
        stats = compute_stats(g, name)
        pv, pe, pt = PAPER_ROWS[name]
        exp.add(
            graph=name,
            vertices=stats.vertices,
            edges=stats.edges,
            type=stats.type,
            triangles=stats.triangles,
            paper_vertices=pv,
            paper_edges=pe,
            paper_triangles=pt,
        )
    exp.note("synthetic power-law stand-ins preserve V:E ratios, not absolute sizes")
    return exp


def test_table2_statistics(benchmark, graphs, reporter):
    exp = benchmark.pedantic(run_table2, args=(graphs,), rounds=1, iterations=1)
    reporter.record(exp)
    rows = {r["graph"]: r for r in exp.rows}
    # relative ordering of the datasets is preserved
    shape(
        rows["google"]["edges"] < rows["pokec"]["edges"] < rows["livejournal"]["edges"],
        "edge counts order google < pokec < livejournal",
    )
    shape(
        rows["google"]["vertices"] < rows["pokec"]["vertices"] < rows["livejournal"]["vertices"],
        "vertex counts order google < pokec < livejournal",
    )
    for name, r in rows.items():
        ratio = r["edges"] / r["vertices"]
        paper_ratio = r["paper_edges"] / r["paper_vertices"]
        shape(
            abs(ratio - paper_ratio) / paper_ratio < 0.4,
            f"{name}: average degree within 40% of the paper's ({ratio:.1f} vs {paper_ratio:.1f})",
        )
    shape(all(r["triangles"] > 0 for r in rows.values()), "all graphs contain triangles")


def test_triangle_counting_kernel(benchmark, graphs):
    """Kernel timing: undirected triangle count on the Google stand-in."""
    g = graphs["google"]
    result = benchmark(count_triangles, g)
    assert result > 0

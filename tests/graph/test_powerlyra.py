"""Native PowerLyra baseline: reference hybrid-cut and the Fig 15 time model."""

import sys
from pathlib import Path

import numpy as np
import pytest

from repro.errors import PaParError

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks"))
try:
    from apps.graph import (
        DATASETS,
        PartitionerTimeModel,
        generate_powerlaw,
        papar_equivalent_hybrid_cut,
    )
    from apps.graph import Graph
finally:
    sys.path.pop(0)


class TestReferenceHybridCut:
    def test_partitions_cover_all_edges(self):
        g = generate_powerlaw(300, 2000, seed=2)
        parts = papar_equivalent_hybrid_cut(g, 4, threshold=20)
        total = sum(len(p) for p in parts)
        assert total == g.num_edges
        got = sorted(map(tuple, np.concatenate(parts)[:, :2].tolist()))
        want = sorted(zip(g.src.tolist(), g.dst.tolist()))
        assert got == want

    def test_indegree_attribute_correct(self):
        g = generate_powerlaw(300, 2000, seed=2)
        indeg = g.in_degrees()
        parts = papar_equivalent_hybrid_cut(g, 4, threshold=20)
        for p in parts:
            for s, d, k in p.tolist():
                assert k == indeg[d]

    def test_low_degree_groups_whole(self):
        g = generate_powerlaw(300, 2000, seed=2)
        threshold = 20
        indeg = g.in_degrees()
        parts = papar_equivalent_hybrid_cut(g, 4, threshold=threshold)
        owner = {}
        for i, p in enumerate(parts):
            for _, d, _ in p.tolist():
                if indeg[d] < threshold:
                    assert owner.setdefault(d, i) == i

    def test_empty_and_single_partition(self):
        empty = Graph.from_edges([])
        assert [len(p) for p in papar_equivalent_hybrid_cut(empty, 3, 5)] == [0, 0, 0]
        g = generate_powerlaw(50, 200, seed=1)
        (single,) = papar_equivalent_hybrid_cut(g, 1, threshold=5)
        assert len(single) == g.num_edges

    def test_invalid_partitions(self):
        g = generate_powerlaw(50, 200, seed=1)
        with pytest.raises(PaParError):
            papar_equivalent_hybrid_cut(g, 0, threshold=5)


class TestFigure15TimeModel:
    """The paper's qualitative claims, evaluated at full Table II scale."""

    model = PartitionerTimeModel()

    def times(self, name, nodes):
        spec = DATASETS[name]
        return (
            self.model.papar_time(spec.vertices, spec.edges, nodes),
            self.model.native_time(spec.vertices, spec.edges, nodes),
        )

    def test_powerlyra_wins_google_and_pokec_16_nodes(self):
        for name in ("google", "pokec"):
            papar, native = self.times(name, 16)
            assert native < papar, name

    def test_papar_wins_livejournal_16_nodes(self):
        papar, native = self.times("livejournal", 16)
        assert papar < native
        # the paper reports ~1.2x
        assert 1.05 < native / papar < 1.6

    def test_papar_scales_to_16_nodes_on_all_graphs(self):
        for name in DATASETS:
            spec = DATASETS[name]
            t1 = self.model.papar_time(spec.vertices, spec.edges, 1)
            t16 = self.model.papar_time(spec.vertices, spec.edges, 16)
            assert t16 < t1, name

    def test_powerlyra_does_not_scale_on_google(self):
        """No meaningful speedup at 16 nodes (paper: 'cannot scale')."""
        spec = DATASETS["google"]
        t1 = self.model.native_time(spec.vertices, spec.edges, 1)
        t16 = self.model.native_time(spec.vertices, spec.edges, 16)
        assert t1 / t16 < 1.3

    def test_powerlyra_scales_on_livejournal(self):
        spec = DATASETS["livejournal"]
        t1 = self.model.native_time(spec.vertices, spec.edges, 1)
        t16 = self.model.native_time(spec.vertices, spec.edges, 16)
        assert t16 < t1 / 2

    def test_monotone_in_graph_size(self):
        small = self.model.papar_time(10**5, 10**6, 8)
        big = self.model.papar_time(10**6, 10**7, 8)
        assert big > small

"""End-to-end PowerLyra hybrid-cut workflow (Figures 10 and 11)."""

import numpy as np
import pytest

from repro import PaPar
from repro.config import EDGE_INPUT_XML
from repro.config.examples import HYBRID_CUT_WORKFLOW_XML
from repro.core.dataset import Dataset
from repro.formats import EDGE_LIST_SCHEMA

#: toy graph in the spirit of Figures 2/11: vertex 1 is high-degree
#: (in-edges from 2,3,4,5), vertices 2, 6 and 7 are low-degree.
EDGES = [
    (2, 1),
    (3, 1),
    (4, 1),
    (5, 1),
    (1, 2),
    (3, 2),
    (1, 6),
    (4, 7),
]

ARGS = {
    "input_file": "/in",
    "output_path": "/out",
    "num_partitions": 3,
    "threshold": 4,
}


@pytest.fixture
def papar():
    p = PaPar()
    p.register_input(EDGE_INPUT_XML)
    return p


@pytest.fixture
def edges_ds():
    return Dataset.from_rows(EDGE_LIST_SCHEMA, EDGES)


class TestPlan:
    def test_three_jobs_wired(self, papar):
        plan = papar.plan(HYBRID_CUT_WORKFLOW_XML, ARGS)
        assert [j.op_id for j in plan.jobs] == ["group", "split", "distr"]
        group, split, distr = plan.jobs
        assert group.operator.key == "vertex_b"
        assert group.operator.output_format == "pack"
        assert [attr for _, attr, _ in group.operator.addons] == ["indegree"]
        # split consumes the group output and routes on the added attribute
        assert split.source == "group"
        assert split.operator.key == "indegree"
        assert split.operator.policy.num_outputs == 2
        # distribute consumes BOTH split outputs via the /tmp/split/ directory
        assert distr.source == "split"
        assert distr.source_outputs == [0, 1]
        assert distr.operator.policy.name == "graphVertexCut"

    def test_threshold_resolved_into_policy(self, papar):
        plan = papar.plan(HYBRID_CUT_WORKFLOW_XML, {**ARGS, "threshold": 200})
        conditions = plan.jobs[1].operator.policy.conditions
        assert conditions[0].op == ">=" and conditions[0].operand == 200
        assert conditions[1].op == "<" and conditions[1].operand == 200


class TestHybridCutSemantics:
    def test_partitions_cover_all_edges(self, papar, edges_ds):
        result = papar.run(HYBRID_CUT_WORKFLOW_XML, ARGS, data=edges_ds)
        assert result.num_partitions == 3
        all_rows = sorted(
            tuple(r)[:2] for p in result.partitions for r in p.to_flat().records
        )
        assert all_rows == sorted(EDGES)

    def test_low_degree_vertices_kept_whole(self, papar, edges_ds):
        """Low-cut: a vertex and ALL its in-edges land on one partition."""
        result = papar.run(HYBRID_CUT_WORKFLOW_XML, ARGS, data=edges_ds)
        for vertex in (2, 6, 7):  # indegree < 4
            owners = [
                i
                for i, p in enumerate(result.partitions)
                if vertex in p.to_flat().records["vertex_b"]
            ]
            assert len(owners) == 1, f"low-degree vertex {vertex} was split"

    def test_high_degree_vertex_spread(self, papar, edges_ds):
        """High-cut: vertex 1's four in-edges spread across partitions."""
        result = papar.run(HYBRID_CUT_WORKFLOW_XML, ARGS, data=edges_ds)
        owners = {
            i
            for i, p in enumerate(result.partitions)
            if 1 in p.to_flat().records["vertex_b"]
        }
        assert len(owners) == 3  # 4 edges dealt over 3 partitions

    def test_output_is_unpacked_original_format(self, papar, edges_ds):
        """The final output has the input's flat edge format."""
        result = papar.run(HYBRID_CUT_WORKFLOW_XML, ARGS, data=edges_ds)
        for p in result.partitions:
            assert not p.is_packed

    def test_everything_low_degree_with_huge_threshold(self, papar, edges_ds):
        result = papar.run(
            HYBRID_CUT_WORKFLOW_XML, {**ARGS, "threshold": 1000}, data=edges_ds
        )
        for vertex in set(e[1] for e in EDGES):
            owners = [
                i
                for i, p in enumerate(result.partitions)
                if vertex in p.to_flat().records["vertex_b"]
            ]
            assert len(owners) == 1


class TestMPIEquivalence:
    @pytest.mark.parametrize("ranks", [1, 2, 3, 4])
    def test_mpi_matches_serial(self, papar, edges_ds, ranks):
        ref = papar.run(HYBRID_CUT_WORKFLOW_XML, ARGS, data=edges_ds)
        mpi = papar.run(
            HYBRID_CUT_WORKFLOW_XML, ARGS, data=edges_ds, backend="mpi", num_ranks=ranks
        )
        assert [p.rows() for p in mpi.partitions] == [p.rows() for p in ref.partitions]

    def test_larger_powerlaw_graph(self, papar):
        rng = np.random.default_rng(11)
        # skewed in-degrees: a few hubs, many leaves
        targets = rng.zipf(1.8, size=800) % 50
        sources = rng.integers(50, 300, size=800)
        edges = list({(int(s), int(t)) for s, t in zip(sources, targets)})
        edges.sort()
        ds = Dataset.from_rows(EDGE_LIST_SCHEMA, edges)
        args = {**ARGS, "threshold": 10, "num_partitions": 8}
        ref = papar.run(HYBRID_CUT_WORKFLOW_XML, args, data=ds)
        mpi = papar.run(HYBRID_CUT_WORKFLOW_XML, args, data=ds, backend="mpi", num_ranks=4)
        assert [p.rows() for p in mpi.partitions] == [p.rows() for p in ref.partitions]


class TestGeneratedCode:
    def test_generated_source_content(self, papar):
        plan = papar.plan(HYBRID_CUT_WORKFLOW_XML, ARGS)
        source = papar.generate_code(plan)
        compile(source, "<gen>", "exec")
        assert "get_addon('count')" in source
        assert "SplitPolicy.parse" in source
        assert "graphVertexCut" in source

    def test_generated_equals_interpreted(self, papar, edges_ds):
        plan = papar.plan(HYBRID_CUT_WORKFLOW_XML, ARGS)
        module = papar.compile(plan)
        gen = module.run(edges_ds, backend="serial")
        ref = papar.run(HYBRID_CUT_WORKFLOW_XML, ARGS, data=edges_ds)
        assert [p.rows() for p in gen.partitions] == [p.rows() for p in ref.partitions]

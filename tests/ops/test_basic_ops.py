"""Basic operators: Sort, Group, Split, Distribute (single-node kernels)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.dataset import Dataset
from repro.errors import OperatorError
from repro.formats import BLAST_INDEX_SCHEMA, EDGE_LIST_SCHEMA
from repro.ops import Count, Distribute, Group, Sort, Split
from repro.policies import SplitPolicy
from tests.integration._oracle import deal_matrix

FIGURE1_ROWS = [
    (0, 94, 0, 74),
    (94, 100, 74, 89),
    (194, 99, 163, 109),
    (293, 91, 272, 107),
]


def blast_ds(rows=FIGURE1_ROWS):
    return Dataset.from_rows(BLAST_INDEX_SCHEMA, rows)


class TestSort:
    def test_figure1_sort(self):
        """Figure 1: sort the four-tuple index ascending by seq_size."""
        out = Sort("seq_size").apply_local(blast_ds())
        assert out.rows() == [
            (293, 91, 272, 107),
            (0, 94, 0, 74),
            (194, 99, 163, 109),
            (94, 100, 74, 89),
        ]

    def test_descending(self):
        out = Sort("seq_size", ascending=False).apply_local(blast_ds())
        assert [r[1] for r in out.rows()] == [100, 99, 94, 91]

    def test_stable_on_ties(self):
        rows = [(0, 94, 0, 1), (10, 94, 1, 2), (20, 51, 2, 3)]
        out = Sort("seq_size").apply_local(blast_ds(rows))
        assert out.rows() == [(20, 51, 2, 3), (0, 94, 0, 1), (10, 94, 1, 2)]

    def test_stable_descending_on_ties(self):
        rows = [(0, 94, 0, 1), (10, 94, 1, 2), (20, 51, 2, 3)]
        out = Sort("seq_size", ascending=False).apply_local(blast_ds(rows))
        assert out.rows() == [(0, 94, 0, 1), (10, 94, 1, 2), (20, 51, 2, 3)]

    def test_missing_key(self):
        with pytest.raises(OperatorError, match="key"):
            Sort("nope").apply_local(blast_ds())

    def test_empty_key_rejected(self):
        with pytest.raises(OperatorError):
            Sort("")

    @given(st.lists(st.integers(0, 1000), max_size=100))
    def test_property_sorted_and_multiset_preserved(self, sizes):
        rows = [(i, s, i, 1) for i, s in enumerate(sizes)]
        out = Sort("seq_size").apply_local(blast_ds(rows))
        got = [r[1] for r in out.rows()]
        assert got == sorted(sizes)
        assert sorted(r[0] for r in out.rows()) == list(range(len(sizes)))


EDGES_FIG2 = [
    # Figure 2/11-style toy graph: vertex 1 has indegree 4, others low
    (2, 1),
    (3, 1),
    (4, 1),
    (5, 1),
    (1, 2),
    (3, 2),
    (1, 6),
]


def edge_ds(rows=EDGES_FIG2):
    return Dataset.from_rows(EDGE_LIST_SCHEMA, rows)


class TestGroup:
    def test_group_by_in_vertex_with_count(self):
        """Figure 11 steps 1-3: group by vertex_b, count -> indegree, pack."""
        op = Group("vertex_b", addons=[(Count(), "indegree", None)], output_format="pack")
        out = op.apply_local(edge_ds())
        assert out.is_packed
        groups = dict(out.packed.groups)
        assert set(groups) == {1, 2, 6}
        assert groups[1]["indegree"].tolist() == [4, 4, 4, 4]
        assert sorted(groups[1]["vertex_a"].tolist()) == [2, 3, 4, 5]
        assert groups[2]["indegree"].tolist() == [2, 2]
        assert groups[6]["indegree"].tolist() == [1]

    def test_orig_output_unpacks(self):
        op = Group("vertex_b", addons=[(Count(), "indegree", None)], output_format="orig")
        out = op.apply_local(edge_ds())
        assert not out.is_packed
        assert out.schema.has_field("indegree")
        assert out.num_records == len(EDGES_FIG2)

    def test_bad_output_format(self):
        with pytest.raises(OperatorError):
            Group("vertex_b", output_format="zip")

    def test_missing_key(self):
        with pytest.raises(OperatorError, match="key"):
            Group("vertex_z").apply_local(edge_ds())


class TestSplit:
    def grouped(self):
        return Group(
            "vertex_b", addons=[(Count(), "indegree", None)], output_format="pack"
        ).apply_local(edge_ds())

    def test_figure11_threshold_split(self):
        """Threshold 4: vertex 1 goes high-degree (unpacked), rest stay packed."""
        op = Split(
            "indegree",
            SplitPolicy.parse("{>=, 4},{<, 4}"),
            output_formats=["unpack", "orig"],
        )
        high, low = op.apply_local(self.grouped())
        assert not high.is_packed
        assert high.num_records == 4
        assert set(high.records["vertex_b"].tolist()) == {1}
        assert low.is_packed
        assert {k for k, _ in low.packed.groups} == {2, 6}

    def test_format_count_mismatch(self):
        with pytest.raises(OperatorError, match="formats"):
            Split("k", SplitPolicy.parse("{>=, 1},{<, 1}"), output_formats=["orig"])

    def test_default_formats_orig(self):
        op = Split("indegree", SplitPolicy.parse("{>=, 4},{<, 4}"))
        high, low = op.apply_local(self.grouped())
        assert high.is_packed and low.is_packed

    def test_split_flat_dataset(self):
        op = Split("seq_size", SplitPolicy.parse("{>=, 95},{<, 95}"))
        big, small = op.apply_local(blast_ds())
        assert [r[1] for r in big.rows()] == [100, 99]
        assert [r[1] for r in small.rows()] == [94, 91]


class TestDistribute:
    def test_figure1_cyclic_two_partitions(self):
        """Figure 1: sorted index dealt cyclically to 2 partitions."""
        sorted_ds = Sort("seq_size").apply_local(blast_ds())
        parts = Distribute("cyclic", 2).apply_local(sorted_ds)
        assert parts[0].rows() == [(293, 91, 272, 107), (194, 99, 163, 109)]
        assert parts[1].rows() == [(0, 94, 0, 74), (94, 100, 74, 89)]

    def test_block_two_partitions(self):
        parts = Distribute("block", 2).apply_local(blast_ds())
        assert parts[0].rows() == FIGURE1_ROWS[:2]
        assert parts[1].rows() == FIGURE1_ROWS[2:]

    def test_matrix_form_matches_index_form(self):
        """The 0/1 deal matrix of Section III-B (the test oracle's), applied
        to the entry-index vector, gathers the operator's partitions."""
        sorted_ds = Sort("seq_size").apply_local(blast_ds())
        parts = Distribute("cyclic", 2).apply_local(sorted_ds)
        records = sorted_ds.records
        order = deal_matrix(len(records), 2, "cyclic") @ np.arange(len(records))
        assert parts[0].records.tolist() == records[order[:2]].tolist()
        assert parts[1].records.tolist() == records[order[2:]].tolist()

    def test_multi_stream_hybrid(self):
        """Figure 11 step 6: one packed stream + one flat stream, 3 partitions."""
        grouped = Group(
            "vertex_b", addons=[(Count(), "indegree", None)], output_format="pack"
        ).apply_local(edge_ds())
        high, low = Split(
            "indegree",
            SplitPolicy.parse("{>=, 4},{<, 4}"),
            output_formats=["unpack", "orig"],
        ).apply_local(grouped)
        parts = Distribute("graphVertexCut", 3).apply_local([high, low])
        assert len(parts) == 3
        # all partitions flat and jointly cover every record exactly once
        total = sum(p.num_records for p in parts)
        assert total == grouped.num_records
        assert all(not p.is_packed for p in parts)
        # low-degree groups stay intact: vertex 2's two edges land together
        owner = [i for i, p in enumerate(parts) if 2 in p.records["vertex_b"]]
        assert len(owner) == 1

    def test_packed_entries_kept_whole(self):
        grouped = Group(
            "vertex_b", addons=[(Count(), "indegree", None)], output_format="pack"
        ).apply_local(edge_ds())
        parts = Distribute("cyclic", 2).apply_local(grouped)
        for p in parts:
            assert not p.is_packed  # final output always unpacked
        # each vertex group must be wholly inside exactly one partition
        for vertex in (1, 2, 6):
            owners = [i for i, p in enumerate(parts) if vertex in p.records["vertex_b"]]
            assert len(owners) == 1

    def test_invalid_num_partitions(self):
        with pytest.raises(OperatorError):
            Distribute("cyclic", 0)

    def test_empty_streams_rejected(self):
        with pytest.raises(OperatorError, match="streams"):
            Distribute("cyclic", 2).apply_local([])

    @given(st.integers(0, 60), st.integers(1, 8))
    def test_property_cyclic_partition_counts(self, n, p):
        rows = [(i, i, i, i) for i in range(n)]
        parts = Distribute("cyclic", p).apply_local(blast_ds(rows))
        sizes = [len(x.records) for x in parts]
        assert sum(sizes) == n
        assert max(sizes) - min(sizes) <= 1

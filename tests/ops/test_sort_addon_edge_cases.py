"""Sort with add-ons, packed-dataset sorting, and operator edge cases."""

import numpy as np
import pytest

from repro.core.dataset import Dataset
from repro.formats import EDGE_LIST_SCHEMA, Field, RecordSchema
from repro.ops import Count, Distribute, Group, Sort

KV_SCHEMA = RecordSchema(
    id="kv",
    fields=(Field("k", "long"), Field("v", "long")),
    input_format="binary",
)


class TestSortWithAddOn:
    def test_count_addon_after_sort(self):
        """Table I: Sort takes an optional addOn; the output carries the
        attribute and is grouped (packed) by the sort key."""
        ds = Dataset.from_rows(KV_SCHEMA, [(3, 1), (1, 2), (3, 3), (2, 4)])
        op = Sort("k", addon=Count(), addon_attr="n")
        out = op.apply_local(ds)
        assert out.is_packed
        groups = dict(out.packed.groups)
        assert groups[3]["n"].tolist() == [2, 2]
        assert groups[1]["n"].tolist() == [1]
        # groups appear in sorted key order
        assert [k for k, _ in out.packed.groups] == [1, 2, 3]

    def test_sort_packed_dataset_by_group_key(self):
        ds = Dataset.from_rows(EDGE_LIST_SCHEMA, [(1, 9), (2, 3), (3, 9), (4, 3)])
        packed = ds.to_packed("vertex_b")
        out = Sort("vertex_b").apply_local(packed)
        assert out.is_packed
        assert [k for k, _ in out.packed.groups] == [3, 9]

    def test_descending_float_keys(self):
        schema = RecordSchema(
            id="f", fields=(Field("x", "double"),), input_format="binary"
        )
        ds = Dataset.from_rows(schema, [(1.5,), (-2.0,), (0.25,)])
        out = Sort("x", ascending=False).apply_local(ds)
        assert [r[0] for r in out.rows()] == [1.5, 0.25, -2.0]


class TestOperatorEdgeCases:
    def test_empty_dataset_through_sort_distribute(self):
        ds = Dataset.from_rows(KV_SCHEMA, [])
        out = Sort("k").apply_local(ds)
        parts = Distribute("cyclic", 3).apply_local(out)
        assert [len(p) for p in parts] == [0, 0, 0]

    def test_more_partitions_than_entries(self):
        ds = Dataset.from_rows(KV_SCHEMA, [(1, 1), (2, 2)])
        parts = Distribute("cyclic", 5).apply_local(ds)
        assert [len(p) for p in parts] == [1, 1, 0, 0, 0]

    def test_single_entry(self):
        ds = Dataset.from_rows(KV_SCHEMA, [(7, 7)])
        parts = Distribute("block", 4).apply_local(ds)
        assert [len(p) for p in parts] == [1, 0, 0, 0]

    def test_group_empty_dataset(self):
        ds = Dataset.from_rows(EDGE_LIST_SCHEMA, [])
        out = Group("vertex_b", addons=[(Count(), "n", None)]).apply_local(ds)
        assert out.is_packed
        assert out.packed.num_groups == 0

    def test_all_same_key_group(self):
        ds = Dataset.from_rows(EDGE_LIST_SCHEMA, [(i, 5) for i in range(10)])
        out = Group("vertex_b", addons=[(Count(), "n", None)]).apply_local(ds)
        assert out.packed.num_groups == 1
        assert out.packed.groups[0][1]["n"].tolist() == [10] * 10


class TestWorkflowEdgeCases:
    """Full workflows on degenerate inputs across all backends."""

    @pytest.fixture
    def papar(self):
        from repro import PaPar
        from repro.config import BLAST_INPUT_XML

        p = PaPar()
        p.register_input(BLAST_INPUT_XML)
        return p

    @pytest.mark.parametrize("backend,ranks", [("serial", 1), ("mpi", 3), ("mapreduce", 3)])
    def test_single_record_workflow(self, papar, backend, ranks):
        from repro.config.examples import BLAST_WORKFLOW_XML
        from repro.formats import BLAST_INDEX_SCHEMA

        data = Dataset.from_rows(BLAST_INDEX_SCHEMA, [(0, 42, 0, 10)])
        result = papar.run(
            BLAST_WORKFLOW_XML,
            {"input_path": "/in", "output_path": "/out", "num_partitions": 4},
            data=data,
            backend=backend,
            num_ranks=ranks,
        )
        assert result.num_partitions == 4
        assert [len(p) for p in result.partitions] == [1, 0, 0, 0]

    @pytest.mark.parametrize("backend,ranks", [("serial", 1), ("mpi", 2)])
    def test_all_ties_workflow(self, papar, backend, ranks):
        """All keys equal: cyclic dealing must follow the original order."""
        from repro.config.examples import BLAST_WORKFLOW_XML
        from repro.formats import BLAST_INDEX_SCHEMA

        rows = [(i, 100, i, 1) for i in range(9)]
        data = Dataset.from_rows(BLAST_INDEX_SCHEMA, rows)
        result = papar.run(
            BLAST_WORKFLOW_XML,
            {"input_path": "/in", "output_path": "/out", "num_partitions": 3},
            data=data,
            backend=backend,
            num_ranks=ranks,
        )
        for p, part in enumerate(result.partitions):
            assert part.records["seq_start"].tolist() == [p, p + 3, p + 6]

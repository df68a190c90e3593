"""Property-based tests on the Dataset abstraction and schema algebra."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dataset import Dataset, concat
from repro.core.runtime import _dataset_rows_per_rank
from repro.formats import EDGE_LIST_SCHEMA, Field, RecordSchema

edge_rows = st.lists(
    st.tuples(st.integers(0, 1000), st.integers(0, 50)), min_size=0, max_size=150
)


class TestDatasetProperties:
    @given(rows=edge_rows)
    def test_pack_unpack_preserves_records(self, rows):
        ds = Dataset.from_rows(EDGE_LIST_SCHEMA, rows) if rows else Dataset.from_array(
            EDGE_LIST_SCHEMA, np.empty(0, dtype=EDGE_LIST_SCHEMA.dtype)
        )
        flat_again = ds.to_packed("vertex_b").to_flat()
        assert sorted(flat_again.rows()) == sorted(ds.rows())
        assert flat_again.num_records == len(rows)

    @given(rows=edge_rows, k=st.integers(1, 10))
    def test_take_concat_roundtrip(self, rows, k):
        if not rows:
            return
        ds = Dataset.from_rows(EDGE_LIST_SCHEMA, rows)
        # split into k interleaved selections, then concatenate
        pieces = [ds.take(np.arange(i, len(ds), k)) for i in range(k)]
        merged = concat(pieces)
        assert sorted(merged.rows()) == sorted(ds.rows())

    @given(rows=edge_rows)
    def test_nbytes_consistent(self, rows):
        if not rows:
            return
        ds = Dataset.from_rows(EDGE_LIST_SCHEMA, rows)
        assert ds.nbytes == len(rows) * EDGE_LIST_SCHEMA.itemsize

    @given(rows=edge_rows)
    def test_column_matches_records(self, rows):
        if not rows:
            return
        ds = Dataset.from_rows(EDGE_LIST_SCHEMA, rows)
        np.testing.assert_array_equal(ds.column("vertex_a"), [r[0] for r in rows])


    @given(rows=edge_rows, start=st.integers(0, 12), step=st.integers(1, 9), packed=st.booleans())
    def test_select_is_take_of_the_sliced_positions(self, rows, start, step, packed):
        ds = Dataset.from_array(EDGE_LIST_SCHEMA, EDGE_LIST_SCHEMA.to_structured(rows))
        if packed:
            ds = ds.to_packed("vertex_b")
        for where in (slice(start, None, step), slice(start, start + step)):
            got = ds.select(where)
            assert got.is_packed == packed
            assert got.rows() == ds.take(np.arange(len(ds))[where]).rows()

    def test_select_copies_flat_records(self):
        ds = Dataset.from_rows(EDGE_LIST_SCHEMA, [(i, i) for i in range(10)])
        for where in (slice(2, 7), slice(1, None, 3)):
            part = ds.select(where)
            assert part.records.flags.c_contiguous
            assert not np.shares_memory(part.records, ds.records)


class TestRankShares:
    """``_dataset_rows_per_rank``: the contiguous block each SPMD rank starts from."""

    @given(n=st.integers(0, 40), size=st.integers(1, 9))
    def test_flat_shares_are_views_covering_the_input_in_order(self, n, size):
        ds = Dataset.from_rows(EDGE_LIST_SCHEMA, [(i, i % 3) for i in range(n)])
        shares = [_dataset_rows_per_rank(ds, rank, size) for rank in range(size)]
        assert max(map(len, shares)) - min(map(len, shares)) <= 1
        assert concat(shares).rows() == ds.rows()
        for share in shares:
            assert type(share) is Dataset
            assert len(share) == 0 or np.shares_memory(share.records, ds.records)

    def test_packed_shares_split_the_groups(self):
        ds = Dataset.from_rows(EDGE_LIST_SCHEMA, [(i, i % 5) for i in range(20)])
        packed = ds.to_packed("vertex_b")
        shares = [_dataset_rows_per_rank(packed, rank, 3) for rank in range(3)]
        assert [len(s) for s in shares] == [2, 2, 1]
        assert all(s.is_packed for s in shares)
        assert [r for s in shares for r in s.rows()] == packed.rows()


names = st.text(alphabet="abcdefgh_", min_size=1, max_size=8).filter(
    lambda s: s.isidentifier()
)


class TestSchemaAlgebraProperties:
    @settings(max_examples=30)
    @given(field_names=st.lists(names, min_size=1, max_size=6, unique=True))
    def test_structured_roundtrip(self, field_names):
        schema = RecordSchema(
            id="gen",
            fields=tuple(Field(n, "long") for n in field_names),
            input_format="binary",
        )
        rows = [tuple(range(i, i + len(field_names))) for i in range(5)]
        arr = schema.to_structured(rows)
        assert [tuple(r) for r in arr] == rows
        assert schema.itemsize == 8 * len(field_names)

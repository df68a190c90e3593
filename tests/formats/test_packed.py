"""Packed format and CSR/CSC compression (paper Section III-D)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import FormatError
from repro.formats import (
    EDGE_LIST_SCHEMA,
    CSCBlock,
    Field,
    RecordSchema,
    compression_ratio,
    pack,
    unpack,
)

#: edge schema extended with the count add-on's indegree attribute,
#: as produced by the group job of the hybrid-cut workflow (Figure 11).
EDGE_WITH_DEGREE = EDGE_LIST_SCHEMA.with_field("indegree", "long")


def figure11_records():
    """The packed data of Figure 11 reducer 0: four edges into vertex 1."""
    rows = [(2, 1, 4), (3, 1, 4), (4, 1, 4), (5, 1, 4)]
    return EDGE_WITH_DEGREE.to_structured(rows)


class TestPack:
    def test_groups_by_key(self):
        records = EDGE_WITH_DEGREE.to_structured(
            [(2, 1, 2), (9, 5, 1), (3, 1, 2)]
        )
        packed = pack(records, EDGE_WITH_DEGREE, "vertex_b")
        assert packed.num_groups == 2
        keys = [k for k, _ in packed.groups]
        assert keys == [1, 5]
        g1 = dict(packed.groups)[1]
        assert sorted(g1["vertex_a"].tolist()) == [2, 3]

    def test_wrong_dtype_rejected(self):
        with pytest.raises(FormatError, match="dtype"):
            pack(np.zeros(3, dtype=np.int64), EDGE_WITH_DEGREE, "vertex_b")

    def test_missing_key_field(self):
        records = figure11_records()
        with pytest.raises(FormatError, match="key field"):
            pack(records, EDGE_WITH_DEGREE, "nope")

    def test_inconsistent_group_rejected(self):
        from repro.formats.packed import PackedRecords

        rows = EDGE_WITH_DEGREE.to_structured([(2, 1, 4), (3, 9, 4)])
        with pytest.raises(FormatError, match="different key"):
            PackedRecords(
                schema=EDGE_WITH_DEGREE, key_field="vertex_b", records=rows, indptr=[0, 2]
            )

    @pytest.mark.parametrize("indptr", [[], [1, 2], [0, 1], [0, 0, 2], [0, 2, 1, 2]])
    def test_bad_offsets_rejected(self, indptr):
        """Offsets rise strictly from 0 to the record count: no empty group,
        because a group's key is read from its first record."""
        from repro.formats.packed import PackedRecords

        rows = EDGE_WITH_DEGREE.to_structured([(2, 1, 4), (3, 1, 4)])
        with pytest.raises(FormatError, match="indptr"):
            PackedRecords(
                schema=EDGE_WITH_DEGREE, key_field="vertex_b", records=rows, indptr=indptr
            )


class TestUnpack:
    def test_roundtrip(self):
        records = figure11_records()
        packed = pack(records, EDGE_WITH_DEGREE, "vertex_b")
        flat = unpack(packed)
        assert sorted(flat.tolist()) == sorted(records.tolist())

    def test_empty(self):
        packed = pack(
            np.empty(0, dtype=EDGE_WITH_DEGREE.dtype), EDGE_WITH_DEGREE, "vertex_b"
        )
        assert len(unpack(packed)) == 0
        assert packed.nbytes == 0


class TestCSC:
    def test_paper_example_structure(self):
        """Figure 11 / Section III-D: {0, {2,3,4,5}, {4,4,4,4}} for in-vertex 1."""
        packed = pack(figure11_records(), EDGE_WITH_DEGREE, "vertex_b")
        csc = packed.to_csc()
        assert csc.indptr.tolist() == [0, 4]
        assert csc.keys.tolist() == [1]
        assert csc.values["vertex_a"].tolist() == [2, 3, 4, 5]
        # the value array is NOT compressed, by design
        assert csc.values["indegree"].tolist() == [4, 4, 4, 4]

    def test_lossless_roundtrip(self):
        records = EDGE_WITH_DEGREE.to_structured(
            [(2, 1, 3), (3, 1, 3), (7, 1, 3), (9, 5, 2), (8, 5, 2), (4, 6, 1)]
        )
        packed = pack(records, EDGE_WITH_DEGREE, "vertex_b")
        back = packed.to_csc().to_packed()
        assert back.num_groups == packed.num_groups
        for (k1, r1), (k2, r2) in zip(packed.groups, back.groups):
            assert k1 == k2
            assert r1.tolist() == r2.tolist()

    def test_compression_saves_bytes_on_redundant_groups(self):
        """Large groups repeat the key; CSC must be strictly smaller."""
        rows = [(i, 1, 1000) for i in range(1000)]
        packed = pack(EDGE_WITH_DEGREE.to_structured(rows), EDGE_WITH_DEGREE, "vertex_b")
        ratio = compression_ratio(packed)
        assert 0.0 < ratio < 1.0
        # one long column of 3 removed: roughly 1/3 of bytes saved
        assert ratio == pytest.approx(1 / 3, abs=0.05)

    def test_compression_ratio_empty(self):
        packed = pack(
            np.empty(0, dtype=EDGE_WITH_DEGREE.dtype), EDGE_WITH_DEGREE, "vertex_b"
        )
        assert compression_ratio(packed) == 0.0

    def test_invalid_indptr_rejected(self):
        with pytest.raises(FormatError):
            CSCBlock(
                schema=EDGE_WITH_DEGREE,
                key_field="vertex_b",
                keys=np.array([1, 2]),
                indptr=np.array([0, 1]),  # needs 3 entries
                values=np.empty(1, dtype=[("vertex_a", "<i8"), ("indegree", "<i8")]),
            )

    @given(
        st.lists(
            st.tuples(st.integers(0, 50), st.integers(0, 5), st.integers(1, 3)),
            min_size=1,
            max_size=200,
        )
    )
    def test_property_roundtrip_preserves_records(self, rows):
        records = EDGE_WITH_DEGREE.to_structured(rows)
        packed = pack(records, EDGE_WITH_DEGREE, "vertex_b")
        assert packed.num_records == len(rows)
        flat_again = packed.to_csc().to_packed().unpack()
        assert sorted(flat_again.tolist()) == sorted(records.tolist())

    @given(
        st.lists(
            st.tuples(st.integers(0, 1000), st.integers(0, 3)),
            min_size=1,
            max_size=300,
        )
    )
    def test_property_csc_never_larger_when_groups_nontrivial(self, pairs):
        schema = RecordSchema(
            id="kv",
            fields=(Field("payload", "long"), Field("grp", "long")),
            input_format="binary",
        )
        records = schema.to_structured(pairs)
        packed = pack(records, schema, "grp")
        csc = packed.to_csc()
        # per group CSC trades (count-1) stored keys for one indptr entry, so
        # it wins once every group holds >= 3 records (8B key vs 8B offset + key)
        min_group = min(len(rows) for _, rows in packed.groups)
        if min_group >= 3:
            assert csc.nbytes <= packed.nbytes
        # and is always lossless regardless of size
        assert csc.num_records == packed.num_records

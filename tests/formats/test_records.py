"""RecordSchema validation and numpy interop."""

import pickle

import numpy as np
import pytest

from repro.errors import SchemaError
from repro.formats import BLAST_INDEX_SCHEMA, EDGE_LIST_SCHEMA, Field, RecordSchema


class TestField:
    def test_valid(self):
        f = Field("seq_size", "integer")
        assert f.numpy_dtype == np.dtype("<i4")

    def test_unknown_type(self):
        with pytest.raises(SchemaError, match="unknown type"):
            Field("x", "decimal")

    def test_bad_name(self):
        with pytest.raises(SchemaError):
            Field("9bad", "integer")
        with pytest.raises(SchemaError):
            Field("", "integer")

    def test_string_has_no_binary_width(self):
        with pytest.raises(SchemaError):
            Field("s", "string").numpy_dtype

    def test_parse_text(self):
        assert Field("a", "integer").parse_text("42") == 42
        assert Field("a", "double").parse_text("2.5") == 2.5
        assert Field("a", "string").parse_text("xyz") == "xyz"


class TestBlastIndexSchema:
    def test_paper_layout(self):
        """Figure 4: four integers, 16 bytes per record, 32-byte header."""
        s = BLAST_INDEX_SCHEMA
        assert s.itemsize == 16
        assert s.start_position == 32
        assert s.field_names == ("seq_start", "seq_size", "desc_start", "desc_size")

    def test_structured_roundtrip(self):
        rows = [(0, 94, 0, 74), (94, 100, 74, 89)]
        arr = BLAST_INDEX_SCHEMA.to_structured(rows)
        assert arr["seq_size"].tolist() == [94, 100]


class TestEdgeListSchema:
    def test_paper_layout(self):
        s = EDGE_LIST_SCHEMA
        assert s.input_format == "text"
        assert s.effective_delimiters() == ("\t", "\n")


class TestValidation:
    def test_no_fields(self):
        with pytest.raises(SchemaError, match="no fields"):
            RecordSchema(id="x", fields=())

    def test_duplicate_fields(self):
        with pytest.raises(SchemaError, match="duplicate"):
            RecordSchema(id="x", fields=(Field("a", "integer"), Field("a", "long")))

    def test_binary_rejects_string(self):
        with pytest.raises(SchemaError, match="string"):
            RecordSchema(id="x", fields=(Field("a", "string"),), input_format="binary")

    def test_binary_rejects_delimiters(self):
        with pytest.raises(SchemaError, match="delimiters"):
            RecordSchema(
                id="x", fields=(Field("a", "integer"),), input_format="binary", delimiters=("\t",)
            )

    def test_text_rejects_start_position(self):
        with pytest.raises(SchemaError, match="start_position"):
            RecordSchema(
                id="x", fields=(Field("a", "integer"),), input_format="text", start_position=4
            )

    def test_text_delimiter_count(self):
        with pytest.raises(SchemaError, match="delimiter"):
            RecordSchema(
                id="x",
                fields=(Field("a", "integer"), Field("b", "integer")),
                input_format="text",
                delimiters=("\t",),
            )

    def test_unknown_format(self):
        with pytest.raises(SchemaError):
            RecordSchema(id="x", fields=(Field("a", "integer"),), input_format="csv")

    def test_index_of_missing(self):
        with pytest.raises(SchemaError):
            BLAST_INDEX_SCHEMA.index_of("nope")


class TestSchemaAlgebra:
    def test_with_field_appends(self):
        s = EDGE_LIST_SCHEMA.with_field("indegree", "long")
        assert s.field_names == ("vertex_a", "vertex_b", "indegree")
        assert s.effective_delimiters() == ("\t", "\t", "\n")

    def test_with_field_duplicate_rejected(self):
        with pytest.raises(SchemaError):
            EDGE_LIST_SCHEMA.with_field("vertex_a")



class TestWidthsWithoutNumpy:
    """Widths come from the config type alone; the dtype agrees with them."""

    TYPES = ("integer", "long", "float", "double")

    def test_field_widths_are_the_dtype_itemsizes(self):
        for t in self.TYPES:
            assert Field("a", t).width == Field("a", t).numpy_dtype.itemsize
        assert Field("s", "string").width is None

    def test_schema_itemsize_is_the_packed_dtype_itemsize(self):
        s = RecordSchema(id="x", fields=tuple(Field(f"f{i}", t) for i, t in enumerate(self.TYPES)))
        assert s.itemsize == s.width == s.dtype.itemsize == 24
        text = RecordSchema(id="t", fields=(Field("s", "string"), Field("n", "long")),
                            input_format="text")
        assert text.width is None
        with pytest.raises(SchemaError, match="no fixed binary width"):
            text.itemsize

    def test_integer_ranges_are_numpy_s(self):
        from repro.errors import FormatError

        for t, dt in (("integer", np.int32), ("long", np.int64)):
            f, info = Field("a", t), np.iinfo(dt)
            assert f.parse_text(str(info.min)) == info.min
            assert f.parse_text(str(info.max)) == info.max
            for token in (str(info.min - 1), str(info.max + 1)):
                with pytest.raises(FormatError, match="out of range"):
                    f.parse_text(token)

    def test_the_planner_s_narrow_key_test_is_packs_rows(self):
        from repro.core.physical import _packs_rows
        from repro.order import packs_rows

        s = RecordSchema(id="x", fields=tuple(Field(t, t) for t in self.TYPES))
        for t in self.TYPES:
            assert _packs_rows(s, t) == packs_rows(s.dtype[t], np.uint32), t


class TestDtypeOncePerSchema:
    def test_the_dtype_is_built_once(self):
        s = BLAST_INDEX_SCHEMA.with_field("rank", "long")
        assert s.dtype is s.dtype
        assert s.dtype == np.dtype([("seq_start", "<i4"), ("seq_size", "<i4"),
                                    ("desc_start", "<i4"), ("desc_size", "<i4"),
                                    ("rank", "<i8")])

    def test_a_pickled_schema_carries_no_dtype_and_rebuilds_an_equal_one(self):
        s = BLAST_INDEX_SCHEMA.with_field("rank", "long")
        before = pickle.dumps(s)
        s.dtype
        assert pickle.dumps(s) == before
        copy = pickle.loads(before)
        assert copy == s and hash(copy) == hash(s)
        assert copy.dtype == s.dtype and copy.dtype is copy.dtype

    def test_a_process_rank_run_is_unchanged(self):
        from repro import PaPar
        from repro.config import BLAST_INPUT_XML
        from repro.config.examples import BLAST_WORKFLOW_XML
        from repro.core.dataset import Dataset

        rng = np.random.default_rng(7)
        records = np.zeros(3000, dtype=BLAST_INDEX_SCHEMA.dtype)
        for name in BLAST_INDEX_SCHEMA.field_names:
            records[name] = rng.integers(0, 1000, len(records))
        papar = PaPar()
        papar.register_input(BLAST_INPUT_XML)
        args = {"input_path": "unused", "output_path": "unused", "num_partitions": 4}
        runs = [
            papar.run(BLAST_WORKFLOW_XML, args, backend=backend, num_ranks=ranks,
                      data=Dataset.from_array(BLAST_INDEX_SCHEMA, records))
            for backend, ranks in (("serial", 1), ("process", 2))
        ]
        serial, process = ([p.to_flat().records for p in r.partitions] for r in runs)
        assert len(process) == len(serial) == 4
        for ours, theirs in zip(process, serial):
            assert ours.dtype == theirs.dtype == BLAST_INDEX_SCHEMA.dtype
            assert ours.tobytes() == theirs.tobytes()

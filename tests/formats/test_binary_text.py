"""Binary and text file readers/writers and the input-file view."""

import os

import numpy as np
import pytest

from repro.errors import FormatError
from repro.formats import (
    BLAST_INDEX_SCHEMA,
    EDGE_LIST_SCHEMA,
    Field,
    InputFileView,
    RecordSchema,
    read_binary,
    read_text,
    read_text_array,
    write_binary,
    write_partitions,
    write_text,
)
from repro.formats.text import format_line, parse_line


@pytest.fixture
def blast_rows():
    # the 12 index entries of Figure 9
    return [
        (0, 94, 0, 74),
        (94, 192, 74, 89),
        (286, 99, 163, 109),
        (385, 91, 272, 107),
        (476, 90, 379, 111),
        (566, 51, 490, 120),
        (617, 72, 610, 118),
        (689, 94, 728, 71),
        (783, 64, 799, 91),
        (847, 99, 890, 113),
        (946, 95, 1003, 104),
        (1041, 79, 1107, 76),
    ]


@pytest.fixture
def blast_file(tmp_path, blast_rows):
    arr = BLAST_INDEX_SCHEMA.to_structured(blast_rows)
    path = tmp_path / "db.index"
    write_binary(path, arr, BLAST_INDEX_SCHEMA, header=b"\x00" * 32)
    return path


class TestBinaryRoundtrip:
    def test_write_read(self, blast_file, blast_rows):
        arr = read_binary(blast_file, BLAST_INDEX_SCHEMA)
        assert arr.tolist() == blast_rows

    def test_header_size_enforced(self, tmp_path):
        arr = BLAST_INDEX_SCHEMA.to_structured([(0, 1, 2, 3)])
        with pytest.raises(FormatError, match="header"):
            write_binary(tmp_path / "x", arr, BLAST_INDEX_SCHEMA, header=b"short")

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "bad.index"
        path.write_bytes(b"\x00" * 40)  # 32 header + 8 bytes (half a record)
        with pytest.raises(FormatError, match="multiple"):
            read_binary(path, BLAST_INDEX_SCHEMA)

    def test_file_smaller_than_header(self, tmp_path):
        path = tmp_path / "tiny"
        path.write_bytes(b"\x00" * 8)
        with pytest.raises(FormatError, match="smaller"):
            read_binary(path, BLAST_INDEX_SCHEMA)

    def test_text_schema_rejected(self, tmp_path):
        with pytest.raises(FormatError):
            write_binary(tmp_path / "x", np.empty(0), EDGE_LIST_SCHEMA)

    def test_read_fills_one_owned_array(self, blast_file, blast_rows):
        arr = read_binary(blast_file, BLAST_INDEX_SCHEMA)
        assert arr.flags.owndata and arr.flags.writeable and arr.flags.c_contiguous
        arr["seq_size"][:] = 0  # the caller's array, not a view of a read buffer
        assert read_binary(blast_file, BLAST_INDEX_SCHEMA).tolist() == blast_rows

    def test_header_only_file_reads_empty(self, tmp_path):
        path = tmp_path / "empty.index"
        path.write_bytes(b"\x00" * 32)
        arr = read_binary(path, BLAST_INDEX_SCHEMA)
        assert len(arr) == 0 and arr.dtype == BLAST_INDEX_SCHEMA.dtype

    def test_file_truncated_after_the_size_check_is_a_short_read(
        self, blast_file, monkeypatch
    ):
        real_size = os.path.getsize(blast_file)
        monkeypatch.setattr(os.path, "getsize", lambda path: real_size + 2 * 16)
        with pytest.raises(FormatError, match="expected 14 records.*found 12"):
            read_binary(blast_file, BLAST_INDEX_SCHEMA)


class TestInputFileView:
    def test_counts_the_files_records(self, blast_file, tmp_path):
        view = InputFileView(blast_file, BLAST_INDEX_SCHEMA)
        assert len(view) == view.num_records == 12
        assert view.nbytes == 12 * 16 and not view.is_packed
        (tmp_path / "edges.txt").write_text("1\t2\n")
        with pytest.raises(FormatError, match="not a binary schema"):
            InputFileView(tmp_path / "edges.txt", EDGE_LIST_SCHEMA)

    def test_slices_cover_all_records(self, blast_file, blast_rows):
        view = InputFileView(blast_file, BLAST_INDEX_SCHEMA)
        bounds = [0, 3, 6, 8, 10, 12]
        slices = [view.slice_view(a, b - a) for a, b in zip(bounds, bounds[1:])]
        assert [len(s) for s in slices] == [3, 3, 2, 2, 2]
        seen = [tuple(r) for s in slices for r in s.materialize().records]
        assert seen == blast_rows
        # nested views compose offsets; the parent is left as it was
        assert slices[1].slice_view(1, 2).read_rows(0, 2).tolist() == blast_rows[4:6]
        assert len(view) == 12
        with pytest.raises(FormatError, match="outside view"):
            slices[4].slice_view(1, 2)

    def test_read_rows_reads_one_range(self, blast_file, blast_rows):
        view = InputFileView(blast_file, BLAST_INDEX_SCHEMA)
        assert view.read_rows(6, 6).tolist() == blast_rows[6:]
        assert len(view.read_rows(3, 0)) == 0
        with pytest.raises(FormatError, match="outside view"):
            view.read_rows(8, 5)
        rows, _ = view.slice_view(2, 4).indexed_rows()
        assert isinstance(rows, np.memmap) and not rows.flags.writeable
        assert rows.tolist() == blast_rows[2:6]

    def test_a_file_cut_under_the_view_is_a_short_read(self, blast_file):
        view = InputFileView(blast_file, BLAST_INDEX_SCHEMA)
        os.truncate(blast_file, os.path.getsize(blast_file) - 16)
        with pytest.raises(FormatError, match="expected 6 records.*found 5"):
            view.slice_view(6, 6).materialize()
        with pytest.raises(FormatError, match="expected 6 records.*found 5"):
            view.slice_view(6, 6).indexed_rows()


class TestWritePartitions:
    def test_one_file_per_partition(self, tmp_path, blast_rows):
        arr = BLAST_INDEX_SCHEMA.to_structured(blast_rows)
        parts = [arr[:4], arr[4:8], arr[8:]]
        paths = write_partitions(tmp_path / "out", parts, BLAST_INDEX_SCHEMA, header=b"\x00" * 32)
        assert [p.endswith(f"part-0000{i}") for i, p in enumerate(paths)] == [True] * 3
        for path, part in zip(paths, parts):
            back = read_binary(path, BLAST_INDEX_SCHEMA)
            assert back.tolist() == part.tolist()


EDGES = [(1, 2), (2, 3), (3, 1), (1, 3)]


class TestTextRoundtrip:
    def test_write_read(self, tmp_path):
        path = tmp_path / "edges.txt"
        write_text(path, EDGES, EDGE_LIST_SCHEMA)
        assert read_text(path, EDGE_LIST_SCHEMA) == EDGES

    def test_read_array(self, tmp_path):
        path = tmp_path / "edges.txt"
        write_text(path, EDGES, EDGE_LIST_SCHEMA)
        arr = read_text_array(path, EDGE_LIST_SCHEMA)
        assert arr["vertex_a"].tolist() == [1, 2, 3, 1]

    def test_format_line(self):
        assert format_line((7, 9), EDGE_LIST_SCHEMA) == "7\t9\n"

    def test_parse_line(self):
        assert parse_line("7\t9\n", EDGE_LIST_SCHEMA) == (7, 9)

    def test_parse_missing_delimiter(self):
        with pytest.raises(FormatError, match="delimiter"):
            parse_line("7 9\n", EDGE_LIST_SCHEMA)

    def test_parse_bad_type(self):
        with pytest.raises(FormatError, match="parse"):
            parse_line("a\tb\n", EDGE_LIST_SCHEMA)

    def test_string_fields(self, tmp_path):
        schema = RecordSchema(
            id="names",
            fields=(Field("first", "string"), Field("last", "string")),
            input_format="text",
        )
        path = tmp_path / "names.txt"
        write_text(path, [("ada", "lovelace"), ("alan", "turing")], schema)
        assert read_text(path, schema) == [("ada", "lovelace"), ("alan", "turing")]

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("1\t2\n\n3\t4\n")
        assert read_text(path, EDGE_LIST_SCHEMA) == [(1, 2), (3, 4)]

    def test_binary_schema_rejected(self, tmp_path):
        (tmp_path / "x").write_text("")
        with pytest.raises(FormatError, match="not a text schema"):
            read_text(tmp_path / "x", BLAST_INDEX_SCHEMA)

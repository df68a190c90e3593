"""Binary and text file readers/writers + Hadoop InputFormat contract."""

import os

import numpy as np
import pytest

from repro.errors import FormatError
from repro.formats import (
    BLAST_INDEX_SCHEMA,
    EDGE_LIST_SCHEMA,
    BinaryInputFormat,
    Field,
    RecordSchema,
    TextInputFormat,
    read_binary,
    read_text,
    read_text_array,
    write_binary,
    write_partitions,
    write_text,
)
from repro.formats.text import format_line, parse_line
from repro.mapreduce.hadoop import InputSplit


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


class TestBinaryInputFormat:
    def test_record_aligned_splits(self, blast_file):
        fmt = BinaryInputFormat(blast_file, BLAST_INDEX_SCHEMA)
        assert fmt.num_records == 12
        splits = fmt.get_splits(3)
        assert all(s.length % 16 == 0 for s in splits)
        assert splits[0].start == 32
        assert sum(s.length for s in splits) == 12 * 16

    def test_splits_cover_all_records(self, blast_file, blast_rows):
        fmt = BinaryInputFormat(blast_file, BLAST_INDEX_SCHEMA)
        seen = []
        for rank in range(5):
            seen += [tuple(r) for r in fmt.records_for_rank(rank, 5)]
        assert seen == blast_rows

    def test_uneven_split_counts(self, blast_file):
        fmt = BinaryInputFormat(blast_file, BLAST_INDEX_SCHEMA)
        lengths = [s.length // 16 for s in fmt.get_splits(5)]
        assert lengths == [3, 3, 2, 2, 2]

    def test_vectorized_read_split(self, blast_file, blast_rows):
        fmt = BinaryInputFormat(blast_file, BLAST_INDEX_SCHEMA)
        split = fmt.get_splits(2)[1]
        arr = fmt.read_split(split)
        assert arr.tolist() == blast_rows[6:]

    def test_split_past_the_end_of_the_file_is_a_short_read(self, blast_file):
        fmt = BinaryInputFormat(blast_file, BLAST_INDEX_SCHEMA)
        last = fmt.get_splits(2)[1]
        beyond = InputSplit(source=last.source, start=last.start + 16, length=last.length)
        with pytest.raises(FormatError, match="expected 6 records.*found 5"):
            fmt.read_split(beyond)
        with pytest.raises(FormatError, match="aligned"):
            fmt.read_split(InputSplit(source=last.source, start=last.start, length=17))


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


class TestTextInputFormat:
    def test_splits(self, tmp_path):
        path = tmp_path / "edges.txt"
        write_text(path, EDGES, EDGE_LIST_SCHEMA)
        fmt = TextInputFormat(path, EDGE_LIST_SCHEMA)
        assert fmt.num_records == 4
        seen = []
        for rank in range(3):
            seen += fmt.records_for_rank(rank, 3)
        assert seen == EDGES

    def test_binary_schema_rejected(self, tmp_path):
        (tmp_path / "x").write_text("")
        with pytest.raises(FormatError):
            TextInputFormat(tmp_path / "x", BLAST_INDEX_SCHEMA)

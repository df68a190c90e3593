"""ChunkedDataset: budget-bounded iteration over binary and text inputs."""

import numpy as np
import pytest

from repro.core.dataset import Dataset
from repro.errors import FormatError
from repro.formats.binary import read_binary, write_binary
from repro.formats.records import BLAST_INDEX_SCHEMA, EDGE_LIST_SCHEMA
from repro.formats.text import read_text_array, write_text
from repro.ooc.budget import MemoryBudget
from repro.ooc.chunked import ChunkedDataset, iter_dataset_chunks


def make_blast_file(path, n, seed=7):
    rng = np.random.default_rng(seed)
    arr = np.zeros(n, dtype=BLAST_INDEX_SCHEMA.dtype)
    for f in BLAST_INDEX_SCHEMA.field_names:
        arr[f] = rng.integers(0, 1 << 20, n)
    write_binary(path, arr, BLAST_INDEX_SCHEMA, header=b"\0" * 32)
    return arr


def make_edge_file(path, n, seed=11, blank_every=0):
    rng = np.random.default_rng(seed)
    rows = [
        (int(a), int(b))
        for a, b in zip(rng.integers(0, 500, n), rng.integers(0, 500, n))
    ]
    if blank_every:
        with open(path, "w") as fh:
            for i, row in enumerate(rows):
                fh.write(f"{row[0]}\t{row[1]}\n")
                if (i + 1) % blank_every == 0:
                    fh.write("\n")  # blank lines must not shift record indexes
    else:
        write_text(path, rows, EDGE_LIST_SCHEMA)
    return rows


class TestBinary:
    def test_matches_full_read(self, tmp_path):
        path = str(tmp_path / "blast.bin")
        arr = make_blast_file(path, 257)
        data = ChunkedDataset(path, BLAST_INDEX_SCHEMA, MemoryBudget("4KB"))
        assert len(data) == 257
        assert data.nbytes == arr.nbytes
        assert not data.is_packed
        assert np.array_equal(data.materialize().records, read_binary(path, BLAST_INDEX_SCHEMA))

    def test_chunks_are_budget_sized_and_cover_the_file(self, tmp_path):
        path = str(tmp_path / "blast.bin")
        arr = make_blast_file(path, 100)
        budget = MemoryBudget("1KB", chunk_fraction=0.25)
        data = ChunkedDataset(path, BLAST_INDEX_SCHEMA, budget)
        chunks = list(data.chunks())
        expected = budget.chunk_records(BLAST_INDEX_SCHEMA.itemsize)
        assert all(isinstance(c, Dataset) for c in chunks)
        assert all(len(c) <= expected for c in chunks)
        assert sum(len(c) for c in chunks) == 100
        assert np.array_equal(np.concatenate([c.records for c in chunks]), arr)

    def test_slice_view_and_read_rows(self, tmp_path):
        path = str(tmp_path / "blast.bin")
        arr = make_blast_file(path, 64)
        data = ChunkedDataset(path, BLAST_INDEX_SCHEMA, MemoryBudget("1KB"))
        view = data.slice_view(10, 20)
        assert len(view) == 20
        assert np.array_equal(view.materialize().records, arr[10:30])
        # nested views compose offsets
        inner = view.slice_view(5, 4)
        assert np.array_equal(inner.read_rows(0, 4), arr[15:19])
        assert len(view.read_rows(3, 0)) == 0

    def test_out_of_range_access_raises(self, tmp_path):
        path = str(tmp_path / "blast.bin")
        make_blast_file(path, 16)
        data = ChunkedDataset(path, BLAST_INDEX_SCHEMA, MemoryBudget("1KB"))
        with pytest.raises(FormatError):
            data.slice_view(10, 10)
        with pytest.raises(FormatError):
            data.read_rows(12, 8)

    def test_truncated_file_is_rejected(self, tmp_path):
        path = str(tmp_path / "blast.bin")
        make_blast_file(path, 16)
        raw = open(path, "rb").read()
        open(path, "wb").write(raw[:-3])  # no longer a whole number of records
        with pytest.raises(FormatError):
            ChunkedDataset(path, BLAST_INDEX_SCHEMA, MemoryBudget("1KB"))

    def test_column_matches_materialized_field(self, tmp_path):
        path = str(tmp_path / "blast.bin")
        arr = make_blast_file(path, 90)
        data = ChunkedDataset(path, BLAST_INDEX_SCHEMA, MemoryBudget("512"))
        assert np.array_equal(data.column("seq_size"), arr["seq_size"])


class TestText:
    @pytest.mark.parametrize("blank_every", [0, 7])
    def test_matches_full_read(self, tmp_path, blank_every):
        path = str(tmp_path / "edges.txt")
        make_edge_file(path, 203, blank_every=blank_every)
        full = read_text_array(path, EDGE_LIST_SCHEMA)
        data = ChunkedDataset(path, EDGE_LIST_SCHEMA, MemoryBudget("1KB"))
        assert len(data) == 203
        assert np.array_equal(data.materialize().records, full)
        chunks = list(data.chunks())
        assert len(chunks) > 1  # budget small enough to force several chunks
        assert np.array_equal(np.concatenate([c.records for c in chunks]), full)

    def test_random_access_uses_the_offset_index(self, tmp_path):
        path = str(tmp_path / "edges.txt")
        make_edge_file(path, 150)
        full = read_text_array(path, EDGE_LIST_SCHEMA)
        data = ChunkedDataset(path, EDGE_LIST_SCHEMA, MemoryBudget("256"))
        for start, length in [(0, 5), (37, 11), (149, 1), (60, 90)]:
            assert np.array_equal(data.read_rows(start, length), full[start : start + length])

    def test_slice_view_shares_the_index(self, tmp_path):
        path = str(tmp_path / "edges.txt")
        make_edge_file(path, 80)
        full = read_text_array(path, EDGE_LIST_SCHEMA)
        data = ChunkedDataset(path, EDGE_LIST_SCHEMA, MemoryBudget("256"))
        view = data.slice_view(33, 40)
        assert view._text_index is data._text_index
        assert np.array_equal(view.materialize().records, full[33:73])

    def test_a_numeric_row_range_decodes_in_one_call(self, tmp_path, monkeypatch):
        import repro.formats.text as text  # the text branch imports the codec on use

        path = str(tmp_path / "edges.txt")
        make_edge_file(path, 300, blank_every=7)
        full = read_text_array(path, EDGE_LIST_SCHEMA)
        data = ChunkedDataset(path, EDGE_LIST_SCHEMA, MemoryBudget("1KB"))

        def per_line(line, schema):
            raise AssertionError("a plain numeric row went through parse_line")

        monkeypatch.setattr(text, "parse_line", per_line)
        assert np.array_equal(data.read_rows(41, 200), full[41:241])

    @pytest.mark.parametrize("bad_line", ["1\tx\n", "1\n", "1\t2\t3\n", "1 \t2\n"])
    def test_rows_the_bulk_decode_refuses_keep_the_per_line_outcome(
        self, tmp_path, bad_line
    ):
        path = tmp_path / "edges.txt"
        path.write_text("1\t2\n" * 5 + bad_line + "3\t4\n" * 5)
        data = ChunkedDataset(str(path), EDGE_LIST_SCHEMA, MemoryBudget("1KB"))
        try:
            expected = read_text_array(str(path), EDGE_LIST_SCHEMA)
        except FormatError as exc:
            with pytest.raises(FormatError) as got:
                data.read_rows(0, len(data))
            assert str(got.value) == str(exc)
        else:
            assert np.array_equal(data.read_rows(0, len(data)), expected)


def scan_line_by_line(path, stride):
    """The per-line scan the vectorized one replaced, kept as its reference."""
    offsets, num_records, pos = [], 0, 0
    with open(path, "rb") as fh:
        for line in fh:
            if line.strip():
                if num_records % stride == 0:
                    offsets.append(pos)
                num_records += 1
            pos += len(line)
    return offsets, num_records


class TestTextOffsetScan:
    #: blank, whitespace-only and CRLF lines, a long line, no final newline
    HOSTILE = (
        b"\n\n1\t2\n \t \n3\t4\r\n\r\n\x0b\x0c\n"
        + b"5" * 40 + b"\t6\n7\t8\n\n9\t10"
    )

    @pytest.mark.parametrize("stride", [1, 2, 3, 100])
    @pytest.mark.parametrize("buffer_size", list(range(1, 24)) + [64, 1 << 16])
    def test_any_buffer_size_and_stride(self, tmp_path, monkeypatch, buffer_size, stride):
        from repro.ooc import chunked

        path = tmp_path / "hostile.txt"
        path.write_bytes(self.HOSTILE)
        monkeypatch.setattr(chunked, "_TEXT_BUFFER", buffer_size)
        offsets, count = chunked._scan_text_offsets(path, stride)
        want_offsets, want_count = scan_line_by_line(path, stride)
        assert count == want_count == 5
        assert offsets.dtype == np.int64
        assert offsets.tolist() == want_offsets

    @pytest.mark.parametrize("tail", [b"", b"\n", b"\n\n", b" \n", b"\r"])
    def test_trailing_bytes(self, tmp_path, tail):
        from repro.ooc.chunked import _scan_text_offsets

        path = tmp_path / "tail.txt"
        path.write_bytes(b"1\t2\n3\t4" + tail)
        offsets, count = _scan_text_offsets(path, 1)
        assert (offsets.tolist(), count) == scan_line_by_line(path, 1) == ([0, 4], 2)

    def test_empty_and_blank_files(self, tmp_path):
        from repro.ooc.chunked import _scan_text_offsets

        for content in (b"", b"\n", b" \n\t\n\r\n"):
            path = tmp_path / "blank.txt"
            path.write_bytes(content)
            offsets, count = _scan_text_offsets(path, 4)
            assert offsets.tolist() == [] and count == 0


class TestIterDatasetChunks:
    def test_in_memory_dataset_is_sliced(self, tmp_path):
        path = str(tmp_path / "blast.bin")
        arr = make_blast_file(path, 50)
        ds = Dataset(schema=BLAST_INDEX_SCHEMA, records=arr)
        chunks = list(iter_dataset_chunks(ds, 7))
        assert [len(c) for c in chunks] == [7] * 7 + [1]
        assert np.array_equal(np.concatenate([c.records for c in chunks]), arr)

    def test_chunked_dataset_streams_its_own_chunks(self, tmp_path):
        path = str(tmp_path / "blast.bin")
        arr = make_blast_file(path, 50)
        data = ChunkedDataset(path, BLAST_INDEX_SCHEMA, MemoryBudget("512"))
        chunks = list(iter_dataset_chunks(data, 999))  # arg ignored for chunked
        assert all(len(c) <= data.chunk_records for c in chunks)
        assert np.array_equal(np.concatenate([c.records for c in chunks]), arr)

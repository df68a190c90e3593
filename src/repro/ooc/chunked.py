"""Memory-bounded chunked views over the on-disk input formats.

A :class:`ChunkedDataset` stands in for a fully-materialized
:class:`~repro.core.dataset.Dataset` at the head of a workflow: it is the
row-range view of the input file every run reads through
(:class:`~repro.formats.binary.InputFileView`), so it knows its schema,
record count and byte size up front (planning, block decomposition and
checkpoint fingerprints work unchanged), plus what a memory budget needs:
it reads records in budget-sized chunks on demand instead of loading the
file.

Random access works for both input formats:

* binary files are pure offset arithmetic over fixed-width records;
* delimited text files get a sparse *line-offset index* — the byte offset
  of every ``stride``-th record, built in one streaming pass with the
  carry-over buffered reader — so a row range seeks to the nearest
  indexed record and parses forward.  The index is one entry per chunk,
  not per record, keeping its footprint negligible.
"""

from __future__ import annotations

import os
from typing import Iterator, Optional, Union

import numpy as np

from repro.core.dataset import Dataset
from repro.errors import FormatError
from repro.formats.binary import InputFileView
from repro.formats.records import RecordSchema
from repro.ooc.budget import MemoryBudget

PathLike = Union[str, os.PathLike]

#: buffer size of the streaming text scans (independent of the budget —
#: a raw read buffer, not a record working set)
_TEXT_BUFFER = 1 << 16


def _scan_text_offsets(path: PathLike, stride: int) -> tuple[np.ndarray, int]:
    """One streaming pass: record count + byte offset of every stride-th record.

    A line is a record unless :func:`~repro.formats.text.is_blank_line`
    says it is blank, the test every text reader skips lines by, so record
    indexes agree with the materialized dataset.  Each buffer is scanned
    with a fixed number of numpy calls (a line holding a non-ASCII byte and
    nothing else but blanks is decoded to decide); the unterminated tail of
    a buffer is carried into the next one.
    """
    from repro.formats.text import LINE_BYTE_KIND, is_blank_line

    offsets: list[np.ndarray] = []
    num_records = 0
    file_pos = 0  # byte offset of the first unconsumed byte
    tail = b""
    with open(path, "rb") as fh:
        while True:
            chunk = fh.read(_TEXT_BUFFER)
            if not chunk:
                break
            buf = tail + chunk
            data = np.frombuffer(buf, dtype=np.uint8)
            ends = np.flatnonzero(data == 10)
            if not len(ends):
                tail = buf
                continue
            consumed = int(ends[-1]) + 1
            starts = np.concatenate(([0], ends[:-1] + 1))
            # every line here holds at least its newline, so no segment is empty
            kind = np.maximum.reduceat(LINE_BYTE_KIND[data[:consumed]], starts)
            is_record = kind == 2
            for line in np.flatnonzero(kind == 1):
                text = buf[starts[line] : ends[line]].decode("utf-8", "replace")
                is_record[line] = not is_blank_line(text)
            records = starts[is_record]
            offsets.append(file_pos + records[-num_records % stride :: stride])
            num_records += len(records)
            file_pos += consumed
            tail = buf[consumed:]
    if not is_blank_line(tail.decode("utf-8", "replace")):
        if num_records % stride == 0:
            offsets.append(np.array([file_pos]))
        num_records += 1
    if not offsets:
        return np.empty(0, dtype=np.int64), num_records
    return np.concatenate(offsets).astype(np.int64, copy=False), num_records


class ChunkedDataset(InputFileView):
    """The input file's row-range view, read a budget-sized chunk at a time.

    Views are cheap: :meth:`slice_view` copies the view — path, schema,
    chunk size and text index shared — and narrows its row range, which is
    how the block decomposition hands each rank its slice without any rank
    ever materializing the whole input.
    """

    def __init__(self, path: PathLike, schema: RecordSchema, budget: MemoryBudget) -> None:
        self.chunk_records = budget.chunk_records(schema.itemsize)
        #: byte offset of every ``chunk_records``-th record of a text file
        self._text_index: Optional[np.ndarray] = None
        num_records = None  # a binary file counts its own records
        if schema.input_format == "text":
            self._text_index, num_records = _scan_text_offsets(path, self.chunk_records)
        super().__init__(path, schema, num_records)

    # -- range access --------------------------------------------------------

    def _read_records(self, first: int, count: int) -> np.ndarray:
        """Records ``[first, first + count)`` of the file: a text file's are
        parsed forward from the indexed record at or before ``first``."""
        if self._text_index is None:
            return super()._read_records(first, count)
        from repro.formats.text import (
            decode_text_block, is_blank_line, iter_text_lines, parse_line,
            takes_bulk_codec,
        )

        block, skip = divmod(first, self.chunk_records)
        offset = int(self._text_index[block]) if len(self._text_index) else 0
        lines: list[str] = []
        for line in iter_text_lines(self.path, _TEXT_BUFFER, offset=offset):
            if is_blank_line(line):
                continue
            if skip:
                skip -= 1
                continue
            lines.append(line)
            if len(lines) == count:
                break
        if len(lines) != count:
            raise FormatError(
                f"{self.path}: expected {count} records from row {first}, "
                f"found {len(lines)}"
            )
        if takes_bulk_codec(self.schema):
            # the range in one call; anything it does not take (and every
            # error message) is the per-line parser's, as in read_text_array
            records = decode_text_block("".join(lines).encode(), self.schema)
            if records is not None and len(records) == count:
                return records
        return self.schema.to_structured([parse_line(line, self.schema) for line in lines])

    def indexed_rows(self) -> Optional[tuple[np.ndarray, None]]:
        """A binary view's records as a read-only mapping, fetched by row id
        (a narrow sort's input); ``None`` for text, whose rows sit at no
        computable offset."""
        if self._text_index is not None:
            return None
        return super().indexed_rows()

    def chunks(self) -> Iterator[Dataset]:
        """Budget-sized flat datasets covering this view in row order."""
        pos = 0
        while pos < self.num_records:
            length = min(self.chunk_records, self.num_records - pos)
            yield Dataset(
                schema=self.schema, records=self.read_rows(pos, length)
            )
            pos += length

    def column(self, name: str) -> np.ndarray:
        """A full field column (used by sampling; one column, not the records)."""
        parts = [chunk.records[name] for chunk in self.chunks()]
        if not parts:
            return np.empty(0, dtype=self.schema.dtype[name])
        return np.concatenate(parts)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ChunkedDataset({self.schema.id!r}, rows [{self.first_record}, "
            f"{self.first_record + self.num_records}), chunk={self.chunk_records})"
        )


def iter_dataset_chunks(data, chunk_records: int) -> Iterator[Dataset]:
    """Budget-sized chunks of an in-memory *or* chunked flat dataset.

    The shuffle/sort paths call this on whatever a job's source is: a
    source that streams (a :class:`ChunkedDataset`, a spilled sort's
    sorted-runs view) yields its own chunks, an in-memory
    :class:`~repro.core.dataset.Dataset` is sliced without copying the
    whole array at once.
    """
    if hasattr(data, "chunks"):
        yield from data.chunks()
        return
    flat = data.to_flat()
    n = len(flat)
    chunk_records = max(1, int(chunk_records))
    for pos in range(0, n, chunk_records):
        yield Dataset(
            schema=flat.schema,
            records=flat.records[pos : min(pos + chunk_records, n)],
        )

"""Memory-bounded chunked views over the on-disk input formats.

A :class:`ChunkedDataset` stands in for a fully-materialized
:class:`~repro.core.dataset.Dataset` at the head of a workflow: it knows
its schema, record count and byte size up front (so planning, block
decomposition and checkpoint fingerprints work unchanged) but reads
records in budget-sized chunks on demand instead of loading the file.

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
from repro.formats.binary import read_records
from repro.formats.records import RecordSchema
from repro.formats.text import iter_text_lines, parse_line
from repro.ooc.budget import MemoryBudget

PathLike = Union[str, os.PathLike]

#: buffer size of the streaming text scans (independent of the budget —
#: a raw read buffer, not a record working set)
_TEXT_BUFFER = 1 << 16


#: False at the bytes ``bytes.strip`` removes: a line of nothing else is blank
_NOT_BLANK = np.ones(256, dtype=bool)
_NOT_BLANK[list(b" \t\n\r\x0b\x0c")] = False


def _scan_text_offsets(path: PathLike, stride: int) -> tuple[np.ndarray, int]:
    """One streaming pass: record count + byte offset of every stride-th record.

    Blank lines are skipped exactly as :func:`repro.formats.text.read_text`
    skips them, so record indexes agree with the materialized dataset.  Each
    buffer is scanned with a fixed number of numpy calls; the unterminated
    tail of a buffer is carried into the next one.
    """
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
            records = starts[np.logical_or.reduceat(_NOT_BLANK[data[:consumed]], starts)]
            offsets.append(file_pos + records[-num_records % stride :: stride])
            num_records += len(records)
            file_pos += consumed
            tail = buf[consumed:]
    if tail.strip():
        if num_records % stride == 0:
            offsets.append(np.array([file_pos]))
        num_records += 1
    if not offsets:
        return np.empty(0, dtype=np.int64), num_records
    return np.concatenate(offsets).astype(np.int64, copy=False), num_records


class ChunkedDataset:
    """A row-range view over an on-disk record file, read chunk at a time.

    Views are cheap: :meth:`slice_view` shares the file handle-free state
    (path, schema, text index) and narrows ``start``/``num_records``, which
    is how the block decomposition hands each simulated rank its slice
    without any rank ever materializing the whole input.
    """

    def __init__(
        self,
        path: PathLike,
        schema: RecordSchema,
        budget: MemoryBudget,
        *,
        start: int = 0,
        num_records: Optional[int] = None,
        _text_index: Optional[np.ndarray] = None,
        _text_stride: int = 0,
        _total_records: Optional[int] = None,
    ) -> None:
        self.path = os.fspath(path)
        self.schema = schema
        self.budget = budget
        self.chunk_records = budget.chunk_records(schema.itemsize)
        self.start = start
        if schema.input_format == "binary":
            if _total_records is None:
                body = os.path.getsize(self.path) - schema.start_position
                if body < 0 or body % schema.itemsize != 0:
                    raise FormatError(
                        f"{self.path}: not a valid {schema.id!r} file "
                        f"(body {body} B, record {schema.itemsize} B)"
                    )
                _total_records = body // schema.itemsize
            self._text_index = None
            self._text_stride = 0
        elif schema.input_format == "text":
            if _text_index is None:
                _text_stride = max(1, self.chunk_records)
                _text_index, _total_records = _scan_text_offsets(
                    self.path, _text_stride
                )
            self._text_index = _text_index
            self._text_stride = _text_stride
        else:
            raise FormatError(
                f"schema {schema.id!r} has unsupported input format "
                f"{schema.input_format!r} for chunked reading"
            )
        self._total_records = _total_records
        self.num_records = (
            _total_records - start if num_records is None else num_records
        )
        if self.start < 0 or self.start + self.num_records > _total_records:
            raise FormatError(
                f"row range [{start}, {start + self.num_records}) outside "
                f"file of {_total_records} records"
            )

    # -- Dataset-compatible introspection -----------------------------------

    def __len__(self) -> int:
        return self.num_records

    @property
    def nbytes(self) -> int:
        """In-memory structured size of this view (matches ``Dataset.nbytes``)."""
        return self.num_records * self.schema.itemsize

    @property
    def is_packed(self) -> bool:
        """Chunked views are always flat record streams."""
        return False

    # -- range access --------------------------------------------------------

    def slice_view(self, start: int, length: int) -> "ChunkedDataset":
        """A narrower view of rows ``[start, start+length)`` of this view."""
        if start < 0 or length < 0 or start + length > self.num_records:
            raise FormatError(
                f"slice [{start}, {start + length}) outside view of "
                f"{self.num_records} records"
            )
        return ChunkedDataset(
            self.path,
            self.schema,
            self.budget,
            start=self.start + start,
            num_records=length,
            _text_index=self._text_index,
            _text_stride=self._text_stride,
            _total_records=self._total_records,
        )

    def read_rows(self, start: int, length: int) -> np.ndarray:
        """Rows ``[start, start+length)`` of this view as a structured array."""
        if length <= 0:
            return np.empty(0, dtype=self.schema.dtype)
        if start < 0 or start + length > self.num_records:
            raise FormatError(
                f"rows [{start}, {start + length}) outside view of "
                f"{self.num_records} records"
            )
        abs_start = self.start + start
        if self.schema.input_format == "binary":
            return read_records(
                self.path,
                self.schema.start_position + abs_start * self.schema.itemsize,
                length,
                self.schema.dtype,
            )
        return self._read_text_rows(abs_start, length)

    def _read_text_rows(self, abs_start: int, length: int) -> np.ndarray:
        block, skip = divmod(abs_start, self._text_stride)
        offset = int(self._text_index[block]) if len(self._text_index) else 0
        rows: list[tuple] = []
        for line in iter_text_lines(self.path, _TEXT_BUFFER, offset=offset):
            if not line.strip():
                continue
            if skip:
                skip -= 1
                continue
            rows.append(parse_line(line, self.schema))
            if len(rows) == length:
                break
        if len(rows) != length:
            raise FormatError(
                f"{self.path}: expected {length} records from row {abs_start}, "
                f"found {len(rows)}"
            )
        return self.schema.to_structured(rows)

    def chunks(self) -> Iterator[Dataset]:
        """Budget-sized flat datasets covering this view in row order."""
        pos = 0
        while pos < self.num_records:
            length = min(self.chunk_records, self.num_records - pos)
            yield Dataset(
                schema=self.schema, records=self.read_rows(pos, length)
            )
            pos += length

    def materialize(self) -> Dataset:
        """The whole view as one in-memory dataset (fallback paths only)."""
        return Dataset(
            schema=self.schema, records=self.read_rows(0, self.num_records)
        )

    def column(self, name: str) -> np.ndarray:
        """A full field column (used by sampling; one column, not the records)."""
        parts = [chunk.records[name] for chunk in self.chunks()]
        if not parts:
            return np.empty(0, dtype=self.schema.dtype[name])
        return np.concatenate(parts)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ChunkedDataset({self.schema.id!r}, rows [{self.start}, "
            f"{self.start + self.num_records}) of {self._total_records}, "
            f"chunk={self.chunk_records})"
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

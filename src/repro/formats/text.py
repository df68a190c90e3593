"""Delimited text record files (the edge-list format of Figure 5).

Each element is one line; fields are separated by the configured delimiters
(``\\t`` between fields, ``\\n`` terminating the element, by default).

The per-line codec (:func:`parse_line`, :func:`format_line`) handles every
schema and owns every error message; the columnar one (:func:`read_text_array`,
:func:`write_text_array`) moves whole files in a fixed number of calls and
hands whatever it does not fully understand back to the per-line parser.
"""

from __future__ import annotations

import io
import os
from itertools import chain
from typing import Any, Iterator, Optional, Sequence, Union

import numpy as np

from repro.errors import FormatError
from repro.formats.records import RecordSchema
from repro.mapreduce.hadoop import InputFormat, InputSplit, RecordReader

PathLike = Union[str, os.PathLike]


def format_line(row: Sequence[Any], schema: RecordSchema) -> str:
    """Render one record as its delimited text line (including terminator)."""
    delims = schema.effective_delimiters()
    parts = []
    for value, delim in zip(row, delims):
        if isinstance(value, float):
            parts.append(repr(float(value)))  # numpy's float64 repr names its type
        else:
            parts.append(str(value))
        parts.append(delim)
    return "".join(parts)


def parse_line(line: str, schema: RecordSchema) -> tuple[Any, ...]:
    """Parse one line into a typed tuple according to the schema delimiters."""
    delims = schema.effective_delimiters()
    rest = line
    values = []
    for f, delim in zip(schema.fields, delims):
        if delim == "\n":
            token, rest = rest.rstrip("\r\n"), ""
        else:
            token, sep, rest = rest.partition(delim)
            if not sep:
                raise FormatError(
                    f"line {line!r} is missing delimiter {delim!r} after field {f.name!r}"
                )
        try:
            values.append(f.parse_text(token))
        except ValueError as exc:
            raise FormatError(f"cannot parse {token!r} as {f.type} for field {f.name!r}") from exc
    return tuple(values)


def write_text(path: PathLike, rows: Sequence[Sequence[Any]], schema: RecordSchema) -> None:
    """Write records as delimited text."""
    if schema.input_format != "text":
        raise FormatError(f"schema {schema.id!r} is not a text schema")
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(format_line(row, schema))


def iter_text_lines(
    path: PathLike, buffer_size: int = 1 << 16, offset: int = 0
) -> Iterator[str]:
    """Yield complete lines from fixed-size raw reads with a carry-over tail.

    A record that spans two read buffers must be neither split nor dropped:
    the unterminated tail of each buffer is carried into the next read and
    only emitted once its terminator (or end-of-file) arrives.  This is the
    boundary protocol the out-of-core chunk readers rely on, and it holds
    for any ``buffer_size >= 1`` (the boundary-fuzz test sweeps 1..64).

    ``offset`` must be the byte offset of a line start (0 or one past a
    terminator); the chunked readers use it to resume at an indexed record.
    """
    if buffer_size < 1:
        raise FormatError(f"buffer_size must be >= 1, got {buffer_size!r}")
    tail = b""
    with open(path, "rb") as fh:
        if offset:
            fh.seek(offset)
        while True:
            buf = fh.read(buffer_size)
            if not buf:
                break
            buf = tail + buf
            pieces = buf.split(b"\n")
            # the final piece has no terminator yet: carry it into the
            # next buffer instead of emitting a torn record
            tail = pieces.pop()
            for piece in pieces:
                yield piece.decode("utf-8") + "\n"
    if tail:
        yield tail.decode("utf-8")


def iter_text_records(
    path: PathLike,
    schema: RecordSchema,
    buffer_size: int = 1 << 16,
) -> Iterator[tuple[Any, ...]]:
    """Stream typed record tuples using the carry-over buffered reader."""
    if schema.input_format != "text":
        raise FormatError(f"schema {schema.id!r} is not a text schema")
    for line in iter_text_lines(path, buffer_size=buffer_size):
        if line.strip():
            yield parse_line(line, schema)


def read_text(path: PathLike, schema: RecordSchema) -> list[tuple[Any, ...]]:
    """Read a whole delimited text file into typed tuples."""
    return list(iter_text_records(path, schema))


#: the bytes of plain decimal numbers and line ends; a file holding anything
#: else besides its field delimiter is left to the per-line parser
_PLAIN_NUMBER_BYTES = b"0123456789+-.eE\r\n"


def takes_bulk_codec(schema: RecordSchema) -> bool:
    """Whether files of ``schema`` are decoded in bulk.

    True for text schemas whose fields are all numeric, separated by one
    single-character delimiter and terminated by a newline.
    """
    delims = schema.effective_delimiters()
    between = set(delims[:-1])
    return (
        schema.input_format == "text"
        and all(f.type != "string" for f in schema.fields)
        and delims[-1] == "\n"
        and len(between) <= 1
        and all(
            len(d) == 1 and d.isascii() and d.encode() not in _PLAIN_NUMBER_BYTES
            for d in between
        )
    )


def _decode_bulk(data: bytes, schema: RecordSchema) -> Optional[np.ndarray]:
    """``data`` through numpy's C tokenizer, or ``None`` to defer to ``parse_line``.

    Only files of plain decimal numbers are attempted, because on those the
    C parser and ``int()``/``float()`` accept the same tokens with the same
    values; a wrong field count or a bad token fails here and is reported by
    the per-line parser, which names the line, delimiter and field.
    """
    delims = schema.effective_delimiters()
    delimiter = delims[0] if len(delims) > 1 else None
    if data.translate(None, _PLAIN_NUMBER_BYTES + (delimiter or "").encode()):
        return None
    if data.count(b"\r") != data.count(b"\r\n"):
        return None  # loadtxt ends a line at a bare \r, iter_text_lines does not
    if not data.strip(b"\r\n"):
        return np.empty(0, dtype=schema.dtype)
    try:
        return np.loadtxt(
            io.BytesIO(data), dtype=schema.dtype, delimiter=delimiter,
            comments=None, ndmin=1, encoding="latin1",
        )
    except ValueError:
        return None


def read_text_array(path: PathLike, schema: RecordSchema) -> np.ndarray:
    """Read a numeric text file straight into a structured array."""
    if takes_bulk_codec(schema):
        with open(path, "rb") as fh:
            records = _decode_bulk(fh.read(), schema)
        if records is not None:
            return records
    return schema.to_structured(read_text(path, schema))


def format_records(records: np.ndarray, schema: RecordSchema) -> str:
    """Every record's text line, concatenated: ``format_line`` done column-wise."""
    delims = schema.effective_delimiters()
    # numpy renders a float column in the shortest digits that round-trip its
    # own width, as str() of its scalars and repr() of a Python float do
    columns = [
        (records[name].astype(str) if records.dtype[name].kind == "f" else records[name]).tolist()
        for name in schema.field_names
    ]
    template = "".join("%s" + delim.replace("%", "%%") for delim in delims)
    return (template * len(records)) % tuple(chain.from_iterable(zip(*columns)))


def write_text_array(path: PathLike, records: np.ndarray, schema: RecordSchema) -> None:
    """Write a structured array as delimited text, encoded column-wise."""
    if schema.input_format != "text":
        raise FormatError(f"schema {schema.id!r} is not a text schema")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_records(records, schema))


class _TextRecordReader(RecordReader):
    def __init__(self, rows: list[tuple[Any, ...]]) -> None:
        self.rows = rows

    def __iter__(self) -> Iterator[tuple[Any, ...]]:
        return iter(self.rows)


class ByteRangeTextInputFormat(InputFormat):
    """Hadoop's real text-splitting behaviour: byte ranges snapped to lines.

    Hadoop carves a text file into *byte* ranges without looking at content;
    each record reader then skips the partial line at the start of its range
    (the previous reader finished it) and reads past its end boundary to
    complete the final line.  This reader reproduces that protocol exactly,
    so splits can be computed from the file size alone — the property that
    lets huge inputs be split without scanning them.
    """

    def __init__(self, path: PathLike, schema: RecordSchema) -> None:
        if schema.input_format != "text":
            raise FormatError(f"schema {schema.id!r} is not a text schema")
        self.path = os.fspath(path)
        self.schema = schema
        self.file_size = os.path.getsize(self.path)

    def get_splits(self, num_splits: int) -> list[InputSplit]:
        if num_splits < 1:
            raise FormatError(f"num_splits must be >= 1, got {num_splits!r}")
        base, extra = divmod(self.file_size, num_splits)
        splits, start = [], 0
        for i in range(num_splits):
            length = base + (1 if i < extra else 0)
            splits.append(InputSplit(source=self.path, start=start, length=length))
            start += length
        return splits

    def get_record_reader(self, split: InputSplit) -> RecordReader:
        rows: list[tuple[Any, ...]] = []
        end = split.start + split.length
        with open(self.path, "rb") as fh:
            fh.seek(split.start)
            if split.start > 0:
                # the previous split's reader owns the line we land inside
                # (it reads one line past its end boundary); skip it
                fh.readline()
            # Hadoop rule: keep reading while the line *starts* at or before
            # our end boundary — the final line may extend past it
            while fh.tell() <= end:
                raw = fh.readline()
                if not raw:
                    break
                line = raw.decode("utf-8")
                if line.strip():
                    rows.append(parse_line(line, self.schema))
        return _TextRecordReader(rows)


class TextInputFormat(InputFormat):
    """Hadoop-style reader over a delimited text file.

    Splits are in units of records (lines); like Hadoop's ``TextInputFormat``
    the reader never hands half a line to a mapper.
    """

    def __init__(self, path: PathLike, schema: RecordSchema) -> None:
        if schema.input_format != "text":
            raise FormatError(f"schema {schema.id!r} is not a text schema")
        self.path = os.fspath(path)
        self.schema = schema
        self._rows = read_text(self.path, schema)

    @property
    def num_records(self) -> int:
        return len(self._rows)

    def get_splits(self, num_splits: int) -> list[InputSplit]:
        if num_splits < 1:
            raise FormatError(f"num_splits must be >= 1, got {num_splits!r}")
        base, extra = divmod(self.num_records, num_splits)
        splits, start = [], 0
        for i in range(num_splits):
            length = base + (1 if i < extra else 0)
            splits.append(InputSplit(source=self.path, start=start, length=length))
            start += length
        return splits

    def get_record_reader(self, split: InputSplit) -> RecordReader:
        return _TextRecordReader(self._rows[split.start : split.start + split.length])

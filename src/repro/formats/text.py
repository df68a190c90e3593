"""Delimited text record files (the edge-list format of Figure 5).

Each element is one line; fields are separated by the configured delimiters
(``\\t`` between fields, ``\\n`` terminating the element, by default).

The per-line codec (:func:`parse_line`, :func:`format_line`) handles every
schema and owns every error message.  The columnar one works on the bytes
with numpy, in a fixed number of array passes per column:
:func:`decode_text_block` turns newline-aligned byte blocks into records
(:func:`read_text_array` feeds it the file ``_BLOCK_BYTES`` at a time) and
hands whatever it does not fully accept back to the per-line parser;
:func:`encode_text_block` renders records as one cell matrix of bytes, which
:func:`write_text_array` writes in one call.  :func:`takes_bulk_codec` says
which schemas take it, in both directions.
"""

from __future__ import annotations

import os
from typing import Any, Iterator, Optional, Sequence, Union

import numpy as np

from repro.errors import FormatError
from repro.formats.records import RecordSchema

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


def is_blank_line(line: str) -> bool:
    """Whether a line holds no record: nothing but what ``str.strip`` removes
    (ASCII and Unicode whitespace, the C0 separators ``\\x1c``-``\\x1f``).
    Every reader of a text file skips exactly these lines, and the chunked
    view's offset scan counts exactly the others."""
    return not line.strip()


#: what one byte says of the line that holds it: 0 blank if every byte is
#: (an ASCII byte :func:`is_blank_line` strips), 2 a record, 1 undecided (a
#: byte of a multi-byte character: the decoded line decides)
LINE_BYTE_KIND = np.array(
    [0 if is_blank_line(chr(b)) else 2 for b in range(128)] + [1] * 128, dtype=np.uint8
)


def iter_text_records(
    path: PathLike,
    schema: RecordSchema,
    buffer_size: int = 1 << 16,
) -> Iterator[tuple[Any, ...]]:
    """Stream typed record tuples using the carry-over buffered reader."""
    if schema.input_format != "text":
        raise FormatError(f"schema {schema.id!r} is not a text schema")
    for line in iter_text_lines(path, buffer_size=buffer_size):
        if not is_blank_line(line):
            yield parse_line(line, schema)


def read_text(path: PathLike, schema: RecordSchema) -> list[tuple[Any, ...]]:
    """Read a whole delimited text file into typed tuples."""
    return list(iter_text_records(path, schema))


#: the bytes of plain decimal numbers and line ends: no field delimiter is one
_PLAIN_NUMBER_BYTES = b"0123456789+-.eE\r\n"

#: bytes per decode block of :func:`read_text_array`: the decoder's temporaries
#: scale with this, not with the file
_BLOCK_BYTES = 1 << 20

#: pad bytes ahead of a block, so the 8-byte words ending at its first tokens
#: (up to three per token) stay inside the buffer
_PAD = 24

_NL, _PLUS, _MINUS = ord("\n"), ord("+"), ord("-")

#: little-endian word constants of the eight-digit kernel
_ASCII_ZEROS = np.uint64(0x3030303030303030)
_HIGH_NIBBLES = np.uint64(0xF0F0F0F0F0F0F0F0)
_SIXES = np.uint64(0x0606060606060606)
#: ``_KEEP[g]`` clears the ``g`` low (leftmost in the text) bytes of a word
_KEEP = np.array([(2**64 - 1) << (8 * g) & (2**64 - 1) for g in range(9)], dtype=np.uint64)

#: True at the bytes a float token may hold, and at the NUL that pads its cell
_FLOAT_CELL_BYTES = np.zeros(256, dtype=bool)
_FLOAT_CELL_BYTES[list(b"0123456789+-.eE\0")] = True
#: longest float token decoded in bulk (a shortest round-trip double has 24)
_MAX_FLOAT_WIDTH = 32


def takes_bulk_codec(schema: RecordSchema) -> bool:
    """Whether files of ``schema`` are decoded and encoded in bulk.

    True for text schemas whose fields are all numeric, separated by one
    single-character delimiter and terminated by a newline.  The delimiter
    may not be a byte of a number, a line end or NUL (the encoder's pad).
    """
    delims = schema.effective_delimiters()
    between = set(delims[:-1])
    return (
        schema.input_format == "text"
        and all(f.type != "string" for f in schema.fields)
        and delims[-1] == "\n"
        and len(between) <= 1
        and all(
            len(d) == 1 and d.isascii() and d.encode() not in _PLAIN_NUMBER_BYTES + b"\0"
            for d in between
        )
    )


def _eight_digits(words: np.ndarray) -> np.ndarray:
    """The value of words of eight digit bytes 0..9, the most significant first
    in memory, in place: three multiply-shift steps fold bytes into pairs,
    pairs into quads and quads into the 8-digit value."""
    words *= 2561  # 10 * 2**8 + 1
    words >>= 8
    words &= 0x00FF00FF00FF00FF
    words *= 6553601  # 100 * 2**16 + 1
    words >>= 16
    words &= 0x0000FFFF0000FFFF
    words *= 42949672960001  # 10000 * 2**32 + 1
    words >>= 32
    return words


def _decode_ints(
    buf: np.ndarray, ends: np.ndarray, lens: np.ndarray, dtype: np.dtype, signed: bool
) -> Optional[np.ndarray]:
    """An integer column from its tokens ``buf[ends - lens:ends]``, or ``None``.

    A token is an optional sign and 1-19 ASCII digits: each 8-digit group
    is one unaligned little-endian word read ending at the token's end (the
    bytes left of the token masked off) and folded by :func:`_eight_digits`;
    a value outside ``dtype`` is declined.
    """
    if signed:
        first = buf[ends - lens]
        neg = first == _MINUS
        digits = lens - (neg | (first == _PLUS))
    else:
        neg, digits = None, lens
    fewest, most = int(digits.min()), int(digits.max())
    if fewest < 1 or most > 19:
        return None
    # every 8-byte window of the buffer, as an unaligned uint64
    words = np.ndarray((len(buf) - 7,), dtype="<u8", buffer=buf, strides=(1,))
    magnitude = None
    for i in range((most + 7) // 8):
        word = words[ends - 8 * (i + 1)]
        word ^= _ASCII_ZEROS  # '0'..'9' -> 0..9
        if fewest < 8 * (i + 1):
            garbage = 8 * (i + 1) - digits  # bytes of the word left of the token
            if most > 8:
                np.clip(garbage, 0, 8, out=garbage)
            word &= _KEEP[garbage]
        if ((word | (word + _SIXES)) & _HIGH_NIBBLES).any():
            return None  # a byte that is not a digit
        value = _eight_digits(word)
        magnitude = value if magnitude is None else magnitude + value * np.uint64(10 ** (8 * i))
    top = np.iinfo(dtype).max
    if most >= len(str(top)):
        limit = np.uint64(top) if neg is None else neg + np.uint64(top)
        if (magnitude > limit).any():
            return None  # out of range: the per-line parser names the token
    values = magnitude.view(np.int64)
    if neg is not None:
        np.negative(values, out=values, where=neg)
    return values


def _decode_floats(buf: np.ndarray, ends: np.ndarray, lens: np.ndarray) -> Optional[np.ndarray]:
    """A float64 column from its tokens: one NUL-padded fixed-width ``S`` cell
    per token, cast by numpy's parser (which takes what ``float()`` takes
    from these bytes, with the same value), or ``None``."""
    width = int(lens.max())
    if width > _MAX_FLOAT_WIDTH:
        return None
    index = (ends - lens)[:, None] + np.arange(width)
    cells = buf.take(index, mode="clip")
    cells[index >= ends[:, None]] = 0
    if not _FLOAT_CELL_BYTES[cells].all():
        return None
    try:
        return cells.view(f"S{width}").ravel().astype(np.float64)
    except ValueError:
        return None


def decode_text_block(data: bytes, schema: RecordSchema) -> Optional[np.ndarray]:
    """The records of ``data``, whole lines of a :func:`takes_bulk_codec`
    schema, or ``None`` to defer to :func:`parse_line`.

    One mask and ``flatnonzero`` find every separator; empty lines are
    dropped, CRLF is folded to LF, and every line must hold one token per
    field, the delimiter between them and ``\n`` last.  Each column then
    goes through :func:`_decode_ints` or :func:`_decode_floats`.  What they
    do not fully accept -- a bad token, a wrong field count, an integer out
    of its field's range, a whitespace-only line -- returns ``None``, and the
    per-line parser, the reference, reads the bytes and names the error.
    """
    if b"\r" in data:
        # a \r left over is in a token, and no kernel takes it
        data = data.replace(b"\r\n", b"\n")
    delims = schema.effective_delimiters()
    k = len(delims)
    # the bytes behind _PAD pad bytes, ending in one \n
    size = _PAD + len(data) + (not data.endswith(b"\n"))
    buf = np.zeros(size, dtype=np.uint8)
    buf[_PAD : _PAD + len(data)] = np.frombuffer(data, dtype=np.uint8)
    buf[-1] = _NL
    is_sep = buf == _NL
    if k > 1:
        is_sep |= buf == ord(delims[0])
    ends = np.flatnonzero(is_sep)
    lens = np.empty_like(ends)
    lens[0] = ends[0] - _PAD
    np.subtract(ends[1:], ends[:-1], out=lens[1:])
    lens[1:] -= 1
    is_nl = buf[ends] == _NL
    if lens.min() == 0:
        # an empty line is blank; any other empty token is a bad line
        blank = is_nl & (lens == 0)
        blank[1:] &= is_nl[:-1]
        keep = ~blank
        ends, lens, is_nl = ends[keep], lens[keep], is_nl[keep]
        if not len(ends):
            return np.empty(0, dtype=schema.dtype)
        if lens.min() == 0:
            return None
    if len(ends) % k or np.count_nonzero(is_nl) * k != len(ends) or not is_nl[k - 1 :: k].all():
        return None
    signed = b"-" in data or b"+" in data
    records = np.empty(len(ends) // k, dtype=schema.dtype)
    for j, f in enumerate(schema.fields):
        if f.type in ("integer", "long"):
            column = _decode_ints(buf, ends[j::k], lens[j::k], f.numpy_dtype, signed)
        else:
            column = _decode_floats(buf, ends[j::k], lens[j::k])
        if column is None:
            return None
        records[f.name] = column
    return records


def _line_blocks(path: PathLike) -> Iterator[bytes]:
    """The file in runs of whole lines of about ``_BLOCK_BYTES`` each (a line
    longer than a block is one run; the last may lack its terminator)."""
    tail = b""
    with open(path, "rb") as fh:
        while True:
            buf = fh.read(_BLOCK_BYTES)
            if not buf:
                break
            buf = tail + buf
            cut = buf.rfind(b"\n") + 1
            tail = buf[cut:]
            if cut:
                yield buf[:cut]
    if tail:
        yield tail


def read_text_array(path: PathLike, schema: RecordSchema) -> np.ndarray:
    """Read a numeric text file straight into a structured array.

    :func:`takes_bulk_codec` schemas are decoded block by block with
    :func:`decode_text_block`; a block it declines sends the whole file to
    the per-line parser, which reads it as before or raises its error.
    """
    if takes_bulk_codec(schema):
        blocks = []
        for data in _line_blocks(path):
            records = decode_text_block(data, schema)
            if records is None:
                break
            blocks.append(records)
        else:
            return np.concatenate(blocks) if blocks else np.empty(0, dtype=schema.dtype)
    return schema.to_structured(read_text(path, schema))


def _int_cells(column: np.ndarray) -> np.ndarray:
    """``str()`` of every integer as a position-major ``uint8`` matrix: a sign
    row if any is negative, then the digits right-aligned, NUL before them."""
    magnitude = np.abs(column.astype(np.int64)).view(np.uint64)  # |-2**63| wraps to 2**63
    top = int(magnitude.max()) if len(column) else 0
    width = len(str(top))
    if top < 2**32:
        magnitude = magnitude.astype(np.uint32)
    neg = column < 0
    sign = int(neg.any())
    cells = np.empty((sign + width, len(column)), dtype=np.uint8)
    if sign:
        np.multiply(neg, _MINUS, out=cells[0], casting="unsafe")
    for row in range(sign + width - 1, sign - 1, -1):
        quotient = magnitude // 10
        np.add(magnitude - quotient * 10, ord("0"), out=cells[row], casting="unsafe")
        if row < sign + width - 1:
            cells[row][magnitude == 0] = 0  # a leading zero
        magnitude = quotient
    return cells


def _float_cells(column: np.ndarray) -> np.ndarray:
    """numpy's shortest round-trip digits of every float (``str()`` of its
    scalars), as a position-major ``uint8`` matrix padded with NUL."""
    text = column.astype(str).astype("S")
    return text.view(np.uint8).reshape(len(column), text.itemsize).T


def encode_text_block(records: np.ndarray, schema: RecordSchema) -> bytes:
    """Every record's text line, concatenated: ``format_line`` done column-wise.

    The lines are one position-major ``uint8`` cell matrix -- each column's
    cells, then a row of its delimiter -- transposed once into record order,
    with the NUL pad bytes dropped.
    """
    rows = []
    for f, delim in zip(schema.fields, schema.effective_delimiters()):
        column = records[f.name]
        rows.append(_float_cells(column) if column.dtype.kind == "f" else _int_cells(column))
        rows.append(np.full((1, len(records)), ord(delim), dtype=np.uint8))
    return np.concatenate(rows).T.tobytes().translate(None, b"\0")


def write_text_array(path: PathLike, records: np.ndarray, schema: RecordSchema) -> None:
    """Write a structured array as delimited text in one ``write``: encoded
    column-wise for :func:`takes_bulk_codec` schemas, line by line with
    :func:`format_line` for any other."""
    if schema.input_format != "text":
        raise FormatError(f"schema {schema.id!r} is not a text schema")
    if takes_bulk_codec(schema):
        data = encode_text_block(records, schema)
    else:
        data = "".join(format_line(tuple(r), schema) for r in records).encode()
    with open(path, "wb") as fh:
        fh.write(data)

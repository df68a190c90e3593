"""The wire protocol of the streaming partition service.

Line-JSON carries every verb: one request per line, one response per
line, UTF-8 JSON objects.  Five verbs (see ``docs/streaming-service.md``
for the full reference):

* ``hello``    — ``{"op": "hello"}``: the input schema's record dtype and
  whether this daemon takes binary append frames;
* ``append``   — ``{"op": "append", "rows": [[...], ...]}``: route an
  incremental record batch into the hot partitions;
* ``query``    — ``{"op": "query"}`` (optionally ``"key": k``): partition
  statistics, generation, and the partition a key would route to;
* ``snapshot`` — ``{"op": "snapshot"}``: atomically publish the current
  partitions to the versioned on-disk snapshot store;
* ``drain``    — ``{"op": "drain"}``: stop admitting appends, finish the
  queue, flush a final snapshot, and shut the daemon down.

``append`` has a second, binary encoding for fixed-width schemas: the
byte :data:`FRAME_MARKER` (never the start of a JSON line), then one frame
of the run-file layout (:mod:`repro.ooc.runfile`) — crc32-framed raw
little-endian records, no keys, tag 0.  A client may send it once
``hello`` answered ``"frames": true``; the records go from the socket to
the partitions without ever being Python objects.  A frame is never
trusted: the size cap is checked before the payload is read, and crc and
length before any byte is viewed as a record.

Responses are always line-JSON and carry ``"ok"``; failures add an
HTTP-flavored ``"code"`` (400 malformed, 429 over admission capacity, 503
draining) and an ``"error"`` message.  The codes are part of the
contract: clients key retry behavior off 429 (back off and retry) versus
400/503 (don't).
"""

from __future__ import annotations

import json
from typing import Any, Optional, Sequence, Union

import numpy as np

from repro.errors import SchemaError
from repro.formats.records import RecordSchema
from repro.ooc.runfile import (
    FRAME,
    RunFileError,
    dtype_descr,
    pack_frame_header,
    verify_frame,
)

#: what ``append`` takes: rows in the input schema's field order, or a
#: structured array of them
Rows = Union[np.ndarray, Sequence[Sequence[Any]]]

#: request verbs the server understands
VERBS = ("append", "query", "snapshot", "drain", "hello")

#: longest accepted request line — and frame payload — in bytes
#: (socket-reader backpressure bound)
MAX_LINE = 8 * 1024 * 1024

#: first byte of a binary append frame; 0xFF occurs nowhere in UTF-8, so no
#: JSON line can start with it
FRAME_MARKER = b"\xff"

#: the two ``append`` encodings, as metrics and spans name them
JSON_ROWS = "json"
FRAMES = "frames"

#: rejection codes (HTTP-flavored so clients can reuse retry conventions)
BAD_REQUEST = 400
OVERLOADED = 429
DRAINING = 503


class ProtocolError(ValueError):
    """A malformed request: a line that is not JSON, not an object or names
    no known verb, or a frame that fails its size, crc or length check."""


def decode_request(line: bytes) -> dict[str, Any]:
    """Parse one request line into its verb dict, validating the envelope."""
    try:
        obj = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"request is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ProtocolError(f"request must be a JSON object, got {type(obj).__name__}")
    op = obj.get("op")
    if op not in VERBS:
        raise ProtocolError(
            f"unknown op {op!r}; expected one of {', '.join(VERBS)}"
        )
    if op == "append":
        rows = obj.get("rows")
        if not isinstance(rows, list) or not rows:
            raise ProtocolError("append needs a non-empty 'rows' list")
    return obj


def wire_dtype(schema: RecordSchema) -> Optional[np.dtype]:
    """The record dtype appends to ``schema`` are packed in, or None.

    Only fixed-width, object-free layouts travel as frames; a schema with a
    ``string`` field has no such dtype.
    """
    try:
        dtype = schema.dtype
    except SchemaError:
        return None
    return None if dtype.hasobject else dtype


def hello(dtype: Optional[np.dtype]) -> dict[str, Any]:
    """The ``hello`` response for a daemon whose appends pack as ``dtype``."""
    return ok("hello", frames=dtype is not None, dtype=dtype_descr(dtype))


def rows_to_records(rows: Rows, dtype: Optional[np.dtype]) -> np.ndarray:
    """Rows (or a record array) as one 1-D array of ``dtype``.

    Every row becomes a tuple first: numpy reads a list of *lists* as a 2-D
    array and broadcasts each scalar over all fields.  Raises ``TypeError``
    / ``ValueError`` / ``OverflowError`` for rows that do not fit.
    """
    if dtype is None:
        raise ProtocolError("the input schema has no fixed-width record layout")
    if isinstance(rows, np.ndarray):
        if rows.dtype == dtype and rows.ndim == 1:
            return rows
        rows = rows.tolist()
    return np.array([tuple(r) for r in rows], dtype=dtype)


#: ``struct`` codes of the little-endian numeric field types a row may hold
_STRUCT_CODES = {"i1": "b", "i2": "h", "i4": "i", "i8": "q", "u1": "B",
                 "u2": "H", "u4": "I", "u8": "Q", "f4": "f", "f8": "d"}


def row_struct_codes(dtype: np.dtype) -> Optional[str]:
    """``struct`` codes packing one row as ``dtype`` lays a record out, or None.

    Only a flat, unpadded run of little-endian numeric fields has them; any
    other layout is packed by numpy (:func:`rows_to_records`).
    """
    fields = [(name, dtype[name]) for name in dtype.names or ()]
    codes = [_STRUCT_CODES.get(field.str.lstrip("<|")) for _, field in fields]
    if not codes or None in codes or np.dtype(fields) != dtype:
        return None
    return "".join(codes)


def frame_bytes(num_records: int, payload: Any) -> bytes:
    """Marker, frame header and ``payload`` (a bytes-like) in one copy."""
    return b"".join((FRAME_MARKER, pack_frame_header(num_records, payload), payload))


def encode_frame(records: np.ndarray) -> bytes:
    """One ``append`` as wire bytes: marker, frame header, raw records."""
    return frame_bytes(len(records), np.ascontiguousarray(records).view(np.uint8).data)


def frame_payload_size(head: bytes) -> int:
    """Payload bytes the frame header ``head`` announces.

    Refuses a payload over :data:`MAX_LINE` here, before any of it is read.
    """
    _crc, _nrec, _tag, key_nbytes, value_nbytes = FRAME.unpack(head)
    size = key_nbytes + value_nbytes
    if size > MAX_LINE:
        raise ProtocolError(f"frame payload of {size} bytes exceeds {MAX_LINE}")
    return size


def decode_frame(head: bytes, payload: bytes, dtype: Optional[np.dtype]) -> np.ndarray:
    """The records of one fully received frame, as a view of ``payload``.

    ``np.frombuffer`` runs only after the crc, the keyless shape, the
    record count and ``payload == n x itemsize`` all hold.
    """
    if dtype is None:
        raise ProtocolError("this daemon's input schema does not take frames")
    crc, num_records, _tag, key_nbytes, _value_nbytes = FRAME.unpack(head)
    if key_nbytes:
        raise ProtocolError("an append frame carries no key bytes")
    if num_records == 0:
        raise ProtocolError("append needs a non-empty frame")
    try:
        verify_frame(crc, num_records, b"", payload, dtype.itemsize, "append")
    except RunFileError as exc:
        raise ProtocolError(str(exc)) from exc
    return np.frombuffer(payload, dtype=dtype)


def encode_response(payload: dict[str, Any]) -> bytes:
    """Serialize one response dict to its wire line (newline-terminated)."""
    return (json.dumps(payload, separators=(",", ":")) + "\n").encode("utf-8")


def ok(op: str, **fields: Any) -> dict[str, Any]:
    """A success response envelope for ``op``."""
    out: dict[str, Any] = {"ok": True, "op": op}
    out.update(fields)
    return out


def error(code: int, message: str, op: Optional[str] = None) -> dict[str, Any]:
    """A failure response envelope carrying ``code`` and ``message``."""
    out: dict[str, Any] = {"ok": False, "code": code, "error": message}
    if op is not None:
        out["op"] = op
    return out


__all__ = [
    "BAD_REQUEST",
    "DRAINING",
    "FRAMES",
    "FRAME_MARKER",
    "JSON_ROWS",
    "MAX_LINE",
    "OVERLOADED",
    "ProtocolError",
    "Rows",
    "VERBS",
    "decode_frame",
    "decode_request",
    "encode_frame",
    "encode_response",
    "error",
    "frame_bytes",
    "frame_payload_size",
    "hello",
    "ok",
    "row_struct_codes",
    "rows_to_records",
    "wire_dtype",
]

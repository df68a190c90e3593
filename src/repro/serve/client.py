"""A small blocking client for the streaming partition daemon.

Speaks the protocol of :mod:`repro.serve.protocol` over a plain TCP
socket; one request at a time per connection (the server enforces the
same).  Used by the CLI smoke path, the benchmarks, and tests — and small
enough to crib for an application client in any language: connect, write
one JSON line, read one JSON line back.

``connect`` asks ``hello`` once.  A daemon that takes frames gets every
``append`` as one crc-framed block of raw records (packed once — by one
``struct.pack`` where the dtype allows, else by numpy — no JSON); a daemon
that does not — an older one answers ``hello`` with ``400 unknown op``, a
``string`` schema answers ``"frames": false`` — gets JSON rows, as do rows
the client cannot pack, so the server's ``400`` explains them.
"""

from __future__ import annotations

import json
import socket
import struct
from itertools import chain
from typing import Any, Optional

import numpy as np

from repro.ooc.runfile import descr_dtype
from repro.serve import protocol
from repro.serve.protocol import Rows
from repro.serve.state import ServeError


class ServeClient:
    """One connection to a :class:`~repro.serve.server.PartitionServer`."""

    def __init__(self, host: str, port: int, timeout: float = 30.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._sock: Optional[socket.socket] = None
        self._file: Any = None
        #: the record dtype appends are framed in; None sends JSON rows
        self._frame_dtype: Optional[np.dtype] = None
        #: ``struct`` codes of one row of it; None leaves the packing to numpy
        self._row_codes: Optional[str] = None

    # -- connection management ----------------------------------------------

    def connect(self) -> "ServeClient":
        """Open the TCP connection and negotiate the append encoding.

        Idempotent; returns self for chaining.
        """
        if self._sock is None:
            self._sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout
            )
            self._file = self._sock.makefile("rb")
            answer = self.request({"op": "hello"})
            if answer.get("ok") and answer.get("frames"):
                self._frame_dtype = descr_dtype(answer["dtype"])
                self._row_codes = protocol.row_struct_codes(self._frame_dtype)
        return self

    def close(self) -> None:
        """Close the connection; safe to call repeatedly."""
        if self._file is not None:
            try:
                self._file.close()
            except OSError:
                pass
            self._file = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def __enter__(self) -> "ServeClient":
        return self.connect()

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # -- protocol ------------------------------------------------------------

    def request(self, payload: dict[str, Any]) -> dict[str, Any]:
        """Send one request object; return the decoded response object."""
        self.connect()
        line = json.dumps(payload, separators=(",", ":")) + "\n"
        return self._roundtrip(line.encode("utf-8"))

    def _roundtrip(self, data: bytes) -> dict[str, Any]:
        self._sock.sendall(data)
        raw = self._file.readline()
        if not raw:
            raise ServeError("server closed the connection mid-request")
        return json.loads(raw.decode("utf-8"))

    def append(self, rows: Rows) -> dict[str, Any]:
        """Route a batch of records; returns the server's response.

        ``rows`` is a sequence of rows or a structured array in the input
        schema's field order.
        """
        self.connect()
        frame = self._frame(rows) if self._frame_dtype is not None else None
        if frame is not None:
            return self._roundtrip(frame)
        if isinstance(rows, np.ndarray):
            rows = rows.tolist()
        return self.request({"op": "append", "rows": rows})

    def _frame(self, rows: Rows) -> Optional[bytes]:
        """``rows`` as one append frame; None when they cannot be packed here."""
        codes = self._row_codes
        if codes is not None and not isinstance(rows, np.ndarray):
            try:
                # struct checks every value's type and range and the total
                # count; the widths keep a short row from borrowing a long one's
                if set(map(len, rows)) <= {len(codes)}:
                    return protocol.frame_bytes(len(rows), struct.pack(
                        "<" + codes * len(rows), *chain.from_iterable(rows)))
            except (struct.error, TypeError):
                pass
        try:
            return protocol.encode_frame(protocol.rows_to_records(rows, self._frame_dtype))
        except (TypeError, ValueError, OverflowError):
            return None  # send the rows instead: the server's 400 says why

    def query(self, key: Any = None) -> dict[str, Any]:
        """Partition stats and routing info (optionally for one ``key``)."""
        payload: dict[str, Any] = {"op": "query"}
        if key is not None:
            payload["key"] = key
        return self.request(payload)

    def snapshot(self) -> dict[str, Any]:
        """Ask the daemon to publish a versioned on-disk snapshot."""
        return self.request({"op": "snapshot"})

    def drain(self) -> dict[str, Any]:
        """Gracefully shut the daemon down; returns the drain response."""
        return self.request({"op": "drain"})

    def append_ok(self, rows: Rows) -> dict[str, Any]:
        """:meth:`append`, raising :class:`ServeError` on any rejection."""
        response = self.append(rows)
        if not response.get("ok"):
            raise ServeError(
                f"append rejected ({response.get('code')}): {response.get('error')}"
            )
        return response


#: re-exported so client users can branch on rejection codes without
#: importing the protocol module separately
OVERLOADED = protocol.OVERLOADED
DRAINING = protocol.DRAINING
BAD_REQUEST = protocol.BAD_REQUEST

__all__ = ["BAD_REQUEST", "DRAINING", "OVERLOADED", "ServeClient"]

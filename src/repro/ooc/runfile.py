"""Spill run files: the columnar on-disk layout with crc32 framing.

A *run file* is the unit both the external sort and the spillable shuffle
stage on disk.  The layout keeps data columnar — each frame stores the
keys array and the values array back-to-back as raw little-endian numpy
bytes — so a frame reads straight back into the arrays it came from with
zero parsing, exactly like the in-memory :class:`KVBatch` split into
bounded pieces.

Layout::

    header line     one JSON object + '\\n'
                    {"magic": "papar-run", "version": 1,
                     "key_dtype": <descr|null>, "value_dtype": <descr>}
    frame*          <u4 crc32> <u4 num_records> <u8 tag>
                    <u4 key_nbytes> <u8 value_nbytes>
                    key bytes .. value bytes

The crc32 covers the concatenated key+value payload, so a torn or
corrupted spill is detected at re-read time (:class:`RunCorruptionError`)
rather than silently partitioning garbage — the same checksum discipline
the fault-injection transport uses.  ``tag`` is a free u8; a distribute
frame carries its destination partition there.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass
from typing import Any, Iterator, Optional, Union

import numpy as np

from repro.errors import PaParError
from repro.formats.binary import _raw_bytes

PathLike = Union[str, os.PathLike]

_MAGIC = "papar-run"
_VERSION = 1
#: frame header: crc32, num_records, tag, key_nbytes, value_nbytes
FRAME = struct.Struct("<IIQIQ")


class RunFileError(PaParError):
    """A malformed run file (bad magic, version, or truncated frame)."""


class RunCorruptionError(RunFileError):
    """A frame whose payload does not match its crc32."""


def dtype_descr(dtype: Optional[np.dtype]):
    """A dtype as the JSON-safe ``.npy`` descr (a run header, a ``hello`` reply)."""
    if dtype is None:
        return None
    return np.lib.format.dtype_to_descr(np.dtype(dtype))


def descr_dtype(descr) -> Optional[np.dtype]:
    """The dtype a :func:`dtype_descr` value (after a JSON round trip) names."""
    if descr is None:
        return None
    return np.lib.format.descr_to_dtype(
        [tuple(f) for f in descr] if isinstance(descr, list) else descr
    )


def pack_frame_header(num_records: int, value_bytes, key_bytes=b"", tag: int = 0) -> bytes:
    """The header that frames ``key_bytes`` + ``value_bytes`` (bytes-likes).

    Shared by :class:`RunWriter` and the ``serve`` append frame
    (:mod:`repro.serve.protocol`): one layout on disk and on the wire.
    """
    crc = zlib.crc32(value_bytes, zlib.crc32(key_bytes))
    return FRAME.pack(crc, num_records, tag, len(key_bytes), len(value_bytes))


def verify_frame(
    crc: int, num_records: int, key_buf, value_buf, value_itemsize: int, where: str
) -> None:
    """Raise unless a frame's payload (byte buffers) is what its header says.

    The crc runs first, so a length that disagrees is reported as such only
    for bytes known to be the ones written.  Nothing may be viewed as
    records before this returns.
    """
    actual = zlib.crc32(value_buf, zlib.crc32(key_buf))
    if actual != crc:
        raise RunCorruptionError(
            f"{where}: frame crc mismatch "
            f"(stored {crc:#010x}, computed {actual:#010x})"
        )
    if len(value_buf) != num_records * value_itemsize:
        raise RunFileError(
            f"{where}: frame declares {num_records} records of "
            f"{value_itemsize} bytes, payload holds {len(value_buf)} bytes"
        )


@dataclass(frozen=True)
class SpillManifest:
    """What a finished run file is described by (the all-to-all payload).

    Shipping the manifest instead of the data is the point of spilling:
    the receiving rank streams the frames back from disk instead of ever
    holding the whole run in memory.
    """

    path: str
    num_records: int
    nbytes: int
    frames: int
    #: producing rank (source ordering on the merge side)
    source: int = 0

    def as_dict(self) -> dict:
        """JSON/pickle-friendly form (recorded in checkpoints)."""
        return {
            "path": self.path,
            "num_records": self.num_records,
            "nbytes": self.nbytes,
            "frames": self.frames,
            "source": self.source,
        }


@dataclass
class Frame:
    """One decoded frame: aligned key/value arrays plus the routing tag."""

    values: np.ndarray
    keys: Optional[np.ndarray] = None
    tag: int = 0

    def __len__(self) -> int:
        return len(self.values)

    @property
    def nbytes(self) -> int:
        """Payload bytes of this frame (keys + values)."""
        return self.values.nbytes + (self.keys.nbytes if self.keys is not None else 0)


class RunWriter:
    """Append frames of (keys, values) arrays to one run file."""

    def __init__(
        self,
        path: PathLike,
        value_dtype: np.dtype,
        key_dtype: Optional[np.dtype] = None,
        source: int = 0,
    ) -> None:
        self.path = os.fspath(path)
        self.value_dtype = np.dtype(value_dtype)
        self.key_dtype = np.dtype(key_dtype) if key_dtype is not None else None
        self.source = source
        self.num_records = 0
        self.nbytes = 0
        self.frames = 0
        self._fh = open(self.path, "wb")
        header = {
            "magic": _MAGIC,
            "version": _VERSION,
            "key_dtype": dtype_descr(self.key_dtype),
            "value_dtype": dtype_descr(self.value_dtype),
        }
        self._fh.write(json.dumps(header).encode("utf-8") + b"\n")

    def append(
        self,
        values: np.ndarray,
        keys: Optional[np.ndarray] = None,
        tag: int = 0,
    ) -> None:
        """Write one crc32-framed block of aligned key/value arrays.

        The arrays' own buffers go to the file and under the crc — a copy is
        made only to convert the dtype or to make a strided array contiguous.
        """
        value_bytes = _raw_bytes(values, self.value_dtype)
        key_bytes: Any = b""
        if self.key_dtype is not None:
            if keys is None:
                raise RunFileError(f"run {self.path}: writer expects a keys array")
            if len(keys) != len(values):
                raise RunFileError(
                    f"run {self.path}: {len(keys)} keys vs {len(values)} values"
                )
            key_bytes = _raw_bytes(keys, self.key_dtype)
        self._fh.write(pack_frame_header(len(values), value_bytes, key_bytes, tag))
        self._fh.write(key_bytes)
        self._fh.write(value_bytes)
        self.num_records += len(values)
        self.nbytes += len(key_bytes) + len(value_bytes)
        self.frames += 1

    def close(self) -> SpillManifest:
        """Flush, close, and describe the finished run."""
        self._fh.close()
        return SpillManifest(
            path=self.path,
            num_records=self.num_records,
            nbytes=self.nbytes,
            frames=self.frames,
            source=self.source,
        )

    def __enter__(self) -> "RunWriter":
        return self

    def __exit__(self, *exc) -> None:
        self._fh.close()


class RunReader:
    """Stream the frames of one run file back, verifying each crc32."""

    def __init__(self, path: PathLike) -> None:
        self.path = os.fspath(path)
        self._fh = open(self.path, "rb")
        try:
            header = json.loads(self._fh.readline().decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            self._fh.close()
            raise RunFileError(f"run {self.path}: unreadable header: {exc}") from exc
        if header.get("magic") != _MAGIC or header.get("version") != _VERSION:
            self._fh.close()
            raise RunFileError(
                f"run {self.path}: bad magic/version {header.get('magic')!r}/"
                f"{header.get('version')!r}"
            )
        self.key_dtype = descr_dtype(header["key_dtype"])
        self.value_dtype = descr_dtype(header["value_dtype"])

    def __iter__(self) -> Iterator[Frame]:
        return self.frames()

    def frames(self) -> Iterator[Frame]:
        """Yield each frame in append order (bounded memory: one at a time)."""
        try:
            while True:
                head = self._fh.read(FRAME.size)
                if not head:
                    return
                if len(head) < FRAME.size:
                    raise RunFileError(f"run {self.path}: truncated frame header")
                crc, nrec, tag, key_nbytes, value_nbytes = FRAME.unpack(head)
                # one copy per frame: the payload lands in the buffers the
                # arrays keep, and the crc runs over exactly those bytes
                key_buf = np.empty(key_nbytes, dtype=np.uint8)
                value_buf = np.empty(value_nbytes, dtype=np.uint8)
                if (
                    self._fh.readinto(key_buf) < key_nbytes
                    or self._fh.readinto(value_buf) < value_nbytes
                ):
                    raise RunFileError(f"run {self.path}: truncated frame payload")
                verify_frame(crc, nrec, key_buf, value_buf,
                             self.value_dtype.itemsize, f"run {self.path}")
                values = value_buf.view(self.value_dtype)
                keys = None
                if self.key_dtype is not None and key_nbytes:
                    keys = key_buf.view(self.key_dtype)
                yield Frame(values=values, keys=keys, tag=tag)
        finally:
            self._fh.close()

    def close(self) -> None:
        """Close the underlying file (idempotent)."""
        self._fh.close()


def read_run(path: PathLike) -> list[Frame]:
    """All frames of a run file (test/debug convenience; unbounded memory)."""
    return list(RunReader(path).frames())

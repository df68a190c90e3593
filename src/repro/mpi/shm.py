"""Zero-copy shared-memory transport for the process backend.

Thread ranks exchange Python objects by reference; process ranks cannot.
The naive fix — pickle everything through a pipe — re-serializes every
columnar payload at every exchange and erases the parallel speedup this
backend exists to deliver.  This module keeps the pipe for *headers only*
and moves the bytes through ``multiprocessing.shared_memory``:

* :func:`encode_payload` pickles an object with protocol 5 and a
  ``buffer_callback``, so every contiguous numpy array (``KVBatch``
  columns, partition arrays, ``Dataset.records``) is captured out-of-band
  instead of being copied into the pickle blob.  The raw buffers are
  written into one fresh segment of exactly their size, made by the
  sender's :class:`SegmentFactory`, whose mapping the sender closes at
  once; the :class:`ShmEnvelope` that crosses the pipe carries just the
  segment name, per-buffer offsets, dtype/shape (bare-array fast path)
  and a crc32.
* :func:`decode_payload` maps the segment in the receiving process,
  checks the crc, unlinks the name and rebuilds the object with
  ``pickle.loads(..., buffers=...)`` over read-only views — array bodies
  are never copied.  The views stay readable after the unlink: a
  :class:`_Lease` watches them with ``weakref.finalize`` and closes the
  mapping when the last one dies.

Cleanup discipline: receivers unlink what they decode; the spawner sweeps
the rest.  Every created segment name is also pushed to a spawner-side
ledger queue, and once the workers are gone the spawner unlinks whatever
is left of the union of that ledger and a ``/dev/shm`` prefix scan — a
message nobody decoded, or a crashed worker's segments — so neither a
clean exit nor a crash can leak segments (pinned by the leak tests in
``tests/mpi``).
"""

from __future__ import annotations

import os
import pickle
import threading
import weakref
import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable, Optional

import numpy as np

from repro.errors import MPIError

if TYPE_CHECKING:  # pragma: no cover - loaded by the first segment (it imports secrets)
    from multiprocessing.shared_memory import SharedMemory

#: buffer start alignment inside a segment (cache line)
ALIGNMENT = 64

#: envelope kinds: no out-of-band buffers / pickled object with external
#: buffers / bare ndarray described entirely by the header
KIND_INLINE = "inline"
KIND_OBJECT = "object"
KIND_ARRAY = "array"


def _untrack(name: str) -> None:
    """Withdraw a segment from the resource tracker (we own the lifecycle).

    Python's tracker would otherwise unlink segments when *any* process
    exits, yanking live blocks out from under sibling ranks.  Unregistering
    a name that was never registered is harmless.
    """
    try:
        from multiprocessing import resource_tracker

        resource_tracker.unregister("/" + name, "shared_memory")
    except Exception:
        pass


def _track(name: str) -> None:
    """Re-register a segment so ``SharedMemory.unlink``'s own unregister balances.

    The creating worker withdrew the name (see :func:`_untrack`), but
    ``unlink()`` unconditionally sends an unregister message; without a
    matching register the tracker process logs a ``KeyError``.
    """
    try:
        from multiprocessing import resource_tracker

        resource_tracker.register("/" + name, "shared_memory")
    except Exception:
        pass


def _attach(name: str) -> SharedMemory:
    """Open an existing segment and immediately withdraw it from the tracker.

    Python 3.11/3.12 register a POSIX segment on *attach* as well as create;
    left in place, a worker's private tracker would unlink other ranks'
    segments when that worker exits.  The immediate unregister balances the
    constructor's register in the same process, so every tracker only ever
    sees matched register/unregister pairs.
    """
    from multiprocessing.shared_memory import SharedMemory

    shm = SharedMemory(name=name)
    _untrack(name)
    return shm


def _unlink(shm: SharedMemory) -> bool:
    """Remove ``shm``'s name from ``/dev/shm``; False if it was already gone.

    Open mappings stay valid: the memory is freed once the last one closes.
    """
    _track(shm.name)
    try:
        shm.unlink()
        return True
    except FileNotFoundError:
        _untrack(shm.name)
        return False


#: mappings whose close raced a dying view's buffer export (a finalizer
#: runs *before* the dying array releases its export, so the first close
#: attempt can see live pointers); swept on later transport activity
_PENDING_CLOSE: list[SharedMemory] = []
_PENDING_LOCK = threading.Lock()


def _close(shm: SharedMemory) -> None:
    """Unmap ``shm`` now, or park it for :func:`sweep_pending_closes`."""
    try:
        shm.close()
    except BufferError:
        with _PENDING_LOCK:
            _PENDING_CLOSE.append(shm)


def sweep_pending_closes() -> None:
    """Retry closing mappings whose first close raced a dying view."""
    with _PENDING_LOCK:
        parked, _PENDING_CLOSE[:] = _PENDING_CLOSE[:], []
    for shm in parked:
        _close(shm)


def _aligned(nbytes: int) -> int:
    return (nbytes + ALIGNMENT - 1) // ALIGNMENT * ALIGNMENT


@dataclass(frozen=True)
class ShmEnvelope:
    """The header that crosses the pipe in place of the payload bytes."""

    #: :data:`KIND_INLINE`, :data:`KIND_OBJECT` or :data:`KIND_ARRAY`
    kind: str
    #: pickle-5 skeleton (``None`` for the bare-array fast path)
    blob: Optional[bytes]
    #: shared-memory segment holding the buffers (``None`` when inline)
    segment: Optional[str]
    #: ``(offset, nbytes)`` per out-of-band buffer, in pickle order
    buffers: tuple[tuple[int, int], ...]
    #: dtype string / shape for :data:`KIND_ARRAY`
    dtype: Optional[str]
    shape: Optional[tuple[int, ...]]
    #: crc32 over blob + buffers, verified on decode
    crc: int
    #: logical payload size (blob + buffer bytes) for traffic accounting
    nbytes: int
    #: bytes that travelled out-of-band through the segment
    oob_bytes: int
    #: array bytes that fell back to travelling inside a pickle blob
    fallback_bytes: int


class SegmentFactory:
    """Per-rank source of fresh segments, one of exactly the payload's size.

    Names are ``{prefix}r{rank}n{seq}``.  Every created name is mirrored
    to ``names_queue`` so the spawner can sweep whatever no receiver
    unlinked; the factory keeps no mapping of its own.
    """

    def __init__(self, prefix: str, rank: int, names_queue: Any = None) -> None:
        self.prefix = prefix
        self.rank = rank
        self._names_queue = names_queue
        self._seq = 0
        #: segments this rank has created (the exit message's count)
        self.created = 0

    def create(self, nbytes: int) -> SharedMemory:
        """A new segment of ``nbytes`` (> 0) bytes, mapped for writing."""
        from multiprocessing.shared_memory import SharedMemory

        sweep_pending_closes()
        while True:  # skip names left over by an unrelated crashed run
            name = f"{self.prefix}r{self.rank}n{self._seq}"
            self._seq += 1
            try:
                shm = SharedMemory(name=name, create=True, size=nbytes)
                break
            except FileExistsError:
                continue
        _untrack(name)
        self.created += 1
        if self._names_queue is not None:
            self._names_queue.put(name)
        return shm


# -- encoding ---------------------------------------------------------------


def _inline(blob: bytes, fallback: bool) -> ShmEnvelope:
    return ShmEnvelope(
        kind=KIND_INLINE, blob=blob, segment=None, buffers=(), dtype=None,
        shape=None, crc=zlib.crc32(blob), nbytes=len(blob), oob_bytes=0,
        fallback_bytes=len(blob) if fallback else 0,
    )


def encode_payload(obj: Any, factory: SegmentFactory) -> ShmEnvelope:
    """Encode ``obj`` for the pipe: header out, array bytes into a segment.

    Bare contiguous ndarrays skip pickle entirely (dtype/shape ride in the
    header).  Everything else goes through pickle protocol 5 with a
    ``buffer_callback``, so ndarrays *inside* containers (``KVBatch``,
    ``Dataset``, dicts of partitions) still travel out-of-band.  A payload
    with no out-of-band bytes creates no segment.  If out-of-band capture
    fails for an exotic payload, we fall back to a plain pickle and
    account the bytes as ``fallback_bytes`` — the ``comm.pickle_bytes``
    counter the tests pin to zero for numpy payloads.
    """
    if (
        isinstance(obj, np.ndarray)
        and not obj.dtype.hasobject
        and obj.dtype.names is None  # structured dtypes keep fields via pickle
    ):
        return _encode_array(np.ascontiguousarray(obj), factory)

    pickle_buffers: list[pickle.PickleBuffer] = []
    try:
        blob = pickle.dumps(obj, protocol=5, buffer_callback=pickle_buffers.append)
    except Exception:
        for buf in pickle_buffers:
            buf.release()
        return _inline(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL), fallback=True)
    raws = [buf.raw() for buf in pickle_buffers]
    spans: list[tuple[int, int]] = []
    end = 0
    for raw in raws:
        offset = _aligned(end)
        spans.append((offset, raw.nbytes))
        end = offset + raw.nbytes
    if end == 0:  # no buffers, or only empty ones: the skeleton is the payload
        for raw, buf in zip(raws, pickle_buffers):
            raw.release()
            buf.release()
        if pickle_buffers:
            blob = pickle.dumps(obj, protocol=5)
        return _inline(blob, fallback=False)

    shm = factory.create(end)
    crc = zlib.crc32(blob)
    for (offset, nbytes), raw in zip(spans, raws):
        shm.buf[offset : offset + nbytes] = raw
        crc = zlib.crc32(raw, crc)
        raw.release()
    for buf in pickle_buffers:
        buf.release()
    _close(shm)
    oob = sum(nbytes for _, nbytes in spans)
    return ShmEnvelope(
        kind=KIND_OBJECT, blob=blob, segment=shm.name, buffers=tuple(spans),
        dtype=None, shape=None, crc=crc, nbytes=len(blob) + oob,
        oob_bytes=oob, fallback_bytes=0,
    )


def _encode_array(arr: np.ndarray, factory: SegmentFactory) -> ShmEnvelope:
    """Bare-array fast path: no pickle at all, header carries dtype/shape."""
    if arr.nbytes == 0:
        return ShmEnvelope(
            kind=KIND_ARRAY, blob=None, segment=None, buffers=(),
            dtype=arr.dtype.str, shape=tuple(arr.shape), crc=0, nbytes=0,
            oob_bytes=0, fallback_bytes=0,
        )
    shm = factory.create(arr.nbytes)
    flat = arr.reshape(-1).view(np.uint8)
    shm.buf[: arr.nbytes] = flat
    _close(shm)
    return ShmEnvelope(
        kind=KIND_ARRAY, blob=None, segment=shm.name,
        buffers=((0, arr.nbytes),), dtype=arr.dtype.str,
        shape=tuple(arr.shape), crc=zlib.crc32(flat), nbytes=arr.nbytes,
        oob_bytes=arr.nbytes, fallback_bytes=0,
    )


# -- decoding ---------------------------------------------------------------


class _Lease:
    """Counts live views over one mapped segment; unmaps it at zero."""

    __slots__ = ("_shm", "_left", "_lock")

    def __init__(self, shm: SharedMemory, views: int) -> None:
        self._shm = shm
        self._left = views
        self._lock = threading.Lock()

    def drop(self) -> None:
        """One view died; on the last one, unmap the segment.

        The close may legitimately fail right now (the dying view's buffer
        export is still held during finalization) — such mappings are
        parked and swept by the next transport operation.
        """
        with self._lock:
            self._left -= 1
            if self._left:
                return
        _close(self._shm)


def decode_payload(envelope: ShmEnvelope, copy: bool = False) -> Any:
    """Rebuild the object described by ``envelope`` in this process.

    The segment's name is unlinked as soon as its crc checks out, so each
    segment is decoded once.  With ``copy=False`` (the worker hot path)
    arrays are *views* over the mapped segment, marked read-only so a
    stray in-place mutation fails loudly; the mapping is closed when the
    last view is garbage-collected.  With ``copy=True`` (the spawner
    materializing worker results) bytes are copied out, the mapping is
    closed immediately, and the returned arrays are ordinary writable
    memory.
    """
    if envelope.kind == KIND_INLINE:
        assert envelope.blob is not None
        if zlib.crc32(envelope.blob) != envelope.crc:
            raise MPIError("shared-memory transport: corrupt inline payload (crc mismatch)")
        return pickle.loads(envelope.blob)

    sweep_pending_closes()
    if envelope.segment is None:  # empty bare array
        return np.empty(envelope.shape or (0,), dtype=np.dtype(envelope.dtype))

    shm = _attach(envelope.segment)
    try:
        buffers = _mapped_buffers(envelope, shm, copy)
    except Exception:
        # views created before the failure may still hold buffer exports;
        # park the mapping rather than let BufferError mask the real error
        _close(shm)
        raise
    _unlink(shm)
    if envelope.kind == KIND_ARRAY:
        arr = np.frombuffer(buffers[0], dtype=np.dtype(envelope.dtype))
        return arr.reshape(envelope.shape)
    assert envelope.blob is not None
    return pickle.loads(envelope.blob, buffers=buffers)


def _mapped_buffers(envelope: ShmEnvelope, shm: SharedMemory, copy: bool) -> list[Any]:
    """The envelope's out-of-band buffers, crc-checked: copies or views."""
    crc = zlib.crc32(envelope.blob) if envelope.blob is not None else 0

    if copy:
        chunks: list[bytearray] = []
        for offset, nbytes in envelope.buffers:
            view = memoryview(shm.buf)[offset : offset + nbytes]
            crc = zlib.crc32(view, crc)
            chunks.append(bytearray(view))
            view.release()
        _check_crc(crc, envelope)
        shm.close()
        return chunks

    views: list[np.ndarray] = []
    for offset, nbytes in envelope.buffers:
        view = np.frombuffer(shm.buf, dtype=np.uint8, count=nbytes, offset=offset)
        crc = zlib.crc32(view, crc)
        view.flags.writeable = False
        views.append(view)
    _check_crc(crc, envelope)
    lease = _Lease(shm, len(views))
    for view in views:
        weakref.finalize(view, lease.drop)
    return views


def _check_crc(crc: int, envelope: ShmEnvelope) -> None:
    if crc != envelope.crc:
        raise MPIError(
            f"shared-memory transport: corrupt payload in segment "
            f"{envelope.segment!r} (crc mismatch)"
        )


# -- spawner-side cleanup -----------------------------------------------------


def unlink_segments(names: Iterable[str]) -> int:
    """Unlink every named segment that still exists; return how many did."""
    count = 0
    for name in names:
        try:
            shm = _attach(name)
        except OSError:
            continue
        _close(shm)
        count += _unlink(shm)
    return count


def scan_segments(prefix: str) -> list[str]:
    """Names under ``/dev/shm`` carrying ``prefix`` (empty off Linux)."""
    shm_dir = "/dev/shm"
    if not os.path.isdir(shm_dir):
        return []
    try:
        return sorted(n for n in os.listdir(shm_dir) if n.startswith(prefix))
    except OSError:
        return []

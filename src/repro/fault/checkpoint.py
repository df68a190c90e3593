"""Per-job checkpointing of workflow outputs.

After each planned job completes, every rank snapshots its local output
(plus the job's :class:`~repro.core.perf.JobCounts`, which a cluster model
prices) under a key derived from the plan, the input data, the rank count,
and the job.  On retry, the driver computes the longest
*fully committed* job prefix — jobs for which **all** ranks saved a
checkpoint — and every rank of the next attempt resumes from there, loading
the saved outputs instead of recomputing (and re-shuffling) them.

Commit is per-rank and non-atomic on purpose: a rank that crashes *after*
running a job but *before* saving leaves that job uncommitted, so the next
attempt deterministically re-runs it on all ranks — the collective schedules
of the attempt stay aligned.

Two stores are provided: :class:`MemoryCheckpointStore` (values round-trip
through pickle, so later mutation of a live object cannot corrupt the
snapshot) and :class:`DiskCheckpointStore` (one file per key, fsynced and
atomically renamed into place, with a crc-verified footer so a torn file —
a writer killed mid-``write`` or a machine crash before the rename — is
detected on load and treated as *missing*, never as committed).  Only the
disk store is ``process_safe``: its state survives the fork boundary, so
it is the one :class:`~repro.core.process_runtime.ProcessRuntime` accepts
for gang-restart.
"""

from __future__ import annotations

import os
import pickle
import threading
import urllib.parse
import zlib
from typing import Any, Iterable

import numpy as np

from repro.errors import FaultToleranceError

#: trailing magic of a fully committed checkpoint file (format version 1)
_FOOTER_MAGIC = b"PaParCk1"
#: footer = crc32(blob) little-endian u32 + magic
_FOOTER_LEN = 4 + len(_FOOTER_MAGIC)


class _Pickler(pickle.Pickler):
    """Pickles a builtin dtype as the call that returns numpy's own dtype
    object, not a copy: a restored array then shares its dtype with a
    message's other arrays, and pickles onto the wire as the live one does."""

    def reducer_override(self, obj: Any) -> Any:
        """``np.dtype(name)`` for a builtin dtype; the default for anything else."""
        if isinstance(obj, np.dtype) and obj.isbuiltin == 1:
            return np.dtype, (obj.str,)
        return NotImplemented


class _Chunks(list):
    """The file a pickler writes: the chunks, joined by :func:`_dumps`."""

    write = list.append


def _dumps(value: Any) -> bytes:
    chunks = _Chunks()
    _Pickler(chunks, protocol=pickle.HIGHEST_PROTOCOL).dump(value)
    return b"".join(chunks)


class CheckpointStore:
    """Interface: a key/value store for job-output snapshots."""

    #: whether snapshots are visible across a fork/process boundary
    process_safe = False

    def save(self, key: str, value: Any) -> None:
        """Persist ``value`` under ``key``, overwriting any prior snapshot."""
        raise NotImplementedError

    def load(self, key: str) -> Any:
        """Return the snapshot under ``key``; FaultToleranceError if absent."""
        raise NotImplementedError

    def contains(self, key: str) -> bool:
        """Whether a snapshot exists under ``key``."""
        raise NotImplementedError

    def keys(self) -> list[str]:
        """All stored keys, sorted."""
        raise NotImplementedError

    def clear(self) -> None:
        """Drop every stored snapshot."""
        raise NotImplementedError

    def delete(self, key: str) -> None:
        """Drop the snapshot under ``key``; absent keys are a no-op.

        Retention callers (the serve snapshot store pruning superseded
        generations) need single-key removal without :meth:`clear`'s
        drop-everything semantics.
        """
        raise NotImplementedError

    def __contains__(self, key: str) -> bool:
        return self.contains(key)

    def __len__(self) -> int:
        return len(self.keys())


class MemoryCheckpointStore(CheckpointStore):
    """In-memory store; snapshots are isolated via a pickle round-trip."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._data: dict[str, bytes] = {}

    def save(self, key: str, value: Any) -> None:
        """Pickle ``value`` into the in-memory map under ``key``."""
        blob = _dumps(value)
        with self._lock:
            self._data[key] = blob

    def load(self, key: str) -> Any:
        """Unpickle the snapshot under ``key``; error if absent."""
        with self._lock:
            try:
                blob = self._data[key]
            except KeyError:
                raise FaultToleranceError(f"no checkpoint under key {key!r}") from None
        return pickle.loads(blob)

    def contains(self, key: str) -> bool:
        """Whether a snapshot exists under ``key``."""
        with self._lock:
            return key in self._data

    def keys(self) -> list[str]:
        """All stored keys, sorted."""
        with self._lock:
            return sorted(self._data)

    def clear(self) -> None:
        """Drop every stored snapshot."""
        with self._lock:
            self._data.clear()

    def delete(self, key: str) -> None:
        """Drop the snapshot under ``key``; absent keys are a no-op."""
        with self._lock:
            self._data.pop(key, None)

    @property
    def nbytes(self) -> int:
        """Total pickled size of the stored snapshots."""
        with self._lock:
            return sum(len(b) for b in self._data.values())


class DiskCheckpointStore(CheckpointStore):
    """One pickle file per key under ``directory``; crash-safe commits.

    A commit is temp file → ``flush`` → ``fsync`` → atomic ``os.replace``,
    and the file ends in a crc32-verified footer.  A torn file (writer
    killed mid-write, power loss before the rename made it durable) fails
    the footer check and is treated as *missing* — the committed-prefix
    rule then re-runs that job instead of restoring garbage.

    Keys are percent-encoded into filenames so they round-trip losslessly
    through :meth:`keys`.
    """

    _SUFFIX = ".ckpt"

    #: snapshots live on disk, so forked worker processes share them
    process_safe = True

    def __init__(self, directory: str | os.PathLike) -> None:
        self.directory = os.fspath(directory)
        os.makedirs(self.directory, exist_ok=True)

    def _path(self, key: str) -> str:
        return os.path.join(
            self.directory, urllib.parse.quote(key, safe="") + self._SUFFIX
        )

    def save(self, key: str, value: Any) -> None:
        """Commit ``value``: temp file, fsync, footer, atomic rename."""
        path = self._path(key)
        blob = _dumps(value)
        tmp = f"{path}.tmp.{os.getpid()}.{threading.get_ident()}"
        with open(tmp, "wb") as fh:
            fh.write(blob)
            fh.write(zlib.crc32(blob).to_bytes(4, "little"))
            fh.write(_FOOTER_MAGIC)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)

    def _read_committed(self, key: str) -> bytes | None:
        """The pickled blob under ``key``, or ``None`` if absent or torn."""
        try:
            with open(self._path(key), "rb") as fh:
                raw = fh.read()
        except FileNotFoundError:
            return None
        if len(raw) < _FOOTER_LEN or raw[-len(_FOOTER_MAGIC):] != _FOOTER_MAGIC:
            return None
        blob = raw[:-_FOOTER_LEN]
        if zlib.crc32(blob) != int.from_bytes(raw[-_FOOTER_LEN:-len(_FOOTER_MAGIC)], "little"):
            return None
        return blob

    def load(self, key: str) -> Any:
        """Unpickle the snapshot under ``key``; torn files count as absent."""
        blob = self._read_committed(key)
        if blob is None:
            raise FaultToleranceError(f"no checkpoint under key {key!r}") from None
        return pickle.loads(blob)

    def contains(self, key: str) -> bool:
        """Whether a *committed* (footer-verified) snapshot exists."""
        return self._read_committed(key) is not None

    def keys(self) -> list[str]:
        """All stored keys (decoded from their filenames), sorted."""
        names = []
        for name in os.listdir(self.directory):
            if name.endswith(self._SUFFIX):
                names.append(urllib.parse.unquote(name[: -len(self._SUFFIX)]))
        return sorted(names)

    def clear(self) -> None:
        """Delete every checkpoint file in the directory."""
        for name in os.listdir(self.directory):
            if name.endswith(self._SUFFIX):
                os.unlink(os.path.join(self.directory, name))

    def delete(self, key: str) -> None:
        """Remove the file under ``key``; absent keys are a no-op."""
        try:
            os.unlink(self._path(key))
        except FileNotFoundError:
            pass


# -- key derivation ------------------------------------------------------------


def plan_fingerprint(plan: Any, input_data: Any, size: int) -> str:
    """A key prefix binding checkpoints to (plan, input, rank count).

    Resuming is only sound when all three match, so they are baked into
    every key; a different input file or rank count starts from scratch.
    """
    return (
        f"{plan.workflow_id}/{len(plan.jobs)}jobs/{size}ranks/"
        f"{input_data.num_records}rec-{input_data.nbytes}B"
    )


def job_key(fingerprint: str, job_index: int, op_id: str, rank: int) -> str:
    """The store key for one rank's output of one planned job."""
    return f"{fingerprint}/job{job_index}-{op_id}/rank{rank}"


def committed_prefix(
    store: CheckpointStore, fingerprint: str, jobs: Iterable[Any], size: int
) -> int:
    """Number of leading jobs for which *every* rank has a checkpoint."""
    jobs = list(jobs)
    for i, job in enumerate(jobs):
        keys = (job_key(fingerprint, i, job.op_id, r) for r in range(size))
        if not all(store.contains(k) for k in keys):
            return i
    return len(jobs)


__all__ = [
    "CheckpointStore",
    "DiskCheckpointStore",
    "MemoryCheckpointStore",
    "committed_prefix",
    "job_key",
    "plan_fingerprint",
]

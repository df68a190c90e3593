"""Versioned on-disk snapshots of the daemon's hot state.

Reuses the crash-safe commit discipline of
:class:`~repro.fault.checkpoint.DiskCheckpointStore` (temp file → fsync →
crc32 footer → atomic rename): every value written here is either fully
committed or reads as missing.  On top of that, a snapshot of generation
``g`` is published in a strict order —

1. one key per partition (``serve/gen<g>/part<i>``, the chunk lists),
2. the append log (``serve/gen<g>/log``, the ground truth for rebuilds),
3. the generation's metadata (``serve/gen<g>/meta``),
4. finally the ``serve/CURRENT`` pointer.

Because the pointer flips last and atomically, a reader (the daemon's warm
restart, or an operator inspecting the directory) always sees a complete
generation: either the previous one or the new one, never a torn mix.
Superseded generations are pruned down to a retention window after each
publish.
"""

from __future__ import annotations

import time
from typing import Any, Optional

import numpy as np

from repro.fault.checkpoint import CheckpointStore, DiskCheckpointStore
from repro.serve.state import PartitionGeneration, ServeError, ServeState

#: the atomically flipped pointer to the newest complete snapshot
CURRENT_KEY = "serve/CURRENT"

#: how many published generations survive pruning by default
DEFAULT_RETAIN = 2


def snapshot_id(generation: int) -> str:
    """The stable identifier of generation ``generation`` (``gen<g>``)."""
    return f"gen{generation:08d}"


class SnapshotStore:
    """Publishes and restores daemon state through a checkpoint store."""

    def __init__(
        self, store: CheckpointStore | str, retain: int = DEFAULT_RETAIN
    ) -> None:
        if isinstance(store, str):
            store = DiskCheckpointStore(store)
        self.store = store
        self.retain = max(1, retain)

    # -- publishing ----------------------------------------------------------

    def publish(self, state: ServeState, workflow_id: str) -> str:
        """Atomically publish the current generation; returns its snapshot id.

        Safe to call with requests in flight: the caller passes a state
        reference captured on the event loop, and every key commit is
        individually atomic with ``CURRENT`` flipped last.
        """
        gen = state.current
        if gen is None:
            raise ServeError("nothing to snapshot: no generation is live yet")
        sid = snapshot_id(gen.generation)
        prefix = f"serve/{sid}"
        for pid, chunks in enumerate(gen.chunks):
            self.store.save(f"{prefix}/part{pid:05d}", list(chunks))
        log = state.log
        # one array per batch: the layout every snapshot has had
        self.store.save(f"{prefix}/log", list(log))
        self.store.save(
            f"{prefix}/meta",
            {
                "generation": gen.generation,
                "workflow_id": workflow_id,
                "num_partitions": gen.num_partitions,
                "rebuilt_records": gen.rebuilt_records,
                "log_records": state.log_records,
                "log_batches": len(log),
                "created_unix": time.time(),
            },
        )
        self.store.save(CURRENT_KEY, {"generation": gen.generation})
        self.prune()
        return sid

    def prune(self) -> int:
        """Delete generations older than the retention window; returns count."""
        current = self.current_generation()
        if current is None:
            return 0
        floor = current - self.retain + 1
        dropped = 0
        for key in self.store.keys():
            gen = _generation_of(key)
            if gen is not None and gen < floor:
                self.store.delete(key)
                dropped += 1
        return dropped

    # -- restoring -----------------------------------------------------------

    def current_generation(self) -> Optional[int]:
        """The generation ``CURRENT`` points at, or None when never published."""
        if CURRENT_KEY not in self.store:
            return None
        return int(self.store.load(CURRENT_KEY)["generation"])

    def load_latest(self) -> Optional[tuple[ServeState, dict[str, Any]]]:
        """Restore the newest complete snapshot as ``(state, meta)``.

        Returns ``None`` when no snapshot was ever published.  Raises
        :class:`ServeError` when ``CURRENT`` points at a generation whose
        keys are missing or torn (each reads as absent by the crc footer).
        """
        generation = self.current_generation()
        if generation is None:
            return None
        prefix = f"serve/{snapshot_id(generation)}"
        try:
            meta = self.store.load(f"{prefix}/meta")
            log = self.store.load(f"{prefix}/log")
            chunks = [
                self.store.load(f"{prefix}/part{pid:05d}")
                for pid in range(meta["num_partitions"])
            ]
        except Exception as exc:
            raise ServeError(
                f"snapshot {snapshot_id(generation)} is incomplete: {exc}"
            ) from exc
        state = ServeState()
        for batch in log:
            state.append_log(batch)
        state.current = PartitionGeneration(
            generation=generation,
            chunks=[list(c) for c in chunks],
            counts=np.array(
                [sum(len(x) for x in c) for c in chunks], dtype=np.int64
            ),
            rebuilt_records=meta["rebuilt_records"],
        )
        return state, meta


def _generation_of(key: str) -> Optional[int]:
    """Parse the generation out of a ``serve/gen<g>/...`` key, else None."""
    parts = key.split("/")
    if len(parts) < 2 or parts[0] != "serve" or not parts[1].startswith("gen"):
        return None
    try:
        return int(parts[1][3:])
    except ValueError:
        return None


__all__ = [
    "CURRENT_KEY",
    "DEFAULT_RETAIN",
    "SnapshotStore",
    "snapshot_id",
]

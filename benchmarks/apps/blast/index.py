"""The muBLASTP four-tuple index (Figures 1 and 4).

Every database sequence has one index entry
``{seq_start, seq_size, desc_start, desc_size}``; the partitioning methods
manipulate this index, not the sequence data itself.  After partitioning,
muBLASTP "needs to recalculate the start pointers of sequence data and
description data" — implemented here as the user-defined add-on
:func:`recalculate_pointers` the paper mentions in Section III-C.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from .database import SequenceDatabase
from repro.core.dataset import Dataset
from repro.errors import PaParError
from repro.formats.records import BLAST_INDEX_SCHEMA

#: the 32-byte header the BLAST index file reserves (Figure 4 start_position)
INDEX_HEADER = b"PAPARBLASTINDEXv1".ljust(32, b"\x00")


def generate_index(
    profile: str = "env_nr",
    num_sequences: int = 1_000_000,
    seed: int = 0,
    length_clustering: float = 0.7,
) -> np.ndarray:
    """Generate only the four-tuple index, without sequence/description data.

    The partitioning methods manipulate the index alone, so the
    partitioning-time experiments (Figure 13) can run at realistic sequence
    counts without materializing gigabytes of residues.  Description sizes
    use the synthetic generator's fixed-width template.
    """
    from .database import PROFILES
    from repro.errors import PaParError

    if profile not in PROFILES:
        raise PaParError(f"unknown database profile {profile!r}; known: {sorted(PROFILES)}")
    rng = np.random.default_rng(seed)
    lengths = PROFILES[profile].sample(num_sequences, rng).astype(np.int64)
    ranks = np.argsort(np.argsort(lengths))
    noise = rng.normal(0, 1e-9 + (1.0 - length_clustering) * num_sequences, num_sequences)
    lengths = lengths[np.argsort(ranks + noise, kind="stable")]

    index = np.empty(num_sequences, dtype=BLAST_INDEX_SCHEMA.dtype)
    index["seq_size"] = lengths
    index["seq_start"] = np.concatenate(([0], np.cumsum(lengths)))[:-1]
    desc_size = np.full(num_sequences, 56, dtype=np.int64)
    index["desc_size"] = desc_size
    index["desc_start"] = np.concatenate(([0], np.cumsum(desc_size)))[:-1]
    return index


def build_index(db: SequenceDatabase) -> np.ndarray:
    """The database's four-tuple index as a structured array."""
    index = np.empty(db.num_sequences, dtype=BLAST_INDEX_SCHEMA.dtype)
    index["seq_start"] = db.seq_start
    index["seq_size"] = db.seq_size
    index["desc_start"] = db.desc_start
    index["desc_size"] = db.desc_size
    return index


def recalculate_pointers(partition: np.ndarray) -> np.ndarray:
    """Rebase a partition's start pointers to its own contiguous blobs.

    The add-on operator of Section III-C: after distribution each partition
    stores its sequences back to back, so ``seq_start`` / ``desc_start``
    become running sums of the partition's own sizes.  Sizes are unchanged.
    """
    if partition.dtype != BLAST_INDEX_SCHEMA.dtype:
        raise PaParError("recalculate_pointers expects a blast_db index array")
    out = partition.copy()
    out["seq_start"] = np.concatenate(([0], np.cumsum(out["seq_size"])))[:-1]
    out["desc_start"] = np.concatenate(([0], np.cumsum(out["desc_size"])))[:-1]
    return out


def extract_partition(
    db: SequenceDatabase, partition_index: Union[np.ndarray, Dataset]
) -> SequenceDatabase:
    """Materialize one partition as its own database.

    Gathers the partition's residue and description bytes (in index order)
    and rebases the extents with :func:`recalculate_pointers`, producing
    exactly what a muBLASTP worker node would load.
    """
    if isinstance(partition_index, Dataset):
        partition_index = partition_index.to_flat().records
    rebased = recalculate_pointers(partition_index)
    residues = np.concatenate(
        [
            db.residues[int(s) : int(s) + int(sz)]
            for s, sz in zip(partition_index["seq_start"], partition_index["seq_size"])
        ]
        or [np.empty(0, dtype=np.uint8)]
    )
    descriptions = b"".join(
        db.descriptions[int(s) : int(s) + int(sz)]
        for s, sz in zip(partition_index["desc_start"], partition_index["desc_size"])
    )
    return SequenceDatabase(
        name=f"{db.name}.part",
        residues=residues,
        seq_start=rebased["seq_start"].astype(np.int64),
        seq_size=rebased["seq_size"].astype(np.int64),
        descriptions=descriptions,
        desc_start=rebased["desc_start"].astype(np.int64),
        desc_size=rebased["desc_size"].astype(np.int64),
    )

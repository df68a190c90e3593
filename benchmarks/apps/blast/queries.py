"""Query batch construction (paper Section IV-A).

"We follow the experimental setups in [35] to randomly pick up sequences
from corresponding databases to construct three batches, each of which
includes 100 sequences.  In the batch '100' and '500', all sequences are
less than 100 and 500 letters, respectively; and for the 'mixed' batch, we
randomly select 100 sequences without the limitation of length."
"""

from __future__ import annotations

import numpy as np

from .database import SequenceDatabase
from repro.errors import PaParError

BATCH_KINDS = ("100", "500", "mixed")


def make_batch(
    db: SequenceDatabase,
    kind: str = "mixed",
    batch_size: int = 100,
    seed: int = 0,
) -> list[np.ndarray]:
    """Randomly pick ``batch_size`` query sequences from ``db``.

    ``kind`` "100" restricts to sequences shorter than 100 letters, "500" to
    shorter than 500, "mixed" takes any length.
    """
    if kind not in BATCH_KINDS:
        raise PaParError(f"unknown batch kind {kind!r}; known: {BATCH_KINDS}")
    if batch_size < 1:
        raise PaParError(f"batch_size must be >= 1, got {batch_size!r}")
    rng = np.random.default_rng(seed)
    if kind == "mixed":
        eligible = np.arange(db.num_sequences)
    else:
        eligible = np.flatnonzero(db.seq_size < int(kind))
    if len(eligible) == 0:
        raise PaParError(f"database has no sequences eligible for batch {kind!r}")
    picks = rng.choice(eligible, size=min(batch_size, len(eligible)), replace=False)
    return [db.sequence(int(i)).copy() for i in picks]

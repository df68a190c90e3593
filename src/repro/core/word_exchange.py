"""The word exchange: the SPMD sort of a run's input ships words, not records.

A flat ``Sort`` with no add-on that reads the run's own input — an
in-memory flat dataset, or a fixed-width file through a read-only mapping
(``indexed_rows``) — keyed by an integer of at most 32 bits, with no memory
budget, runs the sort-first sample sort (Cylon's: a local sort, one
all-to-all, a merge).  Each rank packs its block of the input into one
``uint64`` word per entry, :func:`~repro.order.key_words`: the key rebased
by its dtype's extreme (descending too) above the global row id.  It sorts
them, cuts them at regularly sampled splitters into one contiguous slice
per rank (:meth:`~repro.mapreduce.partitioner.RangePartitioner.cut_sorted`),
ships 8 bytes per entry, and merges the presorted runs it receives.  Words
are distinct and ordered by (key, row id), which is the stable sort, so a
rank's merged words are exactly its range of the sorted stream; the deal
gathers each piece from the input by row id.  Every other sort or group
takes the record exchange of :meth:`MPIRuntime._range_job
<repro.core.runtime.MPIRuntime._range_job>`.

Imported by the rank program when a sort reads the run's input, never on
the serial path.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from repro.core.dataset import SortedView, row_id_dtype
from repro.core.runtime import KEY_SAMPLE_SIZE, _alltoall, _block
from repro.mapreduce.partitioner import RangePartitioner
from repro.order import key_words, packs_rows, word_row_ids


def input_rows(op: Any, whole: Any) -> Optional[np.ndarray]:
    """The run's input ``whole`` as rows fetchable by global row id, when a
    sort ``op`` of it takes the word exchange; ``None`` otherwise."""
    schema = whole.schema
    if (
        op.addon is not None
        or not schema.has_field(op.key)
        or not packs_rows(schema.dtype[op.key], np.uint32)
        or len(whole) > 1 << 32
    ):
        return None
    indexed = getattr(whole, "indexed_rows", None)
    indexed = indexed() if indexed is not None else None
    return indexed[0] if indexed is not None and indexed[1] is None else None


def word_sort(
    comm: Any, op: Any, rows: np.ndarray, schema: Any, reducers: int, perf: Any
) -> SortedView:
    """This rank's range of ``rows`` sorted by ``op``: a view over all of
    ``rows`` and the row ids of the range.  Reducers map onto ranks
    contiguously, as in the record exchange, so ``mapreduce``'s reducer
    count still shapes the cut."""
    start, length = _block(len(rows), comm.rank, comm.size)
    words = key_words(rows[op.key][start : start + length], None, not op.ascending, 32, start)
    words.sort()
    cut = RangePartitioner.sampled_sorted(comm, words, reducers, KEY_SAMPLE_SIZE)
    bounds = cut.cut_sorted(words)
    # rank r owns the reducers i with i * size // reducers == r
    firsts = [-(-r * cut.num_reducers // comm.size) for r in range(comm.size + 1)]
    outboxes = [words[bounds[a] : bounds[b]] for a, b in zip(firsts, firsts[1:])]
    # the shuffled payload counts the rows routed, as the record exchange
    # does; the fabric carries their words
    perf.count_move(length, length * schema.itemsize)
    inboxes = _alltoall(comm, outboxes, "shuffle", {"records": length, "nbytes": words.nbytes})
    merged = np.concatenate(inboxes)
    merged.sort(kind="stable")  # timsort merges the presorted runs
    return SortedView(schema, rows, word_row_ids(merged, 32, row_id_dtype(len(rows))))

"""The SPMD sort of a run's input, with no exchange: each rank cuts its range.

Taken by a flat ``Sort`` with no add-on and no memory budget of the run's
own input (rows fetchable by row id, ``indexed_rows``), keyed by an integer
of at most 32 bits.  Every rank addresses the whole input, as the deal
does, so each takes the same splitter words (:func:`~repro.order.key_words`:
the rebased key above the row id) from the same regular sample without a
message, scans the key column once — one O(n) pass per rank — for its own
range and sorts its words.  The rows of a rank's block still count as
moved.  Every other sort (of a sort's output, a 64-bit or float key, an
add-on, a budget) and every group takes the record exchange,
:meth:`MPIRuntime._range_job <repro.core.runtime.MPIRuntime._range_job>`.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from repro.core.dataset import SortedView, row_id_dtype
from repro.core.runtime import KEY_SAMPLE_SIZE, _block
from repro.mapreduce.sampling import quantile_boundaries
from repro.order import key_words, packs_rows, word_row_ids

#: keys a rank compares per step of its scan
SCAN_STEP = 1 << 16


def input_rows(op: Any, whole: Any) -> Optional[np.ndarray]:
    """The run's input ``whole`` as rows fetchable by global row id, when a
    sort ``op`` of it takes the range cut; ``None`` otherwise."""
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
    ``rows`` and the row ids of the range.  Reducer ``i``'s range is
    ``(cut[i - 1], cut[i]]``; rank ``r`` owns those with ``i * size // reducers == r``."""
    n = len(rows)
    length = _block(n, comm.rank, comm.size)[1]
    perf.count_move(length, length * schema.itemsize)
    column, descending = rows[op.key], not op.ascending
    first, last = (-(-r * reducers // comm.size) for r in (comm.rank, comm.rank + 1))
    kept = np.empty(0, dtype=np.uint64)
    if n and first < last:
        # the same cuts on every rank: the quantiles of the rows i * n // m
        m = KEY_SAMPLE_SIZE * reducers
        picks = np.arange(n) if n <= m else np.arange(m) * n // m
        sample = key_words(column, picks, descending, 32, picks.view(np.uint64))
        cut = [None, *map(int, quantile_boundaries(sample, reducers)), None]
        kept = range_words(column, descending, cut[first], cut[last])
    kept.sort()
    return SortedView(schema, rows, word_row_ids(kept, 32, row_id_dtype(n)))


def range_words(column: np.ndarray, descending: bool, low: Any, high: Any) -> np.ndarray:
    """The words of ``column``'s rows in ``(low, high]`` (unbounded on a
    ``None`` side), in one scan.  A word above ``low`` has a key above
    ``low``'s, or its key and a later row: so the boundary rows split the
    column into at most three stretches, each keeping one range of keys."""
    n, info = len(column), np.iinfo(column.dtype)
    low_key, low_row = (-1, n) if low is None else divmod(low, 1 << 32)
    high_key, high_row = (info.max - info.min, n) if high is None else divmod(high, 1 << 32)
    stops = sorted({0, n, min(n, low_row + 1), min(n, high_row + 1)})
    parts = [np.empty(0, dtype=np.uint64)]
    for start, stop in zip(stops, stops[1:]):
        # the rebased keys [least, most] the rows of [start, stop) keep
        least, most = low_key + (start <= low_row), high_key - (start > high_row)
        if least > most:
            continue
        if descending:  # a key rebases to max - key
            least, most = info.max - most, info.max - least
        else:
            least, most = info.min + least, info.min + most
        for pos in range(start, stop, SCAN_STEP):
            # one strided read into a contiguous chunk the compares and gather reuse
            chunk = np.ascontiguousarray(column[pos : min(pos + SCAN_STEP, stop)])
            hit = np.flatnonzero((chunk >= least) & (chunk <= most))
            parts.append(key_words(chunk, hit, descending, 32, (hit + pos).view(np.uint64)))
    return np.concatenate(parts)

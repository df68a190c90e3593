"""The one stable-order kernel every sort in the repo runs on.

:func:`stable_order` returns exactly ``np.argsort(keys, kind="stable")``.
numpy runs that call as a scalar timsort for anything wider than 16-bit
keys, while its *unstable* default sort of a plain ``uint64`` array is
vectorized (AVX-512 / AVX2 where the CPU has them).  Packing each record
into one word, ``(key - min) << idx_bits | index``, makes all words
distinct, so the unstable sort has no ties to reorder: the sorted words
carry the stable order in their low ``idx_bits`` bits.  This is the role
the paper gives its SIMD sort kernel (ASPaS, Section IV-B).

Precondition of the packed path: integer or bool keys whose rebased range
and index fit one word together,
``(max - min).bit_length() + (n - 1).bit_length() <= 64``.  Everything else
— floats (NaN order), strings, ranges too wide, inputs too small to repay
the extra passes — takes numpy's stable ``argsort`` itself, so the contract
holds for any key array.

One caller keeps numpy's sort on purpose: timsort is adaptive, so on keys
that are already a handful of sorted runs it beats the packed path (which
sorts from scratch) — the external sort's block merge, whose input is
exactly that, calls it directly.

:func:`packed_row_ids` is the same packing held to one word per entry, for
the narrow sort of :mod:`repro.ops.sort` (integer keys of at most 32 bits,
row ids of at most 32): the words are filled a chunk of the key column at
a time, sorted in place, and the row ids are compacted into the front of
the words' own buffer — so its peak is ``8 * n`` bytes plus one chunk,
the figure a memory budget weighs it at.  The SPMD sort of a run's input
(:mod:`repro.core.word_exchange`) sorts the same words, row id below bit 32.

A leaf module (numpy only): ``formats``, ``mapreduce``, ``ops`` and ``ooc``
all import it.
"""

from __future__ import annotations

import sys

import numpy as np

#: below this many keys the packing passes cost more than they save
#: (measured crossover between 512 and 1024 for int32 and int64 keys)
PACKED_MIN_KEYS = 1024

#: entries :func:`packed_row_ids` reads per chunk (its int64 keys and index
#: column come to 16 bytes per entry; the chunk size barely moves its speed)
ROW_STEP = 1 << 13


def stable_order(keys: np.ndarray) -> np.ndarray:
    """Indices that stably sort the 1-D array ``keys`` ascending.

    Bit-for-bit ``np.argsort(keys, kind="stable")``, int64 indices included.
    """
    keys = np.asarray(keys)
    # one-byte keys are left to numpy's stable argsort: a radix sort, which
    # no packing beats
    if (
        keys.ndim == 1
        and len(keys) >= PACKED_MIN_KEYS
        and keys.dtype.kind in "iub"
        and keys.dtype.itemsize > 1
    ):
        n = len(keys)
        lo, hi = int(keys.min()), int(keys.max())
        idx_bits = (n - 1).bit_length()
        if (hi - lo).bit_length() + idx_bits <= 64:
            # rebase in a width that cannot overflow: with the check above
            # passed, ``key - lo`` lies in [0, 2**63), so int64 holds it for
            # every signed or narrower dtype (int32's ``-2**31`` included);
            # uint64 keys may exceed int64 and stay unsigned
            wide = np.uint64 if keys.dtype == np.uint64 else np.int64
            packed = np.subtract(keys, wide(lo), dtype=wide).view(np.uint64)
            packed <<= np.uint64(idx_bits)
            packed |= np.arange(n, dtype=np.uint64)
            packed.sort()
            packed &= np.uint64((1 << idx_bits) - 1)
            return packed.view(np.int64).astype(np.intp, copy=False)
    return np.argsort(keys, kind="stable")


def packs_rows(key_dtype: np.dtype, id_dtype: np.dtype) -> bool:
    """Whether :func:`packed_row_ids` takes keys of ``key_dtype`` and row
    ids of ``id_dtype``: integers of at most 32 bits, both."""
    key_dtype = np.dtype(key_dtype)
    return key_dtype.kind in "iu" and key_dtype.itemsize <= 4 and np.dtype(id_dtype).itemsize <= 4


def key_words(
    column: np.ndarray, ids: np.ndarray | None, descending: bool, shift: int,
    index: np.ndarray | None = None,
) -> np.ndarray:
    """One ``uint64`` word per entry ``column[ids]`` (``column`` itself when
    ``ids`` is ``None``): its key rebased by the dtype's own extreme
    (``key - min``, or ``max - key`` descending) shifted left by ``shift``,
    or'ed with its index ``i`` (``index[i]`` when given, ascending and below
    ``2**shift``).  Distinct words whose ascending order is the stable order
    of the keys, when :func:`packs_rows` holds and ``n <= 2**shift``; read
    ``ROW_STEP`` keys at a time.
    """
    n = len(column) if ids is None else len(ids)
    info = np.iinfo(column.dtype)
    words = np.empty(n, dtype=np.uint64)
    for pos in range(0, n, ROW_STEP):
        end = min(pos + ROW_STEP, n)
        keys = (column[pos:end] if ids is None else column[ids[pos:end]]).astype(np.int64)
        if descending:
            np.subtract(info.max, keys, out=keys)
        else:
            np.subtract(keys, info.min, out=keys)
        np.left_shift(keys.view(np.uint64), np.uint64(shift), out=words[pos:end])
        words[pos:end] |= np.arange(pos, end, dtype=np.uint64) if index is None else index[pos:end]
    return words


def word_row_ids(
    words: np.ndarray, shift: int, id_dtype: np.dtype, ids: np.ndarray | None = None
) -> np.ndarray:
    """The indices in the low ``shift`` bits of the sorted ``words`` (which
    must own their buffer, and are consumed) as ``id_dtype``, mapped
    through ``ids`` when given, in the front of the words' own buffer."""
    n = len(words)
    if n == 0:
        return np.empty(0, dtype=id_dtype)
    words &= np.uint64((1 << shift) - 1)
    # each word's entry index sits in its low-order lane: move lane k down
    # to slot k, front to back, in spans whose sources all lie past their
    # destinations (slot k's source is lane k * lanes), so numpy copies
    # each span without a temporary
    lanes = 8 // id_dtype.itemsize
    low = lanes - 1 if sys.byteorder == "big" else 0
    narrow = words.view(id_dtype)
    narrow[0] = narrow[low]
    start = 1
    while start < n:
        stop = min(n, start * lanes + low)
        narrow[start:stop] = narrow[start * lanes + low : (stop - 1) * lanes + low + 1 : lanes]
        start = stop
    if ids is not None:  # entry indices -> the row ids they stand for
        for pos in range(0, n, ROW_STEP):
            narrow[pos : pos + ROW_STEP] = ids[narrow[pos : pos + ROW_STEP]]
    del narrow  # the only view: the words may now give their tail back
    words.resize(-(-n * id_dtype.itemsize // 8), refcheck=False)
    return words.view(id_dtype)[:n]


def packed_row_ids(
    column: np.ndarray, ids: np.ndarray | None, descending: bool, id_dtype: np.dtype
) -> np.ndarray:
    """Row ids, as ``id_dtype``, that stably order the entries ``column[ids]``
    (``column`` itself when ``ids`` is ``None``) by key: ascending, or
    descending with ties still in entry order — the order
    :func:`stable_order` gives the negated keys.

    Precondition: :func:`packs_rows`.  Rebased by its dtype's own extreme,
    a key lies in ``[0, 2**32)`` and an entry index below ``2**32``, so a
    word holds both.  Nothing of ``n`` entries is allocated but the words.
    """
    id_dtype = np.dtype(id_dtype)
    n = len(column) if ids is None else len(ids)
    if n == 0:
        return np.empty(0, dtype=id_dtype)
    idx_bits = (n - 1).bit_length()
    words = key_words(column, ids, descending, idx_bits)
    words.sort()
    return word_row_ids(words, idx_bits, id_dtype, ids)

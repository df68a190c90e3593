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
that are already a handful of sorted runs it is O(n) and beats the packed
path (which sorts from scratch) — the external sort's block merge, whose
input is exactly that, calls ``np.argsort`` directly.

A leaf module (numpy only): ``formats``, ``mapreduce``, ``ops`` and ``ooc``
all import it.
"""

from __future__ import annotations

import numpy as np

#: below this many keys the packing passes cost more than they save
#: (measured crossover between 512 and 1024 for int32 and int64 keys)
PACKED_MIN_KEYS = 1024


def stable_order(keys: np.ndarray) -> np.ndarray:
    """Indices that stably sort the 1-D array ``keys`` ascending.

    Bit-for-bit ``np.argsort(keys, kind="stable")``, int64 indices included.
    """
    keys = np.asarray(keys)
    if keys.ndim == 1 and len(keys) >= PACKED_MIN_KEYS and keys.dtype.kind in "iub":
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

"""Shuffle partitioners: decide which reducer owns each key.

Three kinds appear in the paper's workflows:

* hash partitioning — the MapReduce default (``group`` jobs, Figure 11 step 1);
* range partitioning — for ``sort`` jobs, with ranges derived from sampling
  (Figure 9 step 1, Section III-D "Data Sampling");
* explicit partitioning — the ``distribute`` job simply uses the target
  partition id as the temporary reduce-key (Figure 9 step 4, Figure 11 step 6).
"""

from __future__ import annotations

import bisect
import zlib
from typing import Any, Callable, Sequence

import numpy as np

from repro.errors import MapReduceError
from repro.mapreduce.sampling import gather_key_sample, quantile_boundaries


class Partitioner:
    """Maps a key to a reducer index in ``[0, num_reducers)``."""

    def __init__(self, num_reducers: int) -> None:
        if num_reducers < 1:
            raise MapReduceError(f"num_reducers must be >= 1, got {num_reducers!r}")
        self.num_reducers = num_reducers

    def __call__(self, key: Any) -> int:
        raise NotImplementedError

    def partition_array(self, keys: np.ndarray) -> np.ndarray:
        """Reducer index per key, vectorized where the subclass allows.

        The base implementation loops; subclasses override with array
        kernels.  Every override must agree elementwise with ``__call__``
        (the columnar fast path's correctness contract, property-tested).
        """
        return np.fromiter(
            (self(k) for k in keys), dtype=np.int64, count=len(keys)
        )


def stable_hash(key: Any) -> int:
    """A process-independent hash (Python's ``hash`` is salted per process).

    Numpy integers hash like Python ints so the scalar and columnar
    (:func:`stable_hash_array`) paths agree on every element.
    """
    if isinstance(key, (int, np.integer)):
        return int(key) & 0x7FFFFFFF
    if isinstance(key, bytes):
        return zlib.crc32(key)
    return zlib.crc32(repr(key).encode("utf-8"))


def stable_hash_array(keys: np.ndarray) -> np.ndarray:
    """Vectorized :func:`stable_hash` over a key array.

    Integer dtypes mask in one array op; bytes dtypes crc32 per element
    (still one pass, no tuple boxing).  Matches the scalar function exactly
    for every dtype — numpy integers hash by bit pattern like Python ints,
    and ``np.bytes_`` elements are ``bytes`` subclasses.
    """
    keys = np.asarray(keys)
    if keys.dtype.kind in "iu":
        return keys.astype(np.int64, copy=False) & 0x7FFFFFFF
    if keys.dtype.kind == "S":
        return np.fromiter(
            (zlib.crc32(k) for k in keys), dtype=np.int64, count=len(keys)
        )
    return np.fromiter(
        (stable_hash(k) for k in keys.tolist()), dtype=np.int64, count=len(keys)
    )


class HashPartitioner(Partitioner):
    """The MapReduce default: ``stable_hash(key) % num_reducers``."""

    def __call__(self, key: Any) -> int:
        return stable_hash(key) % self.num_reducers

    def partition_array(self, keys: np.ndarray) -> np.ndarray:
        return stable_hash_array(keys) % self.num_reducers


class RangePartitioner(Partitioner):
    """Order-preserving partitioner over sampled split points.

    ``boundaries`` holds ``num_reducers - 1`` ascending split keys; reducer
    ``i`` receives keys in ``(boundaries[i-1], boundaries[i]]``-style ranges
    (``bisect_left``, so a key equal to a boundary goes to that boundary's
    bucket).  This is the one range cut of the SPMD record exchanges (in
    memory and spilled, via :meth:`sampled`) and the ``serve`` range router:
    all route keys through :meth:`partition_array`.
    """

    def __init__(self, boundaries: Sequence[Any], num_reducers: int) -> None:
        super().__init__(num_reducers)
        if len(boundaries) != num_reducers - 1:
            raise MapReduceError(
                f"need {num_reducers - 1} boundaries for {num_reducers} reducers, "
                f"got {len(boundaries)}"
            )
        bl = list(boundaries)
        if any(bl[i] > bl[i + 1] for i in range(len(bl) - 1)):
            raise MapReduceError("range boundaries must be ascending")
        self.boundaries = bl
        #: the same split keys as an array, built once for :meth:`partition_array`
        self._boundary_array = np.asarray(bl)

    @classmethod
    def sampled(
        cls, comm, local_keys: np.ndarray, num_reducers: int, sample_size: int
    ) -> "RangePartitioner":
        """The range cut of a distributed stream, from a pooled key sample
        (collective: every rank builds the same partitioner).  A stream with
        no key on any rank has no split points — one range holds every key."""
        samples = gather_key_sample(comm, local_keys, sample_size)
        if not samples:
            return cls([], 1)
        return cls(quantile_boundaries(samples, num_reducers), num_reducers)

    def __call__(self, key: Any) -> int:
        return bisect.bisect_left(self.boundaries, key)

    def partition_array(self, keys: np.ndarray) -> np.ndarray:
        # bisect_left over every key at once
        return np.searchsorted(self._boundary_array, keys, side="left")


class ExplicitPartitioner(Partitioner):
    """The key *is* the reducer id (the ``distribute`` job's reduce-key)."""

    def __call__(self, key: Any) -> int:
        reducer = int(key)
        if not (0 <= reducer < self.num_reducers):
            raise MapReduceError(
                f"explicit reduce-key {key!r} out of range for {self.num_reducers} reducers"
            )
        return reducer

    def partition_array(self, keys: np.ndarray) -> np.ndarray:
        reducers = np.asarray(keys).astype(np.int64, copy=False)
        if len(reducers) and (reducers.min() < 0 or reducers.max() >= self.num_reducers):
            bad = reducers[(reducers < 0) | (reducers >= self.num_reducers)][0]
            raise MapReduceError(
                f"explicit reduce-key {bad!r} out of range for {self.num_reducers} reducers"
            )
        return reducers


class FnPartitioner(Partitioner):
    """Wrap an arbitrary ``key -> reducer`` callable."""

    def __init__(self, fn: Callable[[Any], int], num_reducers: int) -> None:
        super().__init__(num_reducers)
        self._fn = fn

    def __call__(self, key: Any) -> int:
        reducer = self._fn(key)
        if not (0 <= reducer < self.num_reducers):
            raise MapReduceError(f"partitioner returned out-of-range reducer {reducer!r}")
        return reducer

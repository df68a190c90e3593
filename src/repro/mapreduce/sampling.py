"""Data sampling for reducer load balance (paper Section III-D).

For a ``sort`` job the mappers need a temporary reduce-key that corresponds
to a *range* of the user key, and naive uniform ranges produce badly skewed
reducers when the key distribution is skewed.  Following the mechanism of
TopCluster (Gufler et al., ICDE 2012) cited by the paper, every rank samples
its local data, the samples are combined to approximate the global
distribution, and reducer boundaries are taken at the sample quantiles.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

import numpy as np

from repro.errors import MapReduceError


def sample_array(
    items: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """Uniform sample without replacement of an array, as an array.

    All of ``items`` (no draw from ``rng``) when it holds at most ``k``.
    """
    n = len(items)
    if n <= k:
        return items
    return items[rng.choice(n, size=k, replace=False)]


def reservoir_indices(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """The ``k`` positions Algorithm R keeps from a stream of ``n > k`` items.

    Position ``i >= k`` replaces slot ``j ~ U[0, i]`` when ``j < k``.  All
    draws are made at once, and a fancy assignment with repeated indices
    leaves the last value behind — the slot's final replacement, which is
    what the element-by-element loop ends with too.
    """
    slots = np.arange(k)
    draws = rng.integers(0, np.arange(k, n) + 1)
    hits = np.flatnonzero(draws < k)
    slots[draws[hits]] = hits + k
    return slots


def reservoir_sample(
    items: Sequence[Any], k: int, rng: Optional[np.random.Generator] = None
) -> list[Any]:
    """Uniform sample of ``min(k, len(items))`` elements (Algorithm R)."""
    if k < 0:
        raise MapReduceError(f"sample size must be non-negative, got {k!r}")
    rng = rng if rng is not None else np.random.default_rng(0)
    if isinstance(items, np.ndarray):
        # fast path for large arrays: uniform sample without replacement
        return list(sample_array(items, k, rng))
    n = len(items)
    if n <= k:
        return list(items)
    return [items[i] for i in reservoir_indices(n, k, rng).tolist()]


def quantile_boundaries(samples: Sequence[Any], num_reducers: int) -> list[Any]:
    """Reducer split points at the ``i/num_reducers`` quantiles of ``samples``."""
    if num_reducers < 1:
        raise MapReduceError(f"num_reducers must be >= 1, got {num_reducers!r}")
    if num_reducers == 1:
        return []
    n = len(samples)
    if n == 0:
        raise MapReduceError("cannot derive range boundaries from an empty sample")
    ordered = np.sort(samples) if isinstance(samples, np.ndarray) else sorted(samples)
    return [ordered[min(n - 1, (i * n) // num_reducers)] for i in range(1, num_reducers)]


def gather_key_sample(
    comm, local_keys: Sequence[Any], sample_size: int, seed: int = 0
) -> list[Any]:
    """Every rank's reservoir sample of its keys, pooled (collective): the
    same list on every rank, empty only when no rank holds a key."""
    rng = np.random.default_rng(seed + 1000 * comm.rank)
    local = reservoir_sample(local_keys, sample_size, rng)
    return [s for chunk in comm.allgather(local) for s in chunk]


def sample_key_ranges(
    comm,
    local_keys: Sequence[Any],
    num_reducers: int,
    sample_size: int = 1024,
    seed: int = 0,
) -> list[Any]:
    """Distributed boundary derivation: sample locally, allgather, take quantiles.

    Every rank returns the same boundary list (deterministic given ``seed``),
    suitable for :class:`~repro.mapreduce.partitioner.RangePartitioner`.
    """
    all_samples = gather_key_sample(comm, local_keys, sample_size, seed)
    if not all_samples:
        raise MapReduceError("no rank contributed samples; is the input empty?")
    return quantile_boundaries(all_samples, num_reducers)

"""Section III-D ablation — data sampling for reducer load balance.

The sort operator needs reduce-key ranges; the paper samples data on every
node to approximate the global distribution (following TopCluster) and sets
balanced ranges.  This ablation compares reducer skew with sampled quantile
boundaries against naive uniform (min..max) boundaries on a skewed key
distribution, and sweeps the sample size.
"""

import numpy as np
import pytest

from _harness import Experiment, shape
from repro.mapreduce import RangePartitioner, reservoir_sample
from repro.mapreduce.sampling import quantile_boundaries
from repro.mpi import run_mpi

NUM_REDUCERS = 16
KEYS_PER_RANK = 50_000
RANKS = 8


def skewed_keys(rank: int) -> np.ndarray:
    rng = np.random.default_rng(1000 + rank)
    return (rng.pareto(1.3, size=KEYS_PER_RANK) * 100).astype(np.int64)


def reducer_skew(partitioner, all_keys: np.ndarray) -> float:
    """max/mean ratio of reducer loads (1.0 = perfectly balanced)."""
    owners = np.array([partitioner(k) for k in all_keys])
    counts = np.bincount(owners, minlength=partitioner.num_reducers)
    return float(counts.max() / counts.mean())


def run_ablation():
    exp = Experiment(
        "Sampling ablation", "Reducer skew: sampled quantile ranges vs uniform ranges"
    )
    all_keys = np.concatenate([skewed_keys(r) for r in range(RANKS)])

    # naive uniform boundaries over the observed min..max
    lo, hi = int(all_keys.min()), int(all_keys.max())
    uniform = RangePartitioner(
        list(np.linspace(lo, hi, NUM_REDUCERS + 1)[1:-1].astype(np.int64)), NUM_REDUCERS
    )
    uniform_skew = reducer_skew(uniform, all_keys)
    exp.add(method="uniform ranges", sample_size="-", skew=uniform_skew)

    skews = {}
    for sample_size in (64, 256, 1024):
        def prog(comm, sample_size=sample_size):
            local = skewed_keys(comm.rank)
            sample = reservoir_sample(local, sample_size, np.random.default_rng(comm.rank))
            merged = [s for chunk in comm.allgather(sample) for s in chunk]
            return quantile_boundaries(merged, NUM_REDUCERS)

        boundaries = run_mpi(prog, RANKS).results[0]
        sampled = RangePartitioner(boundaries, NUM_REDUCERS)
        skews[sample_size] = reducer_skew(sampled, all_keys)
        exp.add(method="sampled quantiles", sample_size=sample_size, skew=skews[sample_size])

    exp.note("skew = max/mean reducer load; 1.0 is perfect balance")
    return exp, uniform_skew, skews


def test_sampling_ablation(benchmark, reporter):
    exp, uniform_skew, skews = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    reporter.record(exp)
    # sampling removes almost all of the skew the uniform ranges suffer
    shape(uniform_skew > 4.0, f"uniform ranges badly skewed on Pareto keys ({uniform_skew:.1f}x)")
    for size, skew in skews.items():
        shape(skew < uniform_skew / 2, f"sample={size} at least halves the skew ({skew:.2f}x)")
    shape(
        skews[1024] <= skews[64] * 1.1,
        "larger samples do not hurt balance",
    )


def test_reservoir_kernel(benchmark):
    """Kernel timing: reservoir sampling 1024 of 50k keys."""
    keys = skewed_keys(0)
    out = benchmark(reservoir_sample, keys, 1024)
    assert len(out) == 1024

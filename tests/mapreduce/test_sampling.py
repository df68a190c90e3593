"""Reservoir sampling and range-boundary derivation."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import MapReduceError
from repro.mapreduce import reservoir_sample
from repro.mapreduce.partitioner import RangePartitioner
from repro.mapreduce.sampling import gather_key_sample, quantile_boundaries
from repro.mpi import run_mpi


class TestReservoirSample:
    def test_small_input_returned_whole(self):
        assert sorted(reservoir_sample([3, 1, 2], 10)) == [1, 2, 3]

    def test_sample_size_respected(self):
        s = reservoir_sample(list(range(1000)), 32)
        assert len(s) == 32
        assert all(x in range(1000) for x in s)

    def test_deterministic_with_same_rng(self):
        a = reservoir_sample(list(range(100)), 10, np.random.default_rng(7))
        b = reservoir_sample(list(range(100)), 10, np.random.default_rng(7))
        assert a == b

    def test_negative_k_rejected(self):
        with pytest.raises(MapReduceError):
            reservoir_sample([1], -1)

    def test_approximately_uniform(self):
        """Mean of many samples of U[0,1000) should be near 500."""
        rng = np.random.default_rng(0)
        means = [
            np.mean(reservoir_sample(list(range(1000)), 50, rng)) for _ in range(40)
        ]
        assert 400 < np.mean(means) < 600

    @given(st.lists(st.integers(), max_size=200), st.integers(0, 50))
    def test_sample_is_subset(self, items, k):
        s = reservoir_sample(items, k)
        assert len(s) == min(k, len(items))
        remaining = list(items)
        for x in s:
            remaining.remove(x)  # raises if not a sub-multiset


class TestQuantileBoundaries:
    def test_single_reducer_no_boundaries(self):
        assert quantile_boundaries([1, 2, 3], 1) == []

    def test_even_split(self):
        b = quantile_boundaries(list(range(100)), 4)
        assert b == [25, 50, 75]

    def test_empty_sample_rejected(self):
        with pytest.raises(MapReduceError):
            quantile_boundaries([], 2)

    def test_boundaries_ascending(self):
        b = quantile_boundaries([5, 1, 9, 3, 7, 2, 8], 3)
        assert b == sorted(b)

    @given(st.lists(st.integers(-100, 100), min_size=1, max_size=100), st.integers(2, 10))
    def test_property_valid_for_range_partitioner(self, samples, nred):
        b = quantile_boundaries(samples, nred)
        RangePartitioner(b, nred)  # must construct without error


class TestDistributedSampling:
    def test_all_ranks_agree_on_boundaries(self):
        def prog(comm):
            rng = np.random.default_rng(comm.rank)
            local = list(rng.integers(0, 10_000, size=500))
            return RangePartitioner.sampled(comm, local, 4, sample_size=128).boundaries

        run = run_mpi(prog, 4)
        assert all(b == run.results[0] for b in run.results)
        assert len(run.results[0]) == 3

    def test_balances_skewed_data(self):
        """Zipf-like keys: sampled ranges beat uniform ranges on reducer skew."""

        def prog(comm):
            rng = np.random.default_rng(100 + comm.rank)
            local = list((rng.pareto(1.5, size=2000) * 100).astype(int))
            part = RangePartitioner.sampled(comm, local, 4, sample_size=512)
            counts = [0, 0, 0, 0]
            for k in local:
                counts[part(k)] += 1
            return counts

        run = run_mpi(prog, 4)
        totals = np.sum(run.results, axis=0)
        # with sampling, no reducer should hold more than 60% of the data
        assert totals.max() / totals.sum() < 0.6

    def test_empty_everywhere_raises(self):
        def prog(comm):
            return quantile_boundaries(gather_key_sample(comm, [], sample_size=1024), 2)

        from repro.errors import MPIError

        with pytest.raises((MapReduceError, MPIError)):
            run_mpi(prog, 2)

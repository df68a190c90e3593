"""Partitioner behaviour and invariants."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import MapReduceError
from repro.mapreduce import ExplicitPartitioner, HashPartitioner, RangePartitioner
from repro.mapreduce.partitioner import stable_hash


class TestStableHash:
    def test_int_identity_like(self):
        assert stable_hash(5) == 5
        assert stable_hash(0) == 0

    def test_negative_int_nonnegative(self):
        assert stable_hash(-17) >= 0

    def test_str_and_bytes_deterministic(self):
        assert stable_hash("abc") == stable_hash("abc")
        assert stable_hash(b"abc") == stable_hash(b"abc")

    @given(st.one_of(st.integers(), st.text(), st.binary(), st.tuples(st.integers(), st.text())))
    def test_always_in_reducer_range(self, key):
        h = stable_hash(key)
        assert h >= 0


class TestHashPartitioner:
    def test_range(self):
        p = HashPartitioner(7)
        assert all(0 <= p(k) < 7 for k in range(1000))

    def test_deterministic(self):
        p = HashPartitioner(4)
        assert [p(k) for k in ["a", "b", "c"]] == [p(k) for k in ["a", "b", "c"]]

    def test_zero_reducers_rejected(self):
        with pytest.raises(MapReduceError):
            HashPartitioner(0)


class TestRangePartitioner:
    def test_assignment(self):
        p = RangePartitioner([10, 20], num_reducers=3)
        assert p(5) == 0
        assert p(10) == 0  # bisect_left: boundary key stays in its bucket
        assert p(11) == 1
        assert p(20) == 1
        assert p(21) == 2
        assert p(1000) == 2

    def test_order_preserving(self):
        p = RangePartitioner([10, 20, 30], num_reducers=4)
        keys = sorted([3, 14, 15, 92, 6, 53, 5, 8, 28])
        buckets = [p(k) for k in keys]
        assert buckets == sorted(buckets)

    def test_wrong_boundary_count(self):
        with pytest.raises(MapReduceError, match="boundaries"):
            RangePartitioner([1, 2, 3], num_reducers=3)

    def test_descending_boundaries_rejected(self):
        with pytest.raises(MapReduceError, match="ascending"):
            RangePartitioner([5, 1], num_reducers=3)

    @given(
        st.lists(st.integers(-1000, 1000), min_size=1, max_size=50),
        st.integers(2, 8),
    )
    def test_property_order_preserving(self, keys, nred):
        boundaries = sorted(keys)[: nred - 1]
        boundaries += [boundaries[-1]] * (nred - 1 - len(boundaries)) if boundaries else [0] * (nred - 1)
        p = RangePartitioner(sorted(boundaries), num_reducers=nred)
        ks = sorted(keys)
        buckets = [p(k) for k in ks]
        assert buckets == sorted(buckets)


class TestExplicitPartitioner:
    def test_key_is_reducer(self):
        p = ExplicitPartitioner(4)
        assert [p(i) for i in range(4)] == [0, 1, 2, 3]

    def test_out_of_range_rejected(self):
        p = ExplicitPartitioner(4)
        with pytest.raises(MapReduceError):
            p(4)
        with pytest.raises(MapReduceError):
            p(-1)

"""Index-width selection: int32 until it could wrap, int64 beyond.

``_INT32_MAX`` is module-level precisely so this test can lower it and
exercise the int64 escape hatch without allocating 2**31 records.
"""

import numpy as np
import pytest

import repro.mapreduce.columnar as columnar
from repro.mapreduce.columnar import KVBatch, bucketize, group, index_dtype


class TestIndexDtype:
    def test_small_batches_use_int32(self):
        assert index_dtype(0) == np.dtype(np.int32)
        assert index_dtype(np.iinfo(np.int32).max) == np.dtype(np.int32)

    def test_beyond_int32_max_uses_int64(self):
        assert index_dtype(np.iinfo(np.int32).max + 1) == np.dtype(np.int64)

    def test_threshold_is_patchable(self, monkeypatch):
        monkeypatch.setattr(columnar, "_INT32_MAX", 4)
        assert index_dtype(4) == np.dtype(np.int32)
        assert index_dtype(5) == np.dtype(np.int64)


class TestBucketizePastThreshold:
    @pytest.fixture(autouse=True)
    def tiny_threshold(self, monkeypatch):
        monkeypatch.setattr(columnar, "_INT32_MAX", 4)

    def test_indices_widen_and_stay_correct(self):
        owners = np.array([2, 0, 1, 0, 2, 2, 1, 0])  # size 8 > patched max 4
        buckets = bucketize(owners, 3)
        assert all(b.dtype == np.int64 for b in buckets)
        expected = [np.flatnonzero(owners == b) for b in range(3)]
        for got, want in zip(buckets, expected):
            assert np.array_equal(got, want)

    def test_small_batch_keeps_int32(self):
        buckets = bucketize(np.array([1, 0, 1]), 2)
        assert all(b.dtype == np.int32 for b in buckets)


class TestGroupPastThreshold:
    @pytest.fixture(autouse=True)
    def tiny_threshold(self, monkeypatch):
        monkeypatch.setattr(columnar, "_INT32_MAX", 4)

    @pytest.mark.parametrize("order", ["first-seen", "key"])
    def test_offsets_widen_and_grouping_is_unchanged(self, order):
        keys = np.array([3, 1, 3, 2, 1, 3], dtype=np.int64)
        values = np.arange(6, dtype=np.int64)
        grouped = group(KVBatch(keys=keys, values=values), order=order)
        assert grouped.offsets.dtype == np.int64
        offs = grouped.offsets.tolist()
        by_key = {
            k: grouped.values[offs[g] : offs[g + 1]].tolist()
            for g, k in enumerate(grouped.keys.tolist())
        }
        assert by_key == {3: [0, 2, 5], 1: [1, 4], 2: [3]}

    def test_small_batch_keeps_int32_offsets(self):
        grouped = group(
            KVBatch(keys=np.array([1, 1]), values=np.array([5, 6]))
        )
        assert grouped.offsets.dtype == np.int32

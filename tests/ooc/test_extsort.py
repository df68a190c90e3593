"""External merge sort: equivalence with the in-memory stable sort."""

import numpy as np
import pytest

from repro.ooc.budget import MemoryBudget
from repro.ooc.extsort import (
    ExternalSorter,
    external_sort_chunks,
    merge_run_frames,
    sort_key_array,
)
from repro.ooc.spill import OOCContext

DT = np.dtype([("key", "<i8"), ("payload", "<i4")])


def make_records(n, seed=0, key_range=50):
    rng = np.random.default_rng(seed)
    out = np.zeros(n, dtype=DT)
    out["key"] = rng.integers(0, key_range, n)  # narrow range -> many ties
    out["payload"] = np.arange(n)  # input ordinal, to observe stability
    return out


def chunked(arr, size):
    for pos in range(0, len(arr), size):
        chunk = arr[pos : pos + size]
        yield chunk["key"].copy(), chunk.copy()


def reference_sort(arr, ascending=True):
    keys = sort_key_array(arr["key"], ascending)
    return arr[np.argsort(keys, kind="stable")]


def make_ctx(tmp_path, budget="1KB", max_fanin=8):
    return OOCContext(MemoryBudget(budget), str(tmp_path), max_fanin=max_fanin)


class TestSortKeyArray:
    def test_descending_negates_instead_of_reversing(self):
        col = np.array([3, 1, 3, 2], dtype=np.int64)
        asc = sort_key_array(col, True)
        desc = sort_key_array(col, False)
        assert np.array_equal(asc, col)
        assert np.array_equal(desc, -col)

    def test_unsigned_keys_widen_before_negation(self):
        col = np.array([0, 2**31 + 5], dtype=np.uint32)
        desc = sort_key_array(col, False)
        assert desc.dtype == np.int64
        assert desc[1] < desc[0]


class TestExternalSorter:
    @pytest.mark.parametrize("chunk_size", [1, 7, 64, 1000])
    def test_matches_in_memory_stable_sort(self, tmp_path, chunk_size):
        arr = make_records(500, seed=1)
        ctx = make_ctx(tmp_path)
        sorter = external_sort_chunks(chunked(arr, chunk_size), ctx, DT)
        assert np.array_equal(sorter.sorted_values(), reference_sort(arr))

    def test_descending_matches_negated_key_sort(self, tmp_path):
        arr = make_records(300, seed=2)
        ctx = make_ctx(tmp_path)
        keys = sort_key_array(arr["key"], ascending=False)
        sorter = ExternalSorter(ctx, DT)
        for pos in range(0, len(arr), 37):
            sorter.add_chunk(keys[pos : pos + 37], arr[pos : pos + 37])
        assert np.array_equal(sorter.sorted_values(), reference_sort(arr, ascending=False))

    def test_stability_across_runs(self, tmp_path):
        # all-equal keys: output must replay input order exactly
        arr = make_records(200, seed=3, key_range=1)
        ctx = make_ctx(tmp_path)
        sorter = external_sort_chunks(chunked(arr, 13), ctx, DT)
        assert np.array_equal(sorter.sorted_values()["payload"], arr["payload"])

    def test_multi_pass_merge_when_runs_exceed_fanin(self, tmp_path):
        arr = make_records(600, seed=4)
        ctx = make_ctx(tmp_path, max_fanin=3)
        # chunk 20 -> 30 initial runs >> fan-in 3, forcing merge passes
        sorter = external_sort_chunks(chunked(arr, 20), ctx, DT, max_fanin=3)
        assert len(sorter.runs) == 30
        result = sorter.sorted_values()
        assert np.array_equal(result, reference_sort(arr))
        stats = ctx.stats.as_dict()
        assert stats["max_merge_fanin"] == 3
        assert stats["runs_written"] > 30  # intermediate merged runs counted too

    def test_empty_input(self, tmp_path):
        ctx = make_ctx(tmp_path)
        sorter = ExternalSorter(ctx, DT)
        assert len(sorter.sorted_values()) == 0
        assert list(sorter.merged_frames()) == []

    def test_single_run_streams_verbatim(self, tmp_path):
        arr = make_records(40, seed=5)
        ctx = make_ctx(tmp_path, budget="1MB")  # one chunk, one run
        sorter = external_sort_chunks(chunked(arr, 1000), ctx, DT)
        assert len(sorter.runs) == 1
        assert np.array_equal(sorter.sorted_values(), reference_sort(arr))
        assert ctx.stats.as_dict()["max_merge_fanin"] == 0  # no merge happened

    def test_frames_bounded_by_budget(self, tmp_path):
        arr = make_records(400, seed=6)
        ctx = make_ctx(tmp_path, budget="1KB")
        sorter = external_sort_chunks(chunked(arr, 50), ctx, DT)
        for frame in sorter.merged_frames():
            assert len(frame) <= sorter.frame_records


class TestMergeRunFrames:
    def test_merges_presorted_runs_with_tie_break_by_ordinal(self, tmp_path):
        ctx = make_ctx(tmp_path)
        sorter = ExternalSorter(ctx, DT)
        a = make_records(30, seed=7, key_range=5)
        b = make_records(30, seed=8, key_range=5)
        b["payload"] += 1000  # distinguish origin
        sorter.add_chunk(*_sorted(a))
        sorter.add_chunk(*_sorted(b))
        merged = np.concatenate(
            [f.values for f in merge_run_frames(sorter.runs, 16)]
        )
        # equal keys: run 0's records must precede run 1's
        for key in np.unique(merged["key"]):
            payloads = merged["payload"][merged["key"] == key]
            from_a = payloads < 1000
            assert not np.any(~from_a[:-1] & from_a[1:])  # no a after b

    def test_empty_manifest_list(self):
        assert list(merge_run_frames([], 16)) == []


def _sorted(arr):
    order = np.argsort(arr["key"], kind="stable")
    return arr["key"][order], arr[order]

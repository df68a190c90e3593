"""The block merge: stable for any framing, any fan-in and any float key.

``merge_run_frames`` cuts every run's resident frame at the smallest
frame-last key and sorts what it cut as one block.  What can go wrong is a
tie that straddles frame boundaries across runs, so the property test keeps
the key range tiny and the frames tinier.
"""

import gc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dataset import Dataset
from repro.formats.records import Field, RecordSchema
from repro.ooc.budget import MemoryBudget
from repro.ooc.extsort import ExternalSorter, external_sort_records, merge_run_frames
from repro.ooc.runfile import RunWriter
from repro.ooc.spill import OOCContext
from repro.ops.sort import Sort
from repro.order import sort_key_array

DT = np.dtype([("key", "<i8"), ("ordinal", "<i8")])


def write_runs(tmp_path, runs, frame_sizes, key_dtype="<i8"):
    """One run file per sorted key list, framed ``frame_sizes[i]`` at a time;
    values carry the record's ordinal in the concatenation of all runs."""
    manifests, ordinal = [], 0
    for i, (keys, frame) in enumerate(zip(runs, frame_sizes)):
        values = np.zeros(len(keys), dtype=DT)
        values["key"] = keys
        values["ordinal"] = np.arange(ordinal, ordinal + len(keys))
        ordinal += len(keys)
        writer = RunWriter(str(tmp_path / f"run{i}.run"), DT, np.dtype(key_dtype), source=0)
        for pos in range(0, len(keys), frame):
            writer.append(values[pos : pos + frame], keys=values["key"][pos : pos + frame])
        manifests.append(writer.close())
    return manifests


def merged_ordinals(manifests, frame_records):
    frames = list(merge_run_frames(manifests, frame_records))
    assert all(0 < len(f) <= frame_records for f in frames)
    for f in frames:
        assert np.array_equal(f.keys, f.values["key"])
    if not frames:
        return np.empty(0, dtype=np.int64)
    return np.concatenate([f.values["ordinal"] for f in frames])


def stable_order(runs):
    keys = np.concatenate([np.asarray(r, dtype=np.int64) for r in runs])
    return np.argsort(keys, kind="stable")


sorted_runs = st.lists(
    st.lists(st.integers(0, 4), max_size=24).map(sorted), min_size=2, max_size=6
)


class TestBlockMergeProperty:
    @settings(max_examples=150, deadline=None)
    @given(runs=sorted_runs, data=st.data())
    def test_equals_stable_argsort_of_the_concatenation(self, tmp_path_factory, runs, data):
        frame_sizes = [data.draw(st.integers(1, 7)) for _ in runs]
        frame_records = data.draw(st.integers(1, 7))
        tmp_path = tmp_path_factory.mktemp("merge")
        manifests = write_runs(tmp_path, runs, frame_sizes)
        assert np.array_equal(
            merged_ordinals(manifests, frame_records), stable_order(runs)
        )

    @pytest.mark.parametrize("frame", [1, 2, 3, 7])
    def test_all_equal_keys_replay_input_order(self, tmp_path, frame):
        runs = [[3] * 9, [3] * 4, [3] * 11]
        manifests = write_runs(tmp_path, runs, [frame] * 3)
        assert np.array_equal(merged_ordinals(manifests, 5), np.arange(24))

    def test_tie_continues_in_the_owners_next_frame(self, tmp_path):
        # run 0's first frame ends on 1 and its next frame continues the
        # tie: run 1's 1s must wait until run 0 has moved past 1
        runs = [[0, 1, 1, 1, 2], [1, 1, 3]]
        manifests = write_runs(tmp_path, runs, [2, 3])
        assert np.array_equal(merged_ordinals(manifests, 4), stable_order(runs))

    def test_empty_runs_and_a_single_record(self, tmp_path):
        runs = [[], [2], []]
        manifests = write_runs(tmp_path, runs, [1, 1, 1])
        assert np.array_equal(merged_ordinals(manifests, 3), [0])
        assert merged_ordinals(write_runs(tmp_path, [[], []], [1, 1]), 3).size == 0

    @pytest.mark.parametrize("max_fanin", [2, 3])
    @settings(max_examples=40, deadline=None)
    @given(
        keys=st.lists(st.integers(0, 4), max_size=60),
        chunk=st.integers(1, 9),
        frame_records=st.integers(1, 7),
    )
    def test_multi_pass_merges_stay_stable(
        self, tmp_path_factory, max_fanin, keys, chunk, frame_records
    ):
        ctx = OOCContext(MemoryBudget("1KB"), str(tmp_path_factory.mktemp("passes")))
        sorter = ExternalSorter(ctx, DT, max_fanin=max_fanin)
        sorter.frame_records = frame_records
        arr = np.zeros(len(keys), dtype=DT)
        arr["key"] = keys
        arr["ordinal"] = np.arange(len(keys))
        for pos in range(0, len(arr), chunk):
            sorter.add_chunk(arr["key"][pos : pos + chunk], arr[pos : pos + chunk])
        frames = list(sorter.merged_frames())
        assert all(len(f) <= frame_records for f in frames)
        expected = arr[np.argsort(arr["key"], kind="stable")]
        assert np.array_equal(sorter.sorted_values(), expected)  # second pass over the runs
        if frames:
            assert np.array_equal(np.concatenate([f.values for f in frames]), expected)
        assert ctx.stats.max_merge_fanin <= max_fanin

    def test_descending_int32_holding_the_dtype_minimum(self, tmp_path):
        column = np.array([5, -(2**31), 7, -(2**31), 0, 7, 5, -3], dtype=np.int32)
        keys = sort_key_array(column, ascending=False)
        ctx = OOCContext(MemoryBudget("1KB"), str(tmp_path))
        dt = np.dtype([("key", "<i4"), ("ordinal", "<i8")])
        sorter = ExternalSorter(ctx, dt, keys.dtype, max_fanin=2)
        sorter.frame_records = 2
        values = np.zeros(len(column), dtype=dt)
        values["key"] = column
        values["ordinal"] = np.arange(len(column))
        for pos in range(0, len(column), 3):
            sorter.add_chunk(keys[pos : pos + 3], values[pos : pos + 3])
        expected = values[np.argsort(keys, kind="stable")]
        assert np.array_equal(sorter.sorted_values(), expected)
        assert list(expected["key"][-2:]) == [-(2**31)] * 2  # smallest last


SCORE_SCHEMA = RecordSchema("scored", (Field("score", "double"), Field("ordinal", "long")))


class TestNaNKeys:
    """A float key holding NaN: numpy sorts NaN last and equal to itself;
    the merge must order its bounds the same way (a heap of Python tuples
    did not, and silently produced different partitions under a budget)."""

    @pytest.mark.parametrize("ascending", [True, False])
    def test_external_sort_matches_the_in_memory_sort(self, tmp_path, ascending):
        rng = np.random.default_rng(16)
        n = 2000
        records = np.zeros(n, dtype=SCORE_SCHEMA.dtype)
        records["score"] = rng.integers(0, 40, n)  # ties as well as NaNs
        records["score"][rng.choice(n, 100, replace=False)] = np.nan
        records["ordinal"] = np.arange(n)
        ctx = OOCContext(MemoryBudget("4KB"), str(tmp_path))
        chunk = ctx.chunk_records(SCORE_SCHEMA.itemsize)
        view = external_sort_records(
            (records[pos : pos + chunk] for pos in range(0, n, chunk)),
            "score", ascending, ctx, SCORE_SCHEMA,
        )
        assert ctx.stats.runs_written > ctx.max_fanin  # multi-pass too
        expected = Sort("score", ascending=ascending).apply_local(
            Dataset(schema=SCORE_SCHEMA, records=records)
        )
        got = view.materialize().records
        assert np.array_equal(got["ordinal"], expected.records["ordinal"])
        assert np.isnan(got["score"][-100:]).all()


class TestReaderHygiene:
    def test_abandoned_merge_closes_every_run_file(self, tmp_path):
        ctx = OOCContext(MemoryBudget("1KB"), str(tmp_path))
        sorter = ExternalSorter(ctx, DT)
        rng = np.random.default_rng(3)
        for _ in range(5):
            values = np.zeros(60, dtype=DT)
            values["key"] = rng.integers(0, 50, 60)
            sorter.add_chunk(values["key"], values)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            frames = sorter.merged_frames()
            next(frames)
            frames.close()  # what a consumer that raises mid-merge amounts to
            del frames
            gc.collect()
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []

    def test_merge_that_fails_to_open_a_run_closes_the_rest(self, tmp_path):
        manifests = write_runs(tmp_path, [[1, 2], [1, 3], [2, 4]], [1, 1, 1])
        (tmp_path / "run2.run").unlink()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with pytest.raises(FileNotFoundError):
                list(merge_run_frames(manifests, 4))
            gc.collect()
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []

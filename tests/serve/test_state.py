"""Generations, the append log, and the atomic-swap discipline."""

import numpy as np
import pytest

from repro.formats import BLAST_INDEX_SCHEMA
from repro.serve import PartitionGeneration, ServeError, ServeState


def records(n, start=0):
    return BLAST_INDEX_SCHEMA.to_structured(
        [(start + i, 40 + i, i, 40) for i in range(n)]
    )


class TestPartitionGeneration:
    def test_from_partitions_counts(self):
        gen = PartitionGeneration.from_partitions(
            0, [records(3), records(5)], rebuilt_records=8
        )
        assert gen.num_partitions == 2
        assert gen.total_records == 8
        assert list(gen.counts) == [3, 5]

    def test_append_updates_counts_and_materializes(self):
        gen = PartitionGeneration.from_partitions(0, [records(3)], 3)
        gen.deal(records(2, start=100), np.array([0, 0]))
        assert gen.total_records == 5
        out = gen.partition_records(0)
        assert len(out) == 5
        assert out["seq_start"][-1] == 101

    def test_append_empty_batch_is_a_noop(self):
        gen = PartitionGeneration.from_partitions(0, [records(3)], 3)
        gen.deal(records(0), np.array([], dtype=np.int64))
        assert len(gen.chunks[0]) == 1

    def test_mixed_schema_chunks_refuse_to_materialize(self):
        other = np.array([(1, 2)], dtype=[("a", "i8"), ("b", "i8")])
        gen = PartitionGeneration.from_partitions(0, [records(3)], 3)
        gen.deal(other, np.array([0]))
        with pytest.raises(ServeError, match="mixed-schema"):
            gen.partition_records(0)

    def test_key_range_and_stats(self):
        gen = PartitionGeneration.from_partitions(
            0, [records(4), records(0)], 4
        )
        assert gen.key_range(0, "seq_size") == (40, 43)
        assert gen.key_range(1, "seq_size") is None
        stats = gen.stats("seq_size")
        assert stats[0] == {"id": 0, "records": 4, "key_min": 40, "key_max": 43}
        assert stats[1] == {"id": 1, "records": 0}


def walked_key_range(gen, pid, key_field):
    """The chunk-walking answer ``key_range`` gave before it kept a running
    (min, max): min/max of every chunk that carries the field."""
    cols = [c[key_field] for c in gen.chunks[pid]
            if len(c) and key_field in (c.dtype.names or ())]
    if not cols:
        return None
    return (min(c.min() for c in cols).item(), max(c.max() for c in cols).item())


class TestDeal:
    def test_one_gather_views_in_arrival_order(self):
        gen = PartitionGeneration.from_partitions(
            0, [records(2), records(0), records(1)], 3
        )
        batch = records(7, start=100)
        owners = np.array([2, 0, 2, 2, 0, 2, 0])
        gen.deal(batch, owners)
        assert list(gen.counts) == [5, 0, 5]
        assert len(gen.chunks[1]) == 1  # an untouched partition gets no chunk
        for pid in (0, 2):
            chunk = gen.chunks[pid][-1]
            np.testing.assert_array_equal(chunk, batch[owners == pid])
        # every dealt chunk is a view of the same gathered array, not a copy
        assert gen.chunks[0][-1].base is gen.chunks[2][-1].base is not None

    @pytest.mark.parametrize("owners", [[0, 2], [-1, 0], [0], []])
    def test_owner_range_and_length_are_checked_first(self, owners):
        gen = PartitionGeneration.from_partitions(0, [records(1), records(1)], 2)
        with pytest.raises(ServeError, match="cannot deal"):
            gen.deal(records(2), np.array(owners, dtype=np.int64))
        assert list(gen.counts) == [1, 1]
        assert [len(c) for c in gen.chunks] == [1, 1]


class TestRunningKeyRange:
    def test_tracked_range_equals_the_chunk_walk_on_mixed_schema_chunks(self):
        """Base chunks in another schema (one without the key at all), dealt
        batches with and without the key and an empty partition: the running range
        must say what walking every chunk says, values and types."""
        other = np.array([(7, 900), (8, -5)],
                         dtype=[("seq_size", "<i8"), ("tag", "<i8")])
        keyless = np.array([(1,), (2,)], dtype=[("tag", "<i8")])
        gen = PartitionGeneration.from_partitions(
            0, [records(4), other, keyless, records(0)], 8,
            key_field="seq_size",
        )
        rng = np.random.default_rng(5)
        for start in range(0, 300, 30):
            batch = records(30, start=start)
            batch["seq_size"] = rng.integers(-1000, 1000, 30)
            gen.deal(batch, rng.integers(0, 3, 30))
        gen.deal(records(3, start=5000), np.array([1, 1, 1]))
        gen.deal(keyless, np.array([2, 2]))
        for pid in range(4):
            tracked = gen.key_range(pid, "seq_size")
            assert tracked == walked_key_range(gen, pid, "seq_size")
            if tracked is not None:
                assert [type(v) for v in tracked] == [int, int]
        assert gen.key_range(3, "seq_size") is None
        assert gen.stats("seq_size") == [
            {"id": pid, "records": int(gen.counts[pid]),
             **({"key_min": r[0], "key_max": r[1]} if r else {})}
            for pid in range(4)
            for r in [walked_key_range(gen, pid, "seq_size")]
        ]

    def test_an_untracked_field_still_answers_by_walking(self):
        gen = PartitionGeneration.from_partitions(
            0, [records(4)], 4, key_field="seq_size"
        )
        gen.deal(records(2, start=50), np.array([0, 0]))
        assert gen.key_range(0, "seq_start") == (0, 51)

    def test_track_reseeds_from_the_chunks_held(self):
        gen = PartitionGeneration.from_partitions(0, [records(4)], 4)
        gen.deal(records(2, start=10), np.array([0, 0]))
        assert gen.key_ranges == []
        gen.track("seq_size")
        assert gen.key_ranges == [(40, 43)]


class TestServeState:
    def test_log_is_ground_truth(self):
        state = ServeState()
        state.append_log(records(10))
        state.append_log(records(5))
        assert state.log_records == 15
        frozen = state.freeze_log()
        state.append_log(records(1))
        assert len(frozen) == 15  # the view pinned the prefix
        assert [len(b) for b in state.log] == [10, 5, 1]

    def test_a_frozen_prefix_is_read_only_and_outlives_growth(self):
        state = ServeState()
        state.append_log(records(3))
        state.admit(records(2, start=3))
        frozen = state.freeze_log()
        before = frozen.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            frozen["seq_size"][0] = 0
        grown_from = state._buf
        for i in range(40):  # past several doublings of the buffer
            state.admit(records(7, start=100 + 7 * i))
        assert state._buf is not grown_from
        assert frozen.tobytes() == before
        assert state.freeze_log()[:5].tobytes() == before
        assert state.log_records == 5 + 40 * 7 and len(state.log) == 42

    def test_undealt_is_everything_past_the_last_pass(self):
        state = ServeState()
        state.append_log(records(4))
        assert state.pending == 0
        state.admit(records(2, start=4))
        state.admit(records(3, start=6))
        assert state.pending == 2
        undealt, batches = state.take_undealt()
        assert batches == 2 and not undealt.flags.writeable
        assert undealt["seq_start"].tolist() == list(range(4, 9))
        assert state.pending == 0 and state.take_undealt()[1] == 0

    def test_the_log_holds_one_dtype(self):
        state = ServeState()
        state.append_log(records(2))
        other = np.zeros(2, dtype=[("seq_start", "<i8")])
        with pytest.raises(ServeError, match="dtype"):
            state.admit(other)
        assert state.log_records == 2

    def test_a_log_of_object_records_is_copied_by_numpy(self):
        """A schema with a ``string`` field has no byte layout to copy; its
        warm-start log still grows like any other."""
        named = np.array([("a", 1), ("bb", 2)], dtype=[("name", object), ("id", "<i8")])
        state = ServeState()
        state.append_log(named)
        state.admit(named[1:])
        assert state.freeze_log().tolist() == [("a", 1), ("bb", 2), ("bb", 2)]
        assert [len(b) for b in state.log] == [2, 1]

    def test_swap_must_advance_the_generation(self):
        state = ServeState()
        state.swap(PartitionGeneration.from_partitions(1, [records(1)], 1))
        with pytest.raises(ServeError, match="must advance"):
            state.swap(PartitionGeneration.from_partitions(1, [records(1)], 1))
        state.swap(PartitionGeneration.from_partitions(2, [records(1)], 1))
        assert state.current.generation == 2

    def test_drift_fraction(self):
        state = ServeState()
        assert state.drift_fraction == 0.0
        state.append_log(records(8))
        state.swap(PartitionGeneration.from_partitions(1, [records(8)], 8))
        assert state.drift_fraction == 0.0
        state.append_log(records(2))
        assert state.drift_fraction == pytest.approx(0.2)

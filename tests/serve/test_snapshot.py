"""Versioned snapshots: publish order, restore fidelity, pruning."""

import numpy as np
import pytest

from repro.fault import MemoryCheckpointStore
from repro.formats import BLAST_INDEX_SCHEMA
from repro.serve import PartitionGeneration, ServeError, ServeState, SnapshotStore
from repro.serve.snapshot import CURRENT_KEY, snapshot_id

from tests.serve._driver import partition_records


def records(n, start=0):
    return BLAST_INDEX_SCHEMA.to_structured(
        [(start + i, 40 + i, i, 40) for i in range(n)]
    )


def make_state(generation=0, counts=(3, 5)):
    state = ServeState()
    state.append_log(records(sum(counts)))
    state.current = PartitionGeneration.from_partitions(
        generation, [records(c, start=100 * i) for i, c in enumerate(counts)],
        state.log_records,
    )
    return state


class TestPublishRestore:
    def test_roundtrip_is_bit_identical(self, tmp_path):
        store = SnapshotStore(str(tmp_path))
        state = make_state()
        sid = store.publish(state, "wf")
        assert sid == snapshot_id(0)
        restored, meta = store.load_latest()
        assert meta["workflow_id"] == "wf"
        assert meta["log_records"] == state.log_records
        assert restored.log_records == state.log_records
        assert restored.current.generation == 0
        for pid in range(2):
            np.testing.assert_array_equal(
                partition_records(restored.current, pid),
                partition_records(state.current, pid),
            )

    def test_no_snapshot_yet_restores_none(self, tmp_path):
        store = SnapshotStore(str(tmp_path))
        assert store.current_generation() is None
        assert store.load_latest() is None

    def test_nothing_live_refuses_to_publish(self, tmp_path):
        with pytest.raises(ServeError, match="no generation"):
            SnapshotStore(str(tmp_path)).publish(ServeState(), "wf")

    def test_torn_generation_is_reported(self):
        backing = MemoryCheckpointStore()
        store = SnapshotStore(backing)
        store.publish(make_state(), "wf")
        backing.delete(f"serve/{snapshot_id(0)}/part00001")
        with pytest.raises(ServeError, match="incomplete"):
            store.load_latest()

    def test_current_pointer_tracks_the_newest(self):
        backing = MemoryCheckpointStore()
        store = SnapshotStore(backing, retain=10)
        store.publish(make_state(generation=0), "wf")
        store.publish(make_state(generation=3), "wf")
        assert store.current_generation() == 3
        assert backing.load(CURRENT_KEY) == {"generation": 3}


class TestParentFormat:
    def test_a_snapshot_of_batch_arrays_restores_into_one_log(self):
        """The on-disk ``log`` key has always been a list of batch arrays:
        one written key by key, as snapshots were before the log became
        one buffer, restores, and the restored log takes appends."""
        backing = MemoryCheckpointStore()
        batches = [records(6), records(2, start=6), records(3, start=8)]
        parts = [[records(4)], [records(2, start=4), records(5, start=6)]]
        prefix = f"serve/{snapshot_id(5)}"
        for pid, chunks in enumerate(parts):
            backing.save(f"{prefix}/part{pid:05d}", chunks)
        backing.save(f"{prefix}/log", batches)
        backing.save(f"{prefix}/meta", {
            "generation": 5, "workflow_id": "wf", "num_partitions": 2,
            "rebuilt_records": 6, "log_records": 11, "log_batches": 3,
            "created_unix": 0.0,
        })
        backing.save(CURRENT_KEY, {"generation": 5})
        state, meta = SnapshotStore(backing).load_latest()
        assert meta["log_batches"] == 3
        assert (state.log_records, state.pending) == (11, 0)
        assert [b.tolist() for b in state.log] == [b.tolist() for b in batches]
        assert state.current.counts.tolist() == [4, 7]
        assert state.current.rebuilt_records == 6
        state.admit(records(1, start=11))
        assert state.pending == 1
        assert state.freeze_log()["seq_start"].tolist() == list(range(12))

    def test_publish_writes_that_format(self):
        backing = MemoryCheckpointStore()
        state = make_state()
        state.admit(records(2, start=8))
        SnapshotStore(backing).publish(state, "wf")
        log = backing.load(f"serve/{snapshot_id(0)}/log")
        assert isinstance(log, list)
        assert [b.tolist() for b in log] == [records(8).tolist(),
                                              records(2, start=8).tolist()]


class TestPruning:
    def test_retention_window(self):
        store = SnapshotStore(MemoryCheckpointStore(), retain=2)
        for gen in range(4):
            store.publish(make_state(generation=gen), "wf")
        kept = {g for g in range(4)
                if f"serve/{snapshot_id(g)}/meta" in store.store}
        assert kept == {2, 3}
        # the survivors still restore
        assert store.load_latest()[1]["generation"] == 3

    def test_retain_floor_is_one(self):
        store = SnapshotStore(MemoryCheckpointStore(), retain=0)
        assert store.retain == 1

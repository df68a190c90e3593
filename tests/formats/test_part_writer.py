"""The offset-addressed part writer: one owner of the ``part-NNNNN`` layout."""

import os
import sys
import threading

import numpy as np
import pytest

from repro.errors import FormatError
from repro.formats import BLAST_INDEX_SCHEMA, EDGE_LIST_SCHEMA, read_binary, write_partitions
from repro.formats.binary import PartWriter, map_binary

HEADER = bytes(range(32))


def records(n, seed=3):
    rng = np.random.default_rng(seed)
    arr = np.zeros(n, dtype=BLAST_INDEX_SCHEMA.dtype)
    for name in arr.dtype.names:
        arr[name] = rng.integers(0, 1 << 30, n)
    return arr


def reference(part):
    return HEADER + part.tobytes()


class TestLayout:
    def test_pieces_in_any_order_make_the_exact_file(self, tmp_path):
        part = records(1000)
        writer = PartWriter(tmp_path, BLAST_INDEX_SCHEMA, header=HEADER)
        writer.finish(0, len(part))  # sealing first is fine: writes stay inside
        for start in (700, 0, 350):
            writer.write(0, start, part[start : start + 350])
        assert os.listdir(tmp_path) != ["part-00000"]  # not visible yet
        assert writer.publish(1) == [str(tmp_path / "part-00000")]
        assert (tmp_path / "part-00000").read_bytes() == reference(part)
        assert os.listdir(tmp_path) == ["part-00000"]

    def test_strided_and_converted_input(self, tmp_path):
        part = records(64)
        wide = part.astype([(name, "<i8") for name in part.dtype.names])
        writer = PartWriter(tmp_path, BLAST_INDEX_SCHEMA, header=HEADER)
        writer.write(0, 0, part[::2])
        writer.write(1, 0, wide)
        writer.finish(0, 32)
        writer.finish(1, 64)
        writer.publish(2)
        assert (tmp_path / "part-00000").read_bytes() == reference(part[::2].copy())
        assert (tmp_path / "part-00001").read_bytes() == reference(part)

    def test_finish_creates_an_untouched_part_and_cuts_a_longer_one(self, tmp_path):
        writer = PartWriter(tmp_path, BLAST_INDEX_SCHEMA, header=HEADER)
        writer.write(1, 0, records(10))
        writer.finish(0, 0)
        writer.finish(1, 4)
        writer.publish(2)
        assert (tmp_path / "part-00000").read_bytes() == HEADER
        assert (tmp_path / "part-00001").read_bytes() == reference(records(10)[:4])

    def test_publish_replaces_a_longer_stale_part(self, tmp_path):
        (tmp_path / "part-00000").write_bytes(reference(records(500)))
        writer = PartWriter(tmp_path, BLAST_INDEX_SCHEMA, header=HEADER)
        writer.write(0, 0, records(7))
        writer.finish(0, 7)
        writer.publish(1)
        assert (tmp_path / "part-00000").read_bytes() == reference(records(7))

    def test_discard_removes_only_this_writers_files(self, tmp_path):
        (tmp_path / "part-00000").write_bytes(b"previous run")
        other = PartWriter(tmp_path, BLAST_INDEX_SCHEMA, header=HEADER)
        other.write(0, 0, records(3))
        writer = PartWriter(tmp_path, BLAST_INDEX_SCHEMA, header=HEADER)
        writer.write(0, 5, records(3))
        writer.write(3, 0, records(3))
        writer.discard()
        writer.discard()  # idempotent
        assert (tmp_path / "part-00000").read_bytes() == b"previous run"
        assert len(os.listdir(tmp_path)) == 2  # the old part + the other writer's file
        other.discard()
        assert os.listdir(tmp_path) == ["part-00000"]

    def test_validation(self, tmp_path):
        with pytest.raises(FormatError, match="header"):
            PartWriter(tmp_path, BLAST_INDEX_SCHEMA, header=b"short")
        with pytest.raises(FormatError, match="not a binary schema"):
            PartWriter(tmp_path, EDGE_LIST_SCHEMA)

    def test_map_binary_views_the_published_part(self, tmp_path):
        write_partitions(tmp_path, [records(9), records(0)], BLAST_INDEX_SCHEMA, header=HEADER)
        view = map_binary(tmp_path / "part-00000", BLAST_INDEX_SCHEMA)
        assert isinstance(view, np.memmap) and not view.flags.writeable
        np.testing.assert_array_equal(view, records(9))
        empty = map_binary(tmp_path / "part-00001", BLAST_INDEX_SCHEMA)
        assert len(empty) == 0 and empty.dtype == BLAST_INDEX_SCHEMA.dtype
        (tmp_path / "torn").write_bytes(HEADER + b"\x00" * 5)
        with pytest.raises(FormatError, match="not a multiple"):
            map_binary(tmp_path / "torn", BLAST_INDEX_SCHEMA)


def test_concurrent_writers_of_disjoint_slots(tmp_path):
    """More writer threads than cores, each placing every eighth 16-record
    piece of the same part: a lost or misplaced write breaks byte equality."""
    part = records(16 * 8 * 40)
    writer = PartWriter(tmp_path, BLAST_INDEX_SCHEMA, header=HEADER)
    errors = []

    def place(worker):
        try:
            for start in range(16 * worker, len(part), 16 * 8):
                writer.write(0, start, part[start : start + 16])
            if worker == 0:
                writer.finish(0, len(part))
        except BaseException as exc:  # noqa: BLE001 - reported by the assert below
            errors.append(exc)

    threads = [threading.Thread(target=place, args=(w,)) for w in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not errors and not any(t.is_alive() for t in threads)
    writer.publish(1)
    assert (tmp_path / "part-00000").read_bytes() == reference(part)


class TestWritePartitions:
    def test_a_failure_part_way_leaves_the_previous_parts_intact(self, tmp_path, monkeypatch):
        first = [records(40, seed=1), records(30, seed=2), records(20, seed=5)]
        write_partitions(tmp_path, first, BLAST_INDEX_SCHEMA, header=HEADER)
        previous = {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)}

        finish = PartWriter.finish

        def failing_finish(self, partition, count):
            if partition == 1:
                raise OSError(28, "No space left on device")
            finish(self, partition, count)

        monkeypatch.setattr(PartWriter, "finish", failing_finish)
        with pytest.raises(OSError, match="No space left"):
            write_partitions(tmp_path, [records(5), records(6), records(7)],
                             BLAST_INDEX_SCHEMA, header=HEADER)
        assert {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)} == previous

    def test_shorter_partitions_replace_longer_ones(self, tmp_path):
        write_partitions(tmp_path, [records(400), records(300)], BLAST_INDEX_SCHEMA,
                         header=HEADER)
        paths = write_partitions(tmp_path, [records(4), records(0)], BLAST_INDEX_SCHEMA,
                                 header=HEADER)
        assert [len(read_binary(p, BLAST_INDEX_SCHEMA)) for p in paths] == [4, 0]
        assert sorted(os.listdir(tmp_path)) == ["part-00000", "part-00001"]

"""Run files: framed columnar layout, crc32 integrity, spill stats."""

import numpy as np
import pytest

from repro.ooc.runfile import (
    RunCorruptionError,
    RunFileError,
    RunReader,
    RunWriter,
    read_run,
)
from repro.ooc.spill import SpillStats

DT = np.dtype([("a", "<i8"), ("b", "<i4")])


def make_values(n, seed=0):
    rng = np.random.default_rng(seed)
    out = np.zeros(n, dtype=DT)
    out["a"] = rng.integers(0, 1000, n)
    out["b"] = rng.integers(-50, 50, n)
    return out


class TestRoundTrip:
    def test_values_only(self, tmp_path):
        path = str(tmp_path / "r.run")
        writer = RunWriter(path, DT, source=3)
        chunks = [make_values(10, 1), make_values(3, 2), make_values(7, 3)]
        for c in chunks:
            writer.append(c)
        manifest = writer.close()
        assert manifest.num_records == 20
        assert manifest.frames == 3
        assert manifest.source == 3

        frames = list(RunReader(path).frames())
        assert len(frames) == 3
        for frame, expected in zip(frames, chunks):
            assert np.array_equal(frame.values, expected)
            assert frame.keys is None

    def test_keys_and_tags_ride_along(self, tmp_path):
        path = str(tmp_path / "r.run")
        writer = RunWriter(path, DT, key_dtype=np.dtype(np.int64))
        values = make_values(5)
        keys = np.arange(5, dtype=np.int64) * 7
        writer.append(values, keys=keys, tag=42)
        writer.close()
        (frame,) = list(RunReader(path).frames())
        assert frame.tag == 42
        assert np.array_equal(frame.keys, keys)
        assert np.array_equal(frame.values, values)

    def test_read_run_replays_append_order(self, tmp_path):
        path = str(tmp_path / "r.run")
        writer = RunWriter(path, DT)
        a, b = make_values(4, 4), make_values(6, 5)
        writer.append(a)
        writer.append(b)
        writer.close()
        frames = read_run(path)
        assert np.array_equal(
            np.concatenate([f.values for f in frames]), np.concatenate([a, b])
        )

    def test_manifest_as_dict_is_checkpointable(self, tmp_path):
        import json

        path = str(tmp_path / "r.run")
        writer = RunWriter(path, DT)
        writer.append(make_values(5))
        manifest = writer.close()
        d = manifest.as_dict()
        assert d["path"] == path
        assert d["num_records"] == 5
        json.dumps(d)  # must be JSON-serializable for disk checkpoints


class TestCorruption:
    def test_flipped_payload_byte_is_detected(self, tmp_path):
        path = str(tmp_path / "r.run")
        writer = RunWriter(path, DT)
        writer.append(make_values(16))
        writer.close()
        raw = bytearray(open(path, "rb").read())
        raw[-3] ^= 0xFF  # payload byte of the last frame
        open(path, "wb").write(bytes(raw))
        with pytest.raises(RunCorruptionError):
            list(RunReader(path).frames())

    def test_truncated_file_is_detected(self, tmp_path):
        path = str(tmp_path / "r.run")
        writer = RunWriter(path, DT)
        writer.append(make_values(16))
        writer.close()
        raw = open(path, "rb").read()
        open(path, "wb").write(raw[:-5])
        with pytest.raises(RunFileError):
            list(RunReader(path).frames())

    def test_bad_magic_is_rejected(self, tmp_path):
        path = str(tmp_path / "r.run")
        open(path, "wb").write(b'{"magic": "other", "version": 1}\n')
        with pytest.raises(RunFileError):
            RunReader(path)


class TestSpillStats:
    def test_record_and_merge_fold_into_a_dict(self, tmp_path):
        stats = SpillStats()
        path = str(tmp_path / "r.run")
        writer = RunWriter(path, DT)
        writer.append(make_values(8))
        manifest = writer.close()
        stats.record_run(manifest)
        stats.record_merge(5)
        stats.record_merge(3)
        d = stats.as_dict()
        assert d["runs_written"] == 1
        assert d["spilled_records"] == 8
        assert d["spilled_bytes"] == manifest.nbytes
        assert d["max_merge_fanin"] == 5
        assert stats.manifests == [manifest]

"""Unit tests for the shared-memory payload transport (repro.mpi.shm)."""

import dataclasses
import gc
import queue
import secrets

import numpy as np
import pytest

from repro.errors import MPIError
from repro.mpi.shm import (
    KIND_ARRAY,
    KIND_INLINE,
    KIND_OBJECT,
    SegmentFactory,
    _attach,
    decode_payload,
    encode_payload,
    scan_segments,
    sweep_pending_closes,
    unlink_segments,
)


@pytest.fixture
def prefix():
    return f"tst{secrets.token_hex(4)}"


@pytest.fixture
def factory(prefix):
    f = SegmentFactory(prefix, rank=0, names_queue=queue.Queue())
    yield f
    gc.collect()
    sweep_pending_closes()
    unlink_segments(scan_segments(prefix))
    assert scan_segments(prefix) == []


def _roundtrip(obj, factory, **kw):
    return decode_payload(encode_payload(obj, factory), **kw)


class TestEncodeKinds:
    def test_bare_array_skips_pickle(self, factory):
        env = encode_payload(np.arange(100, dtype=np.int64), factory)
        assert env.kind == KIND_ARRAY
        assert env.blob is None
        assert env.oob_bytes == 800
        assert env.fallback_bytes == 0

    def test_structured_array_keeps_fields_via_pickle(self, factory):
        arr = np.zeros(10, dtype=[("a", "i8"), ("b", "f4")])
        env = encode_payload(arr, factory)
        assert env.kind == KIND_OBJECT
        out = decode_payload(env)
        assert out.dtype == arr.dtype
        np.testing.assert_array_equal(out["a"], arr["a"])

    def test_containers_with_arrays_go_out_of_band(self, factory):
        obj = {"xs": np.arange(1000.0), "label": "chunk-3"}
        env = encode_payload(obj, factory)
        assert env.kind == KIND_OBJECT
        assert env.oob_bytes >= 8000
        assert env.fallback_bytes == 0

    def test_plain_objects_stay_inline(self, factory):
        env = encode_payload({"rank": 3, "label": "done"}, factory)
        assert env.kind == KIND_INLINE
        assert env.segment is None
        assert env.oob_bytes == 0
        assert env.fallback_bytes == 0

    def test_empty_array_needs_no_segment(self, factory):
        env = encode_payload(np.empty((0, 4), dtype=np.float32), factory)
        assert env.segment is None
        out = decode_payload(env)
        assert out.shape == (0, 4)
        assert out.dtype == np.float32
        assert factory.created == 0

    def test_container_of_empty_arrays_needs_no_segment(self, factory):
        obj = {"keys": np.empty(0, dtype=np.int64), "rows": np.zeros(0, dtype="i4,f8")}
        env = encode_payload(obj, factory)
        assert env.segment is None
        assert env.fallback_bytes == 0
        out = decode_payload(env)
        assert out["keys"].dtype == np.int64 and len(out["keys"]) == 0
        assert out["rows"].dtype == obj["rows"].dtype and len(out["rows"]) == 0
        assert factory.created == 0


class TestRoundTrips:
    @pytest.mark.parametrize("dtype", ["i1", "u2", "i4", "i8", "f4", "f8", "c16"])
    def test_bare_array_all_dtypes(self, factory, dtype):
        arr = (np.arange(257) * 3).astype(dtype)
        np.testing.assert_array_equal(_roundtrip(arr, factory), arr)

    def test_multidimensional_shape_preserved(self, factory):
        arr = np.arange(24.0).reshape(2, 3, 4)
        out = _roundtrip(arr, factory)
        assert out.shape == (2, 3, 4)
        np.testing.assert_array_equal(out, arr)

    def test_noncontiguous_input_is_handled(self, factory):
        base = np.arange(100, dtype=np.int64)
        np.testing.assert_array_equal(_roundtrip(base[::2], factory), base[::2])

    def test_nested_object_roundtrip(self, factory):
        obj = {"a": np.arange(50.0), "b": [np.ones(3, dtype=np.int32), "x"], "n": 7}
        out = _roundtrip(obj, factory)
        np.testing.assert_array_equal(out["a"], obj["a"])
        np.testing.assert_array_equal(out["b"][0], obj["b"][0])
        assert out["b"][1] == "x"
        assert out["n"] == 7

    def test_views_are_read_only(self, factory):
        out = _roundtrip(np.arange(10), factory)
        with pytest.raises(ValueError):
            out[0] = 99

    def test_copy_mode_returns_writable_arrays(self, factory):
        out = _roundtrip(np.arange(10), factory, copy=True)
        out[0] = 99  # ordinary memory, not a segment view
        assert out[0] == 99

    def test_copy_mode_releases_immediately(self, factory, prefix):
        env = encode_payload(np.arange(10), factory)
        decode_payload(env, copy=True)
        assert scan_segments(prefix) == []

    @pytest.mark.parametrize("copy", [False, True], ids=["view", "copy"])
    def test_decoded_segment_is_unlinked_while_views_read(self, factory, prefix, copy):
        obj = {"xs": np.arange(3000.0), "ys": np.arange(700, dtype=np.int32)}
        env = encode_payload(obj, factory)
        assert scan_segments(prefix) == [env.segment]
        out = decode_payload(env, copy=copy)
        assert scan_segments(prefix) == []
        gc.collect()
        np.testing.assert_array_equal(out["xs"], obj["xs"])
        np.testing.assert_array_equal(out["ys"], obj["ys"])


class TestFallback:
    def test_unpicklable_with_buffers_falls_back_inline(self, factory):
        class FlakyOnce:
            """Raises on the first pickle attempt, succeeds on the retry."""

            calls = [0]

            def __reduce__(self):
                self.calls[0] += 1
                if self.calls[0] == 1:
                    raise RuntimeError("no out-of-band for me")
                return (str, ("ok",))

        env = encode_payload(FlakyOnce(), factory)
        assert env.kind == KIND_INLINE
        assert env.fallback_bytes == len(env.blob) > 0
        assert decode_payload(env) == "ok"


class TestCorruption:
    def test_corrupt_segment_bytes_raise(self, factory):
        env = encode_payload(np.arange(100, dtype=np.int64), factory)
        shm = _attach(env.segment)
        shm.buf[8] ^= 0xFF
        shm.close()
        with pytest.raises(MPIError, match="crc mismatch"):
            decode_payload(env)

    def test_corrupt_inline_blob_raises(self, factory):
        env = encode_payload({"plain": True}, factory)
        bad = dataclasses.replace(env, blob=env.blob[:-1] + b"\x00")
        with pytest.raises(MPIError, match="crc mismatch"):
            decode_payload(bad)

    def test_corrupt_object_skeleton_raises(self, factory):
        env = encode_payload({"xs": np.arange(100.0)}, factory)
        bad = dataclasses.replace(env, crc=env.crc ^ 1)
        with pytest.raises(MPIError, match="crc mismatch"):
            decode_payload(bad)


class TestSegmentFactory:
    def test_ledger_records_every_created_segment(self, factory):
        encode_payload(np.arange(10), factory)
        encode_payload({"xs": np.arange(9000.0)}, factory)
        names = []
        while True:
            try:
                names.append(factory._names_queue.get_nowait())
            except queue.Empty:
                break
        assert len(names) == factory.created == 2

    def test_each_payload_gets_an_exact_size_segment(self, factory):
        first = encode_payload(np.arange(10, dtype=np.int64), factory)
        second = encode_payload(np.arange(10, dtype=np.int64), factory)
        both = encode_payload([np.arange(10, dtype=np.int64), np.arange(3.0)], factory)
        assert len({first.segment, second.segment, both.segment}) == 3
        # buffers start on a 64-byte boundary; nothing pads the last one
        for env, size in ((first, 80), (both, 128 + 24)):
            shm = _attach(env.segment)
            assert shm.size == size
            shm.close()


class TestSpawnerCleanup:
    def test_unlink_segments_removes_everything(self, prefix):
        factory = SegmentFactory(prefix, rank=0)
        encode_payload(np.arange(100), factory)
        encode_payload(np.arange(10000.0), factory)
        assert len(scan_segments(prefix)) == 2
        assert unlink_segments(scan_segments(prefix)) == 2
        assert scan_segments(prefix) == []

    def test_unlink_tolerates_missing_names(self):
        assert unlink_segments(["definitely-not-a-segment-name"]) == 0

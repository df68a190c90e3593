"""Run files are byte-stable: the writer's output is pinned by golden files.

The golden files were written by an earlier writer that copied every frame
through ``tobytes()``; the writer that hands numpy's own buffers to the file
must produce the very same bytes, frame headers and crc32s included, for
keyed and keyless runs, strided inputs and inputs of another dtype.
"""

import os

import numpy as np
import pytest

from repro.ooc.runfile import RunReader, RunWriter

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
VALUES = np.dtype([("a", "<i8"), ("b", "<i4")])


def golden_frames():
    """``{run name: (value dtype, key dtype, [(values, keys, tag), ...])}``."""
    rng = np.random.default_rng(2024)
    values = np.zeros(40, dtype=VALUES)
    values["a"] = rng.integers(-(2**40), 2**40, 40)
    values["b"] = rng.integers(-(2**31), 2**31, 40)
    keys = rng.integers(-1000, 1000, 40)  # int64, written as int32 keys
    row_ids = rng.permutation(40).astype(np.uint16)
    return {
        "keyed": (VALUES, np.int32, [
            (values[:16], keys[:16], 0),
            (values[16:17], keys[16:17], 7),
            (values[17::2], keys[17::2], 2**40 + 3),  # strided: made contiguous
            (values[:0], keys[:0], 1),  # an empty frame
        ]),
        "keyless": (VALUES, None, [
            (values[5:30], None, 12),
            (values[::-3], None, 0),
        ]),
        "row-ids": (np.uint16, np.int64, [
            (row_ids[:25], keys[:25], 0),
            (row_ids[25:], keys[25:], 0),
        ]),
    }


def write_run(path, value_dtype, key_dtype, frames):
    writer = RunWriter(path, value_dtype, key_dtype)
    for values, keys, tag in frames:
        writer.append(values, keys=keys, tag=tag)
    return writer.close()


@pytest.mark.parametrize("name", sorted(golden_frames()))
def test_writer_reproduces_the_golden_bytes(tmp_path, name):
    value_dtype, key_dtype, frames = golden_frames()[name]
    path = str(tmp_path / f"{name}.run")
    manifest = write_run(path, value_dtype, key_dtype, frames)
    with open(os.path.join(DATA, f"{name}.run"), "rb") as fh:
        golden = fh.read()
    with open(path, "rb") as fh:
        assert fh.read() == golden
    assert manifest.frames == len(frames)
    assert manifest.num_records == sum(len(values) for values, _, _ in frames)


@pytest.mark.parametrize("name", sorted(golden_frames()))
def test_golden_runs_read_back(name):
    value_dtype, key_dtype, frames = golden_frames()[name]
    got = list(RunReader(os.path.join(DATA, f"{name}.run")).frames())
    assert len(got) == len(frames)
    for frame, (values, keys, tag) in zip(got, frames):
        assert frame.tag == tag
        assert np.array_equal(frame.values, np.asarray(values, dtype=value_dtype))
        if key_dtype is not None and len(values):
            assert np.array_equal(frame.keys, np.asarray(keys).astype(key_dtype))

"""The word exchange: an SPMD sort of the run's input ships (key, row id) words.

A flat sort that reads the run's own input, keyed by an integer of at most
32 bits, with no memory budget, packs one 8-byte word per record, cuts the
locally sorted words at sampled splitters, merges what arrives, and the
deal gathers each piece from the input by row id.  Generated cases over
every such key dtype — the extremes, all-equal keys, empty and one-record
inputs, more ranks than records, both directions and both positional
policies — must give the serial partitions bit for bit on ``mpi``,
``mapreduce`` and ``process``, through ``PaPar.run(data=...)`` and
``partition_files``.  The fallback cells (a 64-bit key, a float key, a sort
of a sort's output, a memory budget) take the record exchange and must stay
byte-identical too.
"""

import os
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import PaPar
from repro.core import word_exchange
from repro.core.dataset import Dataset
from repro.formats import write_binary
from repro.formats.records import Field, RecordSchema

WORD_KEYS = ["<i1", "<i2", "<i4", "<u1", "<u2", "<u4"]
SPMD = ("mpi", "mapreduce", "process")
HEADER = b"\x07" * 8

CASES = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)


@dataclass(frozen=True)
class KeySchema(RecordSchema):
    """A binary ``(key, ord)`` schema whose key has any numpy dtype (a config
    file can name only 32- and 64-bit fields)."""

    key_dtype: str = "<i4"

    @property
    def dtype(self) -> np.dtype:
        return np.dtype([("key", self.key_dtype), ("ord", "<i8")])


def keys_schema(key_dtype):
    return KeySchema(
        id="keys", fields=(Field("key", "integer"), Field("ord", "long")),
        start_position=len(HEADER), key_dtype=key_dtype,
    )


def workflow(ascending, policy, sorts=1):
    flag = -1 if ascending else 1
    ops, source = [], "$input_path"
    for i in range(1, sorts + 1):
        ops.append(
            f'<operator id="sort{i}" operator="Sort">'
            f'<param name="inputPath" type="String" value="{source}"/>'
            f'<param name="outputPath" type="String" value="/tmp/sort{i}"/>'
            '<param name="key" type="KeyId" value="key"/>'
            f'<param name="flag" type="integer" value="{flag}"/></operator>'
        )
        source = f"$sort{i}.outputPath"
    ops.append(
        '<operator id="distr" operator="Distribute">'
        f'<param name="inputPath" type="String" value="{source}"/>'
        '<param name="outputPath" type="String" value="$output_path"/>'
        f'<param name="distrPolicy" type="DistrPolicy" value="{policy}"/>'
        '<param name="numPartitions" type="integer" value="$num_partitions"/>'
        "</operator>"
    )
    return (
        '<workflow id="word_sort" name="word sort"><arguments>'
        '<param name="input_path" type="hdfs" format="keys"/>'
        '<param name="output_path" type="hdfs" format="keys"/>'
        '<param name="num_partitions" type="integer"/>'
        "</arguments><operators>" + "".join(ops) + "</operators></workflow>"
    )


def key_rows(key_dtype, keys):
    rows = np.zeros(len(keys), dtype=keys_schema(key_dtype).dtype)
    rows["key"] = keys
    rows["ord"] = np.arange(len(keys))
    return rows


@st.composite
def word_cases(draw):
    key_dtype = draw(st.sampled_from(WORD_KEYS))
    info = np.iinfo(key_dtype)
    n = draw(st.sampled_from([0, 1, 2, 5]) | st.integers(0, 3000))
    shape = draw(st.sampled_from(["random", "extremes", "equal"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if shape == "random":
        keys = rng.integers(info.min, info.max, n, endpoint=True, dtype=key_dtype)
    elif shape == "extremes":  # -2**31 and 2**32 - 1 at the 32-bit widths
        keys = np.array([info.min, info.max, 0], dtype=key_dtype)[rng.integers(0, 3, n)]
    else:
        keys = np.full(n, draw(st.sampled_from([info.min, info.max, 1])), dtype=key_dtype)
    return (key_rows(key_dtype, keys), key_dtype, draw(st.booleans()),
            draw(st.sampled_from(["roundRobin", "block"])),
            draw(st.sampled_from([1, 2, 3, 4, 8])), draw(st.integers(1, 9)))


@contextmanager
def counting_word_sorts():
    """Count the word exchanges thread ranks run (forked ranks are not seen)."""
    calls = []
    real = word_exchange.word_sort

    def spy(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(word_exchange, "word_sort", spy)
        yield calls


def in_memory_parts(rows, key_dtype, xml, parts, backend, ranks, budget=None):
    papar = PaPar()
    schema = papar.register_schema(keys_schema(key_dtype))
    result = papar.run(
        xml, {"input_path": "/in", "output_path": "/out", "num_partitions": parts},
        data=Dataset(schema=schema, records=rows), backend=backend, num_ranks=ranks,
        memory_budget=budget,
    )
    return [p.records.tobytes() for p in result.partitions]


def file_parts(rows, key_dtype, xml, parts, backend, ranks, budget=None):
    papar = PaPar()
    schema = papar.register_schema(keys_schema(key_dtype))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "in.bin")
        write_binary(path, rows, schema, header=HEADER)
        out = os.path.join(tmp, "out")
        papar.partition_files(
            xml, {"input_path": path, "output_path": out, "num_partitions": parts},
            backend=backend, num_ranks=ranks, memory_budget=budget,
        )
        return {name: Path(out, name).read_bytes() for name in sorted(os.listdir(out))}


PATHS = {"data": in_memory_parts, "files": file_parts}


def assert_spmd_matches_serial(run, rows, key_dtype, xml, parts, ranks, budget=None):
    """Every SPMD backend gives the serial bytes; returns how many word
    exchanges the thread-rank backends ran."""
    want = run(rows, key_dtype, xml, parts, "serial", 1, budget)
    with counting_word_sorts() as calls:
        for backend in SPMD:
            assert run(rows, key_dtype, xml, parts, backend, ranks, budget) == want, backend
    return len(calls)


@pytest.mark.parametrize("path", sorted(PATHS))
@CASES
@given(case=word_cases())
def test_generated_sorts_take_the_word_exchange_bit_identically(path, case):
    rows, key_dtype, ascending, policy, ranks, parts = case
    xml = workflow(ascending, policy)
    calls = assert_spmd_matches_serial(PATHS[path], rows, key_dtype, xml, parts, ranks)
    assert calls == 2 * ranks  # mpi and mapreduce, every rank


def wide_int64(n, rng):
    return key_rows("<i8", rng.integers(-(2**40), 2**40, n))


def float_keys(n, rng):
    pool = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 1.5, -2.25])
    return key_rows("<f8", rng.choice(pool, n))


#: cell -> (rows, sorts in the chain, memory budget, word exchanges per rank)
FALLBACKS = {
    "int64-key-above-32-bits": (wide_int64, 1, None, 0),
    "float-key": (float_keys, 1, None, 0),
    "sort-of-a-sort": (lambda n, rng: key_rows("<i4", rng.integers(-5, 5, n)), 2, None, 1),
    "memory-budget": (lambda n, rng: key_rows("<u4", rng.integers(0, 2**32, n)), 1, "8KB", 0),
}


@pytest.mark.parametrize("path", sorted(PATHS))
@pytest.mark.parametrize("cell", sorted(FALLBACKS))
@pytest.mark.parametrize("ascending", [True, False])
def test_fallbacks_keep_the_record_exchange_bit_identically(path, cell, ascending):
    make, sorts, budget, words_per_rank = FALLBACKS[cell]
    rows = make(2500, np.random.default_rng(len(cell)))
    key_dtype = rows.dtype["key"].str
    xml = workflow(ascending, "roundRobin", sorts=sorts)
    ranks = 3
    calls = assert_spmd_matches_serial(PATHS[path], rows, key_dtype, xml, 7, ranks, budget)
    assert calls == 2 * ranks * words_per_rank

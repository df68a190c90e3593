"""The exchange-free SPMD sort of the run's input: each rank cuts its own range.

A flat sort that reads the run's own input, keyed by an integer of at most
32 bits, ships nothing: every rank takes the same splitters from the same
regular sample of the input, scans the key column for the (key, row id)
words of its own range and sorts them — or, under a memory budget they
outweigh, spills them as narrow runs — and the deal gathers each piece from
the input by row id.  A spy on the thread ranks
shows the sort sends no message.  Generated cases over every such key
dtype — the extremes, all-equal keys, empty and one-record inputs, more
ranks than records, both directions and both positional policies — and
cases aimed at the cut itself — a splitter inside a run of equal keys,
eight ranks over at most two distinct keys, int8 and uint32 extremes, and
``mapreduce`` reducer counts that do not divide the rank count — must give
the serial partitions bit for bit on ``mpi``, ``mapreduce`` and
``process``, through ``PaPar.run(data=...)`` and ``partition_files``, with
and without a budget.  The fallback cells (a 64-bit key, a float key, a
sort of a sort's output) take the record exchange and must stay
byte-identical too.
"""

import os
import tempfile
import threading
from contextlib import contextmanager
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
from repro.mpi.comm import Communicator

WORD_KEYS = ["<i1", "<i2", "<i4", "<u1", "<u2", "<u4"]
SPMD = ("mpi", "mapreduce", "process")
HEADER = b"\x07" * 8

CASES = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)


class KeySchema(RecordSchema):
    """A binary ``(key, ord)`` schema whose key has any numpy dtype (a config
    file can name only 32- and 64-bit fields).  The key field declares the
    config type of its dtype's class — what the planner reads — and the
    record width is the dtype's."""

    def __init__(self, key_dtype: str = "<i4", **schema) -> None:
        super().__init__(**schema)
        vars(self)["key_dtype"] = key_dtype  # immutable, as the base

    @property
    def dtype(self) -> np.dtype:
        return np.dtype([("key", self.key_dtype), ("ord", "<i8")])

    @property
    def itemsize(self) -> int:
        return self.dtype.itemsize


def keys_schema(key_dtype):
    key = np.dtype(key_dtype)
    key_type = "double" if key.kind == "f" else "long" if key.itemsize > 4 else "integer"
    return KeySchema(
        id="keys", fields=(Field("key", key_type), Field("ord", "long")),
        start_position=len(HEADER), key_dtype=key_dtype,
    )


def workflow(ascending, policy, sorts=1, reducers=None):
    flag = -1 if ascending else 1
    pinned = "" if reducers is None else f' num_reducers="{reducers}"'
    ops, source = [], "$input_path"
    for i in range(1, sorts + 1):
        ops.append(
            f'<operator id="sort{i}" operator="Sort"{pinned}>'
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
def spying_word_sorts():
    """Count the sorts of the input thread ranks run, and record every
    ``alltoall``, ``allgather`` and point-to-point ``send`` they issue as
    ``(name, inside a sort of the input)`` (forked ranks are not seen)."""
    calls, issued = [], []
    sorting = threading.local()
    real = word_exchange.word_sort

    def spy(*args, **kwargs):
        calls.append(1)
        sorting.active = True
        try:
            return real(*args, **kwargs)
        finally:
            sorting.active = False

    def watch(name):
        method = getattr(Communicator, name)

        def watched(self, *args, **kwargs):
            issued.append((name, getattr(sorting, "active", False)))
            return method(self, *args, **kwargs)

        return watched

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(word_exchange, "word_sort", spy)
        for name in ("alltoall", "allgather", "send"):
            mp.setattr(Communicator, name, watch(name))
        yield calls, issued


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
    """Every SPMD backend gives the serial bytes, and no sort of the input
    on a thread rank sends a message; returns how many such sorts the
    thread-rank backends ran."""
    want = run(rows, key_dtype, xml, parts, "serial", 1, budget)
    with spying_word_sorts() as (calls, issued):
        for backend in SPMD:
            assert run(rows, key_dtype, xml, parts, backend, ranks, budget) == want, backend
    assert not [name for name, inside in issued if inside]
    return len(calls)


@pytest.mark.parametrize("path", sorted(PATHS))
@CASES
@given(case=word_cases())
def test_generated_sorts_take_the_word_exchange_bit_identically(path, case):
    rows, key_dtype, ascending, policy, ranks, parts = case
    xml = workflow(ascending, policy)
    calls = assert_spmd_matches_serial(PATHS[path], rows, key_dtype, xml, parts, ranks)
    assert calls == 2 * ranks  # mpi and mapreduce, every rank


@pytest.mark.parametrize("path", sorted(PATHS))
def test_the_sort_of_the_input_sends_no_message(path):
    """The splitters come from a sample every rank draws alike and each rank
    scans for its own range, so the sort issues no collective: the spy
    sees the run's other messages (the deal's), none from a sort."""
    rows = key_rows("<i4", np.random.default_rng(5).integers(-50, 50, 2000))
    xml = workflow(True, "roundRobin", reducers=3)
    want = PATHS[path](rows, "<i4", xml, 5, "serial", 1)
    with spying_word_sorts() as (calls, issued):
        for backend in ("mpi", "mapreduce"):
            assert PATHS[path](rows, "<i4", xml, 5, backend, 4) == want, backend
    assert len(calls) == 2 * 4
    assert issued and not [name for name, inside in issued if inside]


@pytest.mark.parametrize("path", sorted(PATHS))
@pytest.mark.parametrize("ascending", [True, False])
def test_a_budgeted_sort_of_the_input_is_a_word_sort(path, ascending):
    """A budget the ranges' words outweigh spills them as narrow runs: still
    one word sort per rank, still no message, still the serial bytes."""
    rows = key_rows("<u4", np.random.default_rng(13).integers(0, 2**32, 2500))
    xml = workflow(ascending, "roundRobin")
    ranks = 3
    calls = assert_spmd_matches_serial(PATHS[path], rows, "<u4", xml, 7, ranks, "8KB")
    assert calls == 2 * ranks


#: shapes of input aimed at the range cut
CUT_SHAPES = ("equal-runs", "two-keys-eight-ranks", "extremes", "fewer-rows-than-ranks")

CUTS = settings(
    max_examples=4,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)


@st.composite
def cut_cases(draw, shape):
    """``(rows, key dtype, ascending, ranks, reducers)`` of one ``shape``;
    ``reducers``, the pinned ``mapreduce`` count, never divides ``ranks``."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    key_dtype = draw(st.sampled_from(WORD_KEYS))
    ranks = draw(st.sampled_from([2, 3, 4, 8]))
    if shape == "equal-runs":  # a few keys, so splitters land inside runs of one key
        keys = rng.integers(0, draw(st.integers(2, 5)), draw(st.integers(500, 3000)))
    elif shape == "two-keys-eight-ranks":
        ranks = 8
        pool = sorted(draw(st.sets(st.integers(0, 100), min_size=1, max_size=2)))
        keys = rng.choice(pool, draw(st.integers(0, 2500)))
    elif shape == "extremes":
        key_dtype = draw(st.sampled_from(["<i1", "<u4"]))
        info = np.iinfo(key_dtype)
        pool = [int(info.min), int(info.min) + 1, 0, int(info.max) - 1, int(info.max)]
        keys = rng.choice(pool, draw(st.integers(0, 2500)))
    else:
        keys = rng.integers(0, 3, draw(st.integers(0, ranks - 1)))
    reducers = draw(st.integers(1, 9).filter(lambda r: ranks % r))
    return (key_rows(key_dtype, np.asarray(keys).astype(key_dtype)), key_dtype,
            draw(st.booleans()), ranks, reducers)


@pytest.mark.parametrize("path", sorted(PATHS))
@pytest.mark.parametrize("shape", CUT_SHAPES)
@CUTS
@given(data=st.data())
def test_generated_cuts_are_bit_identical(path, shape, data):
    rows, key_dtype, ascending, ranks, reducers = data.draw(cut_cases(shape))
    xml = workflow(ascending, "roundRobin", reducers=reducers)
    calls = assert_spmd_matches_serial(PATHS[path], rows, key_dtype, xml, 6, ranks)
    assert calls == 2 * ranks


def wide_int64(n, rng):
    return key_rows("<i8", rng.integers(-(2**40), 2**40, n))


def float_keys(n, rng):
    pool = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 1.5, -2.25])
    return key_rows("<f8", rng.choice(pool, n))


#: cell -> (rows, sorts in the chain, word exchanges per rank)
FALLBACKS = {
    "int64-key-above-32-bits": (wide_int64, 1, 0),
    "float-key": (float_keys, 1, 0),
    "sort-of-a-sort": (lambda n, rng: key_rows("<i4", rng.integers(-5, 5, n)), 2, 1),
}


@pytest.mark.parametrize("path", sorted(PATHS))
@pytest.mark.parametrize("cell", sorted(FALLBACKS))
@pytest.mark.parametrize("ascending", [True, False])
def test_fallbacks_keep_the_record_exchange_bit_identically(path, cell, ascending):
    make, sorts, words_per_rank = FALLBACKS[cell]
    rows = make(2500, np.random.default_rng(len(cell)))
    key_dtype = rows.dtype["key"].str
    xml = workflow(ascending, "roundRobin", sorts=sorts)
    ranks = 3
    calls = assert_spmd_matches_serial(PATHS[path], rows, key_dtype, xml, 7, ranks)
    assert calls == 2 * ranks * words_per_rank

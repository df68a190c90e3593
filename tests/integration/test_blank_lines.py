"""A line of nothing but whitespace holds no record, on every read path.

``str.strip`` empties more than the six ASCII whitespace bytes: the C0
separators ``\\x1c``-``\\x1f`` and Unicode spaces such as U+0085, U+00A0 and
U+2028 too.  The in-memory reader skips such a line, so the budgeted reader
and the line-offset scan behind it must skip the same one; a scan that
counted it would index every later record one line early, and the budgeted
runs would write a record twice (or fail on a short read).
"""

import os

import numpy as np
import pytest

from repro import PaPar
from repro.config import EDGE_INPUT_XML
from repro.config.examples import HYBRID_CUT_WORKFLOW_XML
from repro.formats import EDGE_LIST_SCHEMA, read_text, read_text_array
from repro.ooc.budget import MemoryBudget
from repro.ooc.chunked import ChunkedDataset

#: whitespace ``bytes.strip`` keeps and ``str.strip`` removes
HOSTILE = ("\x1c", "\x1f", "\u0085", "\u00a0", "\u2028", " \u00a0\t\x1c")

#: 50 edges, vertex 24 of indegree 2
EDGES = [(i, i + 1) for i in range(49)] + [(30, 24)]


def write_edges(path, blank_lines):
    """``EDGES`` as an edge list, blank line ``k`` after record ``7 * k + 3``."""
    lines = [f"{a}\t{b}\n" for a, b in EDGES]
    for k, blank in enumerate(blank_lines):
        lines.insert(7 * k + 3 + k + 1, blank + "\n")
    path.write_bytes("".join(lines).encode("utf-8"))
    return str(path)


@pytest.mark.parametrize("blank", HOSTILE, ids=[repr(b) for b in HOSTILE])
@pytest.mark.parametrize("budget", ["64", "256", "1KB"])
def test_the_offset_index_skips_what_the_reader_skips(tmp_path, blank, budget):
    path = write_edges(tmp_path / "edges.txt", [blank] * 3)
    assert len(read_text(path, EDGE_LIST_SCHEMA)) == len(EDGES)
    full = read_text_array(path, EDGE_LIST_SCHEMA)
    view = ChunkedDataset(path, EDGE_LIST_SCHEMA, MemoryBudget(budget))
    assert len(view) == len(EDGES)
    assert np.array_equal(view.materialize().records, full)
    for start, length in [(0, 1), (23, 2), (24, 26), (49, 1)]:
        rows = view.slice_view(start, length).read_rows(0, length)
        assert np.array_equal(rows, full[start : start + length])


def part_files(out_dir):
    return {name: (out_dir / name).read_bytes() for name in sorted(os.listdir(out_dir))}


@pytest.fixture(scope="module")
def papar():
    p = PaPar()
    p.register_input(EDGE_INPUT_XML)
    return p


@pytest.fixture(scope="module")
def reference(papar, tmp_path_factory):
    """The parts of an in-memory serial run over the edges without blank lines."""
    work = tmp_path_factory.mktemp("clean")
    run(papar, write_edges(work / "edges.txt", []), work / "out", "serial", None)
    return part_files(work / "out")


def run(papar, input_file, out_dir, backend, budget):
    args = {"input_file": input_file, "output_path": str(out_dir),
            "num_partitions": 4, "threshold": 1}
    return papar.partition_files(
        HYBRID_CUT_WORKFLOW_XML, args, backend=backend,
        num_ranks=1 if backend == "serial" else 2, memory_budget=budget,
    )


@pytest.mark.parametrize("budget", [None, "256"])
@pytest.mark.parametrize("backend", ["serial", "mpi", "mapreduce", "process"])
def test_every_backend_writes_the_clean_files_parts(papar, reference, tmp_path, backend,
                                                     budget):
    path = write_edges(tmp_path / "edges.txt", list(HOSTILE))
    run(papar, path, tmp_path / "out", backend, budget)
    assert part_files(tmp_path / "out") == reference

"""Fixtures shared by the streaming-service tests: a framework with both
case-study schemas registered, and real on-disk input files for the warm
start (the daemon loads its initial state from the workflow's input path)."""

import sys
from pathlib import Path

import numpy as np
import pytest

from repro import PaPar
from repro.config import BLAST_INPUT_XML, EDGE_INPUT_XML
from repro.formats import BLAST_INDEX_SCHEMA, EDGE_LIST_SCHEMA, write_binary, write_text

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks"))
try:
    from apps.blast import generate_index
    from apps.graph import generate_graph
finally:
    sys.path.pop(0)


@pytest.fixture(scope="module")
def papar():
    p = PaPar()
    p.register_input(BLAST_INPUT_XML)
    p.register_input(EDGE_INPUT_XML)
    return p


@pytest.fixture(scope="module")
def blast_index():
    """One BLAST index split into a warm-start part and append batches."""
    return generate_index("env_nr", num_sequences=160, seed=7)


@pytest.fixture
def blast_file(tmp_path, blast_index):
    """The first 100 index entries written as the daemon's input file."""
    initial = blast_index[:100]
    path = tmp_path / "db.index"
    write_binary(path, initial, BLAST_INDEX_SCHEMA, header=b"\x00" * 32)
    return str(path), initial


@pytest.fixture(scope="module")
def graph_edges():
    """Graph edge records split the same way for the hybrid-cut workflow."""
    graph = generate_graph("google", scale=0.002, seed=13)
    return np.asarray(graph.to_dataset().to_flat().records)


@pytest.fixture
def edges_file(tmp_path, graph_edges):
    split = int(len(graph_edges) * 0.7)
    initial = graph_edges[:split]
    path = tmp_path / "edges.txt"
    write_text(path, [tuple(r) for r in initial.tolist()], EDGE_LIST_SCHEMA)
    return str(path), initial


def rows_of(records: np.ndarray) -> list:
    """Record-array rows as plain JSON-safe lists (the wire format)."""
    return [list(r) for r in records.tolist()]

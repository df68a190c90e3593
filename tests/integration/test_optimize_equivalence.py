"""`papar run --optimize` is bit-identical, backend by backend.

The optimizer's contract is *observational equivalence*: the rewritten
plan must produce byte-for-byte the same partitions as the original on
every backend and rank count.  This matrix pins that for both case
studies (BLAST index partitioning and hybrid-cut graph partitioning)
across serial / mpi / mapreduce / process at 1, 4, and 8 ranks.  Both
shipped workflows are structurally minimal, so the optimized run is the
plain run of the same plan.
"""

import numpy as np
import pytest

from repro import PaPar
from repro.blast import build_index, generate_database
from repro.config import BLAST_INPUT_XML, EDGE_INPUT_XML
from repro.config.examples import BLAST_WORKFLOW_XML, HYBRID_CUT_WORKFLOW_XML
from repro.core.dataset import Dataset
from repro.formats import BLAST_INDEX_SCHEMA
from repro.graph import generate_graph

BACKENDS = ["serial", "mpi", "mapreduce", "process"]
RANKS = [1, 4, 8]


@pytest.fixture(scope="module")
def papar():
    p = PaPar()
    p.register_input(BLAST_INPUT_XML)
    p.register_input(EDGE_INPUT_XML)
    return p


@pytest.fixture(scope="module")
def blast_data():
    db = generate_database("env_nr", num_sequences=400, seed=7)
    return Dataset.from_array(BLAST_INDEX_SCHEMA, build_index(db))


@pytest.fixture(scope="module")
def graph_data():
    return generate_graph("google", scale=0.002, seed=13).to_dataset()


def assert_identical(plain, optimized):
    assert optimized.num_partitions == plain.num_partitions
    for ours, theirs in zip(optimized.partitions, plain.partitions):
        np.testing.assert_array_equal(ours.records, theirs.records)


class TestBlastMatrix:
    """BLAST partitioning: three of four columns are never read (PAP083),
    which is an advisory; no pass fires."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("ranks", RANKS)
    def test_bit_identical(self, papar, blast_data, backend, ranks):
        args = {"input_path": "/in", "output_path": "/out", "num_partitions": 4}
        kw = dict(data=blast_data, backend=backend, num_ranks=ranks)
        plain = papar.run(BLAST_WORKFLOW_XML, args, **kw)
        optimized = papar.run(BLAST_WORKFLOW_XML, args, optimize=True, **kw)
        assert_identical(plain, optimized)
        summary = optimized.extra["optimizer"]
        assert summary["changed"] is False
        assert summary["passes_fired"] == []


class TestHybridCutMatrix:
    """Hybrid cut: pack-format stages make the plan already minimal —
    the optimizer must change *nothing* and still run identically."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("ranks", RANKS)
    def test_bit_identical(self, papar, graph_data, backend, ranks):
        args = {
            "input_file": "/in",
            "output_path": "/out",
            "num_partitions": 4,
            "threshold": 30,
        }
        kw = dict(data=graph_data, backend=backend, num_ranks=ranks)
        plain = papar.run(HYBRID_CUT_WORKFLOW_XML, args, **kw)
        optimized = papar.run(HYBRID_CUT_WORKFLOW_XML, args, optimize=True, **kw)
        assert_identical(plain, optimized)
        summary = optimized.extra["optimizer"]
        assert summary["changed"] is False
        assert summary["rewrites"] == []

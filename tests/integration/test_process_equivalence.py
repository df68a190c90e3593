"""The process backend is a drop-in: bit-identical partitions across the
full backend matrix for both case-study workflows, composing with memory
budgets — and zero import cost for everyone who does not select it."""

import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro import PaPar
from repro.config import BLAST_INPUT_XML, EDGE_INPUT_XML
from repro.config.examples import BLAST_WORKFLOW_XML, HYBRID_CUT_WORKFLOW_XML
from repro.core.dataset import Dataset
from repro.formats import BLAST_INDEX_SCHEMA

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks"))
try:
    from apps.blast import build_index, generate_database
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
def blast_data():
    db = generate_database("env_nr", num_sequences=800, seed=11)
    return Dataset.from_array(BLAST_INDEX_SCHEMA, build_index(db))


@pytest.fixture(scope="module")
def graph():
    return generate_graph("google", scale=0.002, seed=13)


def _partitions(result):
    return [p.records for p in result.partitions]


class TestBackendMatrix:
    """{serial, mpi, mapreduce, process} x rank counts, bit-for-bit."""

    @pytest.mark.parametrize("ranks", [1, 4, 8])
    def test_blast_partitions_identical(self, papar, blast_data, ranks):
        args = {"input_path": "/in", "output_path": "/out", "num_partitions": 8}
        reference = _partitions(
            papar.run(BLAST_WORKFLOW_XML, args, data=blast_data)
        )
        for backend in ("mpi", "mapreduce", "process"):
            got = _partitions(papar.run(
                BLAST_WORKFLOW_XML, args, data=blast_data,
                backend=backend, num_ranks=ranks,
            ))
            assert len(got) == len(reference)
            for ours, theirs in zip(got, reference):
                np.testing.assert_array_equal(ours, theirs, err_msg=backend)

    @pytest.mark.parametrize("ranks", [1, 4])
    def test_hybrid_cut_partitions_identical(self, papar, graph, ranks):
        args = {"input_file": "/in", "output_path": "/out",
                "num_partitions": 4, "threshold": 30}
        data = graph.to_dataset()
        reference = _partitions(
            papar.run(HYBRID_CUT_WORKFLOW_XML, args, data=data)
        )
        for backend in ("mpi", "process"):
            got = _partitions(papar.run(
                HYBRID_CUT_WORKFLOW_XML, args, data=data,
                backend=backend, num_ranks=ranks,
            ))
            for ours, theirs in zip(got, reference):
                np.testing.assert_array_equal(ours, theirs, err_msg=backend)


    def test_hybrid_cut_packed_chunks_ride_shared_memory(self, papar, graph):
        """A packed chunk is two numpy buffers on the wire.  What stays
        inline is the pickle skeleton of each message (schema, scalars),
        which does not grow with the input — the list-of-groups layout
        pickled ~50 B of skeleton per group (2.9 MiB on a 255k-edge run)."""
        args = {"input_file": "/in", "output_path": "/out",
                "num_partitions": 4, "threshold": 30}
        inline = []
        for g in (graph, generate_graph("google", scale=0.01, seed=13)):
            data = g.to_dataset()
            reference = _partitions(papar.run(HYBRID_CUT_WORKFLOW_XML, args, data=data))
            result = papar.run(HYBRID_CUT_WORKFLOW_XML, args, data=data,
                               backend="process", num_ranks=2)
            for ours, theirs in zip(_partitions(result), reference):
                assert ours.tobytes() == theirs.tobytes()
            transport = result.extra["perf"]["transport"]
            assert transport["pickle_bytes"] == 0
            assert transport["shm_bytes"] >= data.nbytes
            inline.append(transport["inline_bytes"])
        small, large = inline  # 1.6k groups, 8.2k groups
        assert large < 64 * 1024
        assert large - small < 1024


class TestMemoryBudgetInterplay:
    def test_budgeted_process_run_matches_unbudgeted(self, papar, blast_data):
        args = {"input_path": "/in", "output_path": "/out", "num_partitions": 4}
        plain = papar.run(BLAST_WORKFLOW_XML, args, data=blast_data,
                          backend="process", num_ranks=4)
        budgeted = papar.run(BLAST_WORKFLOW_XML, args, data=blast_data,
                             backend="process", num_ranks=4,
                             memory_budget="1MB")
        for ours, theirs in zip(_partitions(budgeted), _partitions(plain)):
            np.testing.assert_array_equal(ours, theirs)

    def test_budgeted_run_still_reports_transport(self, papar, blast_data):
        args = {"input_path": "/in", "output_path": "/out", "num_partitions": 4}
        result = papar.run(BLAST_WORKFLOW_XML, args, data=blast_data,
                           backend="process", num_ranks=4, memory_budget="1MB")
        t = result.extra["perf"]["transport"]
        assert t["kind"] == "shm"
        assert t["pickle_bytes"] == 0


class TestShmHygiene:
    def test_no_shm_segments_survive_a_run(self, papar, blast_data):
        args = {"input_path": "/in", "output_path": "/out", "num_partitions": 4}
        result = papar.run(BLAST_WORKFLOW_XML, args, data=blast_data,
                           backend="process", num_ranks=4)
        from repro.mpi.shm import scan_segments

        prefix = result.extra["perf"]["transport"]["shm_prefix"]
        assert scan_segments(prefix) == []


ZERO_IMPORT_RUN = textwrap.dedent(
    """
    import sys

    from repro import PaPar
    from repro.config import BLAST_INPUT_XML
    from repro.config.examples import BLAST_WORKFLOW_XML
    from repro.core.dataset import Dataset
    from repro.formats import BLAST_INDEX_SCHEMA

    papar = PaPar()
    papar.register_input(BLAST_INPUT_XML)
    rows = [(i, 40 + i, i, 40) for i in range(60)]
    data = Dataset.from_rows(BLAST_INDEX_SCHEMA, rows)
    args = {"input_path": "/in", "output_path": "/out", "num_partitions": 3}
    for backend in ("serial", "mpi", "mapreduce"):
        papar.run(BLAST_WORKFLOW_XML, args, data=data, backend=backend,
                  num_ranks=1 if backend == "serial" else 4)
    leaked = sorted(
        m for m in sys.modules
        if m in ("repro.core.process_runtime", "repro.mpi.process_backend",
                 "repro.mpi.shm", "repro.mpi.supervisor")
    )
    if leaked:
        print("LEAKED:", leaked)
        sys.exit(1)
    print("CLEAN")
    """
)


def test_other_backends_never_import_the_process_machinery():
    """backend != 'process' must not even import the shm transport."""
    proc = subprocess.run(
        [sys.executable, "-c", ZERO_IMPORT_RUN],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "CLEAN" in proc.stdout

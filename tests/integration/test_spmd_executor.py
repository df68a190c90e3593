"""The seams of the shared SPMD rank program.

``mpi``, ``mapreduce`` and ``process`` execute one rank program; the
reducer count, the spill decision and the sort-key rule each reach the
exchanges as one value.  These tests cover the places where a per-backend
copy used to be able to drift from the others.
"""

import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro import PaPar
from repro.config import BLAST_INPUT_XML
from repro.config.examples import BLAST_WORKFLOW_XML
from repro.core.dataset import Dataset
from repro.formats import BLAST_INDEX_SCHEMA

ARGS = {"input_path": "/in", "output_path": "/out", "num_partitions": 6}

#: the shipped BLAST workflow, sorting descending (Table I: flag 1)
DESCENDING_WORKFLOW_XML = BLAST_WORKFLOW_XML.replace(
    '<param name="key" type="KeyId" value="seq_size"/>',
    '<param name="key" type="KeyId" value="seq_size"/>\n'
    '      <param name="flag" type="integer" value="1"/>',
)


@pytest.fixture
def papar():
    p = PaPar()
    p.register_input(BLAST_INPUT_XML)
    return p


def blast_data(n, seed):
    rng = np.random.default_rng(seed)
    arr = np.zeros(n, dtype=BLAST_INDEX_SCHEMA.dtype)
    arr["seq_start"] = np.arange(n)
    arr["seq_size"] = rng.integers(10, 800, n)
    arr["desc_start"] = np.arange(n)
    arr["desc_size"] = 40
    return arr


def rows(result):
    return [p.rows() for p in result.partitions]


class TestDescendingSortOverTheDtypeMinimum:
    """``-keys`` on an int32 column maps ``-2**31`` onto itself; the sort key
    must be widened to int64 before negating, on every backend."""

    @pytest.fixture
    def data(self):
        arr = blast_data(400, seed=23)
        arr["seq_size"][137] = -(2**31)
        return Dataset.from_array(BLAST_INDEX_SCHEMA, arr)

    def test_workflow_really_sorts_descending(self, papar, data):
        assert DESCENDING_WORKFLOW_XML != BLAST_WORKFLOW_XML
        serial = papar.run(DESCENDING_WORKFLOW_XML, ARGS, data=data)
        sizes = np.concatenate([p.records["seq_size"] for p in serial.partitions])
        assert sizes.min() == -(2**31)
        # cyclic dealing of a descending order: partition 0 holds the maximum
        assert serial.partitions[0].records["seq_size"][0] == sizes.max()

    @pytest.mark.parametrize("backend", ["mpi", "mapreduce", "process"])
    def test_matches_serial_at_four_ranks(self, papar, data, backend):
        serial = papar.run(DESCENDING_WORKFLOW_XML, ARGS, data=data)
        spmd = papar.run(
            DESCENDING_WORKFLOW_XML, ARGS, data=data, backend=backend, num_ranks=4
        )
        assert rows(spmd) == rows(serial)

    @pytest.mark.parametrize(
        "budget",
        [
            pytest.param(1024, id="sort-and-distribute-spill"),
            # exactly one rank's input block: the sort takes the in-memory
            # exchange under a live budget, its uneven output then pushes
            # distribute through run files
            pytest.param(400 * BLAST_INDEX_SCHEMA.itemsize // 4, id="distribute-spills"),
        ],
    )
    def test_matches_serial_under_a_budget(self, papar, data, budget):
        serial = papar.run(DESCENDING_WORKFLOW_XML, ARGS, data=data)
        spilled = papar.run(
            DESCENDING_WORKFLOW_XML, ARGS, data=data, backend="mpi", num_ranks=4,
            memory_budget=budget,
        )
        assert spilled.extra["perf"]["spill"]["runs_written"] > 0
        assert rows(spilled) == rows(serial)


class TestTheGatheredDealSpills:
    def test_a_deal_over_the_budget_goes_through_run_files(self, papar):
        """An in-memory run gathers its deal; at 64 KB each rank's 128 KiB
        share of it exceeds the budget, so every rank's outbox is run
        files — a ``spill-distribute-shuffle`` span each — and the
        partitions still equal the unbudgeted run's."""
        from repro.obs import Recorder

        data = Dataset.from_array(BLAST_INDEX_SCHEMA, blast_data(32768, seed=31))
        plain = papar.run(BLAST_WORKFLOW_XML, ARGS, data=data, backend="mpi", num_ranks=4)
        rec = Recorder()
        budgeted = papar.run(
            BLAST_WORKFLOW_XML, ARGS, data=data, backend="mpi", num_ranks=4,
            memory_budget="64KB", recorder=rec,
        )
        spills = [s for s in rec.spans if s.name == "spill-distribute-shuffle"]
        assert sorted(s.rank for s in spills) == [0, 1, 2, 3]
        assert {s.category for s in spills} == {"spill"}
        assert sum(s.attrs["records"] for s in spills) == len(data)
        assert not [s for s in rec.spans if s.name == "distribute-shuffle"]
        assert rows(budgeted) == rows(plain)


class TestReducerCountReachesTheSpilledExchange:
    """``num_reducers`` is the same parameter in memory and on the run-file
    path; the shipped value (3) is covered by ``tests/ooc``."""

    @pytest.mark.parametrize("reducers", [1, 7])
    def test_mapreduce_under_a_budget_matches_serial(self, papar, reducers):
        # 16 B/record -> 128 KiB, over a 64KB budget even split four ways
        data = Dataset.from_array(BLAST_INDEX_SCHEMA, blast_data(32768, seed=29))
        args = {**ARGS, "num_reducers": reducers}
        serial = papar.run(BLAST_WORKFLOW_XML, args, data=data)
        budgeted = papar.run(
            BLAST_WORKFLOW_XML, args, data=data, backend="mapreduce",
            num_ranks=4, memory_budget="64KB",
        )
        assert budgeted.extra["perf"]["spill"]["runs_written"] > 0
        for ours, theirs in zip(budgeted.partitions, serial.partitions):
            assert np.array_equal(ours.records, theirs.records)
        assert len(budgeted.partitions) == len(serial.partitions)


LAZY_IMPORT_RUN = textwrap.dedent(
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

    def loaded(*prefixes):
        return sorted(m for m in sys.modules if m.startswith(prefixes))

    papar.run(BLAST_WORKFLOW_XML, args, data=data)
    papar.run(BLAST_WORKFLOW_XML, args, data=data, backend="mpi", num_ranks=4)
    leaked = loaded("repro.core.mr_runtime")
    papar.run(BLAST_WORKFLOW_XML, args, data=data, backend="mapreduce",
              num_ranks=4)
    leaked += loaded("repro.ooc", "repro.core.process_runtime",
                     "repro.mpi.process_backend")
    if leaked:
        print("LEAKED:", leaked)
        sys.exit(1)
    if "repro.core.mr_runtime" not in sys.modules:
        print("mapreduce ran without its runtime module")
        sys.exit(1)
    print("CLEAN")
    """
)


def test_each_backend_imports_only_its_own_runtime():
    """serial/mpi never load the MapReduce subclass; no unbudgeted threaded
    run loads ``repro.ooc`` or the process machinery."""
    proc = subprocess.run(
        [sys.executable, "-c", LAZY_IMPORT_RUN],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "CLEAN" in proc.stdout

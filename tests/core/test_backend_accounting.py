"""Priced time and traffic accounting of the SPMD backends, pinned as literals.

``mpi`` and ``mapreduce`` run one rank program; what differs between them is
data (reducer count, cost model).  These numbers were recorded before the
two runtimes were merged and are deterministic — the simulated fabric and
the priced counts have no wall-clock input — so any drift in ``elapsed``,
``bytes_moved``, ``messages`` or ``records_moved`` means the merged program
issues different collectives or counts different work than the separate
ones did.

Regenerate (only when the cost model itself changes on purpose) with
``PYTHONPATH=src python tests/core/test_backend_accounting.py``.  The blast
rows were re-recorded twice on purpose.  First a sort of the run's input
became the word exchange, which shipped one 8-byte (key, row id) word per
record instead of the 16-byte record and sampled its splitters as one
array per rank — fewer bytes on the wire, so less simulated transfer time.
Then that sort stopped exchanging at all: every rank takes the same
splitters from the same sample of the input and cuts its own range, so the
splitter ``allgather`` and the word ``alltoall`` are gone — 18 fewer
messages at 4 ranks (42 -> 24), 70 fewer at 8 (154 -> 84); what the wire
still carries is the deal's pieces of this in-memory run and its scalars,
so ``bytes_moved`` and ``elapsed`` dropped with them, and ``records_moved``
(the rows each rank's block routes) did not move.  The hybrid rows (a
group, still the record exchange) did not move either time.

Every multi-rank row was re-recorded a third time when a gathered deal's
pieces stopped carrying their first global position: owners concatenate
pieces in arrival order, which is position order, so each shipped piece
is ``(partition, entries)`` where it was ``(partition, first, entries)``.
``bytes_moved`` dropped by the pickled integers (50 B of 79092 on
``mpi``@4 blast) and ``elapsed`` with it; ``messages`` and
``records_moved`` did not move.

The ``elapsed`` column was re-recorded a fourth time when simulated time
stopped being a per-rank Lamport clock advanced message by message and
became the price of each job's counts
(:func:`repro.cluster.model.price`): a job costs its slowest rank's
compute, transfer and packing plus the job overhead, and jobs add up.  A
message is now priced to its sender, no rank waits on another's clock
across a job boundary, so every multi-rank row moved (by -4.7 % to +1.4 %);
the one-rank rows, where nothing is sent, did not.  ``bytes_moved``,
``messages`` and ``records_moved`` did not move.
"""

import numpy as np
import pytest

from repro import PaPar
from repro.cluster import INFINIBAND_QDR, ClusterModel
from repro.config import BLAST_INPUT_XML, EDGE_INPUT_XML
from repro.config.examples import BLAST_WORKFLOW_XML, HYBRID_CUT_WORKFLOW_XML
from repro.core.dataset import Dataset
from repro.formats import BLAST_INDEX_SCHEMA, EDGE_LIST_SCHEMA

CLUSTER_SHAPES = {1: (1, 1), 4: (2, 2), 8: (4, 2)}


def blast_data():
    rng = np.random.default_rng(17)
    arr = np.zeros(6000, dtype=BLAST_INDEX_SCHEMA.dtype)
    arr["seq_start"] = np.arange(6000)
    arr["seq_size"] = rng.integers(10, 2000, 6000)
    arr["desc_start"] = np.arange(6000)
    arr["desc_size"] = 40
    return Dataset.from_array(BLAST_INDEX_SCHEMA, arr)


def hybrid_data():
    rng = np.random.default_rng(19)
    pairs = zip(rng.integers(0, 2000, 8000), rng.zipf(1.8, size=8000) % 300)
    edges = sorted({(int(s), int(t)) for s, t in pairs})
    return Dataset.from_rows(EDGE_LIST_SCHEMA, edges)


WORKFLOWS = {
    "blast": (
        BLAST_WORKFLOW_XML,
        {"input_path": "/in", "output_path": "/out", "num_partitions": 6},
        blast_data,
    ),
    "hybrid": (
        HYBRID_CUT_WORKFLOW_XML,
        {"input_file": "/in", "output_path": "/out", "num_partitions": 5,
         "threshold": 8},
        hybrid_data,
    ),
}

#: (backend, workflow, ranks, num_reducers override or None)
GRID = [
    (backend, workflow, ranks, None)
    for backend in ("mpi", "mapreduce")
    for workflow in ("blast", "hybrid")
    for ranks in (1, 4, 8)
] + [("mapreduce", "blast", 4, reducers) for reducers in (1, 3, 7)]

#: (elapsed, bytes_moved, messages, records_moved) per GRID entry, recorded
#: at the commit before the runtimes were merged (re-recorded: see above)
EXPECTED = {
    ('mpi', 'blast', 1, None): (0.0005349872709024851, 0, 0, 12000),
    ('mpi', 'blast', 4, None): (0.0005239683315443682, 79042, 24, 12000),
    ('mpi', 'blast', 8, None): (0.0005251083817726277, 107726, 84, 12000),
    ('mpi', 'hybrid', 1, None): (0.0007620305882352942, 0, 0, 10088),
    ('mpi', 'hybrid', 4, None): (0.0008217971588235294, 313537, 66, 10088),
    ('mpi', 'hybrid', 8, None): (0.0009021313406862745, 839527, 238, 10088),
    ('mapreduce', 'blast', 1, None): (0.0005, 0, 0, 12000),
    ('mapreduce', 'blast', 4, None): (0.0005186126777777778, 74628, 24, 12000),
    ('mapreduce', 'blast', 8, None): (0.0005265907555555556, 88894, 84, 12000),
    ('mapreduce', 'hybrid', 1, None): (0.00075, 0, 0, 10088),
    ('mapreduce', 'hybrid', 4, None): (0.0008175400999999999, 313537, 66, 10088),
    ('mapreduce', 'hybrid', 8, None): (0.0008981754583333335, 839527, 238, 10088),
    ('mapreduce', 'blast', 4, 1): (0.0005275626388888889, 65910, 24, 12000),
    ('mapreduce', 'blast', 4, 3): (0.0005186126777777778, 74628, 24, 12000),
    ('mapreduce', 'blast', 4, 7): (0.0005175832, 78047, 24, 12000),
}


def measure(backend, workflow, ranks, reducers):
    xml, args, make_data = WORKFLOWS[workflow]
    if reducers is not None:
        args = {**args, "num_reducers": reducers}
    papar = PaPar()
    papar.register_input(BLAST_INPUT_XML)
    papar.register_input(EDGE_INPUT_XML)
    nodes, per_node = CLUSTER_SHAPES[ranks]
    cluster = ClusterModel(
        num_nodes=nodes, ranks_per_node=per_node, network=INFINIBAND_QDR
    )
    result = papar.run(
        xml, args, data=make_data(), backend=backend, num_ranks=ranks,
        cluster=cluster,
    )
    return (
        result.elapsed,
        result.bytes_moved,
        result.messages,
        result.perf["records_moved"],
    )


@pytest.mark.parametrize(
    "case", GRID, ids=lambda c: "-".join(str(x) for x in c if x is not None)
)
def test_accounting_matches_recorded_literals(case):
    elapsed, bytes_moved, messages, records_moved = measure(*case)
    want = EXPECTED[case]
    assert elapsed == pytest.approx(want[0], rel=1e-9)
    assert (bytes_moved, messages, records_moved) == want[1:]


@pytest.mark.parametrize("backend,ranks", [("mpi", 4), ("mapreduce", 3), ("process", 2)])
def test_a_sort_of_the_input_crosses_no_fabric(tmp_path, backend, ranks):
    """File to file every rank cuts its own range of the sort from the
    shared input and the deal writes in place, so only the deal's
    exclusive-scan and all-reduce scalars cross the fabric — at most 1 KiB
    where the word exchange shipped 8 B per record."""
    from repro.formats import write_binary

    n = 100_000
    rows = blast_data().records
    rows = rows[np.random.default_rng(3).integers(0, len(rows), n)]
    path = tmp_path / "db.index"
    write_binary(path, rows, BLAST_INDEX_SCHEMA, header=b"\x00" * 32)
    papar = PaPar()
    papar.register_input(BLAST_INPUT_XML)
    out = papar.partition_files(
        BLAST_WORKFLOW_XML,
        {"input_path": str(path), "output_path": str(tmp_path / "out"),
         "num_partitions": 6},
        backend=backend, num_ranks=ranks,
    )
    assert out.result.perf["output"]["mode"] == "in_place"
    assert out.result.perf["records_moved"] == 2 * n  # routed by the sort, dealt
    assert out.result.bytes_moved <= 1024


def test_cluster_model_actually_charges_time():
    """Guards the pin itself: a zero elapsed would match any refactor."""
    assert all(want[0] > 0.0 for want in EXPECTED.values())
    assert set(EXPECTED) == set(GRID)


if __name__ == "__main__":  # pragma: no cover - regeneration aid
    for case in GRID:
        print(f"    {case!r}: {measure(*case)!r},")

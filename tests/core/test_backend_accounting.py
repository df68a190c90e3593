"""Virtual-time and traffic accounting of the SPMD backends, pinned as literals.

``mpi`` and ``mapreduce`` run one rank program; what differs between them is
data (reducer count, cost profile).  These numbers were recorded before the
two runtimes were merged and are deterministic — the simulated fabric and
clocks have no wall-clock input — so any drift in ``elapsed``,
``bytes_moved``, ``messages`` or ``records_moved`` means the merged program
issues different collectives or charges different costs than the separate
ones did.

Regenerate (only when the cost model itself changes on purpose) with
``PYTHONPATH=src python tests/core/test_backend_accounting.py``.
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
#: at the commit before the runtimes were merged
EXPECTED = {
    ('mpi', 'blast', 1, None): (0.0005349872709024851, 0, 0, 12000),
    ('mpi', 'blast', 4, None): (0.0005759383907323582, 274061, 42, 12000),
    ('mpi', 'blast', 8, None): (0.0006428799936592346, 708163, 154, 12000),
    ('mpi', 'hybrid', 1, None): (0.0007620305882352942, 0, 0, 10088),
    ('mpi', 'hybrid', 4, None): (0.0008422128075163381, 313587, 66, 10088),
    ('mpi', 'hybrid', 8, None): (0.0009461142826797353, 839614, 238, 10088),
    ('mapreduce', 'blast', 1, None): (0.0005, 0, 0, 12000),
    ('mapreduce', 'blast', 4, None): (0.0005708258027777775, 269000, 42, 12000),
    ('mapreduce', 'blast', 8, None): (0.000647733649999999, 688745, 154, 12000),
    ('mapreduce', 'hybrid', 1, None): (0.00075, 0, 0, 10088),
    ('mapreduce', 'hybrid', 4, None): (0.0008400095722222205, 313587, 66, 10088),
    ('mapreduce', 'hybrid', 8, None): (0.0009421586944444412, 839614, 238, 10088),
    ('mapreduce', 'blast', 4, 1): (0.0005716034444444437, 260345, 42, 12000),
    ('mapreduce', 'blast', 4, 3): (0.0005708258027777775, 269000, 42, 12000),
    ('mapreduce', 'blast', 4, 7): (0.0005693471749999996, 272306, 42, 12000),
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


def test_cluster_model_actually_charges_time():
    """Guards the pin itself: a zero elapsed would match any refactor."""
    assert all(want[0] > 0.0 for want in EXPECTED.values())
    assert set(EXPECTED) == set(GRID)


if __name__ == "__main__":  # pragma: no cover - regeneration aid
    for case in GRID:
        print(f"    {case!r}: {measure(*case)!r},")

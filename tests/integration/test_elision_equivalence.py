"""The minimal plan writes the bytes of the plan that runs every job.

For each shape the planner shortens (a fused sort -> sort, a dead
operator, a dead chain, sort -> group, flat group -> ascending sort, and
both wiring witnesses of the shipped BLAST workflow) a plain file-to-file
run must write the same part files as the hand-built plan that keeps
every declared job, on {serial, mpi, mapreduce, process}, with and
without a memory budget.  Each shape the planner refuses plans every job.
"""

import pytest

from repro import PaPar
from repro.config import BLAST_INPUT_XML
from repro.core.planner import Planner
from repro.formats import BLAST_INDEX_SCHEMA, write_binary
from tests.integration._shapes import ELIDED, REFUSED
from tests.core.test_narrow_sort import blast_rows

BACKENDS = [("serial", 1), ("mpi", 2), ("mapreduce", 3), ("process", 2)]
BUDGETS = [None, "64KB"]


@pytest.fixture(scope="module")
def papar():
    p = PaPar()
    p.register_input(BLAST_INPUT_XML)
    return p


@pytest.fixture(scope="module")
def index(tmp_path_factory):
    """6,000 records: 94 KiB, so the 64 KB budget spills."""
    path = tmp_path_factory.mktemp("input") / "db.index"
    write_binary(path, blast_rows(6000), BLAST_INDEX_SCHEMA, header=b"\x00" * 32)
    return str(path)


def parts(out):
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("budget", BUDGETS, ids=["in-memory", "64KB"])
@pytest.mark.parametrize("backend, ranks", BACKENDS, ids=[b for b, _ in BACKENDS])
@pytest.mark.parametrize("shape", sorted(ELIDED))
def test_the_minimal_plan_writes_the_bytes_of_every_job(
    papar, index, tmp_path, shape, backend, ranks, budget
):
    xml, dropped = ELIDED[shape]
    spec = papar.load_workflow(xml)
    args = {"input_path": index, "num_partitions": 4}
    minimal = papar.plan(spec, {**args, "output_path": "/out"})
    assert [e.op_id for e in minimal.elided] == dropped
    every_job = Planner()._plan_every_job(spec, {**args, "output_path": "/out"})
    assert len(every_job.jobs) == len(minimal.jobs) + len(dropped)
    written = []
    for name, plan in (("minimal", minimal), ("every-job", every_job)):
        out = tmp_path / name
        papar.partition_files(plan, {**args, "output_path": str(out)}, backend=backend,
                              num_ranks=ranks, memory_budget=budget)
        written.append(parts(out))
    assert list(written[0]) == [f"part-{i:05d}" for i in range(4)]
    assert written[0] == written[1]


@pytest.mark.parametrize("shape", sorted(REFUSED))
def test_a_refused_shape_plans_every_job(papar, index, tmp_path, shape):
    spec = papar.load_workflow(REFUSED[shape])
    args = {"input_path": index, "output_path": str(tmp_path / "out"), "num_partitions": 4}
    plan = papar.plan(spec, args)
    assert plan.elided == []
    assert [j.op_id for j in plan.jobs] == [op.id for op in spec.operators]
    papar.partition_files(plan, args, backend="mpi", num_ranks=2)
    assert len(parts(tmp_path / "out")) == 4

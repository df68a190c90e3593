"""A built-in operator loads when a workflow names it, and no sooner.

``repro.ops.BUILTINS`` maps each built-in operator name to its module; a
lookup by name imports it.  So a BLAST workflow (sort, distribute) never
compiles the group, split, add-on or format modules — while an unknown
operator is still reported, every registry query still sees every
built-in, and a user's operator still registers, plans and runs.
"""

import subprocess
import sys

import numpy as np

from repro.config import BLAST_INPUT_XML
from repro.config.examples import BLAST_WORKFLOW_XML
from repro.config.workflow import Bindings
from repro.core.dataset import Dataset
from repro.core.physical import physical_plan
from repro.core.planner import PlannedJob, WorkflowPlan
from repro.core.runtime import MPIRuntime, SerialRuntime
from repro.formats import EDGE_LIST_SCHEMA
from repro.ops import BUILTINS, Distribute
from repro.ops.base import BasicOperator, get_basic, register_basic, registered_names

_UNNAMED = ("repro.ops.group", "repro.ops.split", "repro.ops.addons", "repro.ops.format_ops")


def fresh(code: str) -> str:
    """stdout of ``code`` run in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    return done.stdout


def test_planning_a_blast_workflow_loads_no_operator_it_does_not_name():
    out = fresh(f"""
import sys
from repro.config import parse_input_config, parse_workflow_config
from repro.core.planner import Planner
plan = Planner().plan(parse_workflow_config({BLAST_WORKFLOW_XML!r}),
                      {{"input_path": "db", "output_path": "out", "num_partitions": 4}})
print([job.operator_name for job in plan.jobs])
print(sorted(m for m in {_UNNAMED!r} if m in sys.modules))
""")
    assert out.splitlines() == ["['Sort', 'Distribute']", "[]"]


def test_an_unknown_operator_is_still_reported(tmp_path):
    workflow = tmp_path / "w.xml"
    workflow.write_text(BLAST_WORKFLOW_XML.replace('operator="Sort"', 'operator="Teleport"'))
    config = tmp_path / "in.xml"
    config.write_text(BLAST_INPUT_XML)
    done = subprocess.run(
        [sys.executable, "-m", "repro", "lint", str(workflow), "--input", str(config)],
        capture_output=True, text=True,
    )
    assert done.returncode == 1
    assert "PAP004 operator 'sort' uses unknown operator type 'Teleport'" in done.stdout


def test_every_registry_query_sees_every_builtin():
    names = registered_names()
    for family, builtins in BUILTINS.items():
        assert set(builtins) <= set(names[family])
    assert get_basic("GROUP").__module__ == "repro.ops.group"


def test_a_user_operator_named_like_an_unloaded_builtin_is_refused():
    out = fresh("""
from repro.errors import OperatorError
from repro.ops.base import BasicOperator, register_basic
try:
    @register_basic
    class Group(BasicOperator):
        name = "group"
except OperatorError as exc:
    print(exc)
""")
    assert out.strip() == "basic operator 'group' is already registered"


@register_basic
class EveryOther(BasicOperator):
    """Keeps every other entry."""

    name = "EveryOther"

    def apply_local(self, data: Dataset) -> Dataset:
        return data.take(np.arange(0, len(data), 2))


def test_a_registered_operator_plans_and_runs():
    assert get_basic("everyother") is EveryOther
    assert "everyother" in registered_names()["basic"]
    jobs = [
        PlannedJob("thin", "EveryOther", EveryOther(), None, output_paths=["/tmp/thin"]),
        PlannedJob("distr", "Distribute", Distribute("cyclic", 2), "thin", [0], ["/out"]),
    ]
    plan = WorkflowPlan("custom", jobs, Bindings())
    assert physical_plan(plan, EDGE_LIST_SCHEMA, spmd=False)["thin"].path is None
    data = Dataset.from_rows(EDGE_LIST_SCHEMA, [(i, i) for i in range(8)])
    serial = SerialRuntime().execute(plan, data)
    assert [p.records["vertex_a"].tolist() for p in serial.partitions] == [[0, 4], [2, 6]]
    spmd = MPIRuntime(num_ranks=2).execute(plan, data)
    assert sum(p.num_records for p in spmd.partitions) == 4

"""Code generation: a workflow plan -> standalone Python partitioner source.

The paper (Section III-D): "We implement a parser to parse the configuration
files and generate the Hadoop or MPI based partitioner by directly calling
the backend implementations of operators."  This module is that generator
for the Python backends: it emits a self-contained module that reconstructs
the planned operator pipeline with fully-resolved literal parameters and
drives it through either runtime.

The generated source is importable (``compile_partitioner`` executes it and
returns the module namespace) and writable to disk for inspection — and the
test suite checks the generated partitioner's output is bit-identical to
direct interpretation of the same plan.
"""

from __future__ import annotations

import types
from typing import Any

from repro._version import __version__
from repro.core.planner import PlannedJob, WorkflowPlan
from repro.errors import CodegenError
from repro.ops.distribute import Distribute
from repro.ops.group import Group
from repro.ops.sort import Sort
from repro.ops.split import Split


def _operator_expr(job: PlannedJob) -> str:
    """Python expression reconstructing the job's operator."""
    op = job.operator
    if isinstance(op, Sort):
        return f"Sort(key={op.key!r}, ascending={op.ascending!r})"
    if isinstance(op, Group):
        addon_items = ", ".join(
            f"(get_addon({a.name!r}), {attr!r}, {fieldname!r})"
            for a, attr, fieldname in op.addons
        )
        return (
            f"Group(key={op.key!r}, addons=[{addon_items}], "
            f"output_format={op.output_format!r})"
        )
    if isinstance(op, Split):
        policy_text = job.resolved_params.get("policy") or job.resolved_params.get(
            "splitPolicy"
        )
        if not policy_text:
            raise CodegenError(f"split job {job.op_id!r} lost its policy text")
        fmt_names = [f.name for f in op.output_formats]
        return (
            f"Split(key={op.key!r}, policy=SplitPolicy.parse({str(policy_text)!r}), "
            f"output_formats={fmt_names!r})"
        )
    if isinstance(op, Distribute):
        return (
            f"Distribute(policy={op.policy.name!r}, "
            f"num_partitions={op.num_partitions!r})"
        )
    # user-defined operators provide their own reconstruction expression
    hook = getattr(op, "codegen_expr", None)
    if callable(hook):
        expr = hook()
        if not isinstance(expr, str):
            raise CodegenError(
                f"{type(op).__name__}.codegen_expr() must return a string expression"
            )
        return expr
    raise CodegenError(
        f"cannot generate code for operator type {type(op).__name__!r} "
        f"(job {job.op_id!r}); give it a codegen_expr() method or run interpreted"
    )


def _extra_imports(plan: WorkflowPlan) -> str:
    """Import lines requested by user-defined operators (codegen_imports)."""
    lines: list[str] = []
    for job in plan.jobs:
        hook = getattr(job.operator, "codegen_imports", None)
        if callable(hook):
            for line in hook():
                if line not in lines:
                    lines.append(line)
    return ("\n".join(lines) + "\n") if lines else ""


def generate_partitioner_source(plan: WorkflowPlan) -> str:
    """Emit the standalone partitioner module for ``plan``."""
    job_lines = []
    for job in plan.jobs:
        job_lines.append(
            "    jobs.append(PlannedJob("
            f"op_id={job.op_id!r}, "
            f"operator_name={job.operator_name!r}, "
            f"operator={_operator_expr(job)}, "
            f"source={job.source!r}, "
            f"source_outputs={job.source_outputs!r}, "
            f"output_paths={job.output_paths!r}, "
            f"num_reducers={job.num_reducers!r}))"
        )
    jobs_block = "\n".join(job_lines)
    return f'''\
"""Partitioner for workflow {plan.workflow_id!r} — generated by PaPar {__version__}.

Auto-generated; edit the workflow configuration instead of this file.
"""

from repro.config.workflow import Bindings
from repro.core.planner import PlannedJob, WorkflowPlan
from repro.core.runtime import MPIRuntime, SerialRuntime
from repro.ops import Distribute, Group, Sort, Split
from repro.ops.base import get_addon
from repro.policies import SplitPolicy
{_extra_imports(plan)}
WORKFLOW_ID = {plan.workflow_id!r}


def build_plan():
    """Reconstruct the planned job sequence with resolved parameters."""
    jobs = []
{jobs_block}
    return WorkflowPlan(workflow_id=WORKFLOW_ID, jobs=jobs, env=Bindings())


def run(input_data, backend="serial", num_ranks=1, cluster=None):
    """Partition ``input_data`` (a repro Dataset); returns a PartitionResult."""
    plan = build_plan()
    if backend == "serial":
        return SerialRuntime().execute(plan, input_data)
    if backend == "mpi":
        return MPIRuntime(num_ranks=num_ranks, cluster=cluster).execute(plan, input_data)
    raise ValueError(f"unknown backend {{backend!r}}")
'''


def compile_partitioner(plan: WorkflowPlan) -> types.ModuleType:
    """Generate, execute and return the partitioner module."""
    source = generate_partitioner_source(plan)
    module = types.ModuleType(f"papar_generated_{plan.workflow_id}")
    module.__dict__["__papar_source__"] = source
    try:
        exec(compile(source, f"<papar:{plan.workflow_id}>", "exec"), module.__dict__)
    except Exception as exc:  # pragma: no cover - generator bug guard
        raise CodegenError(f"generated partitioner failed to compile: {exc}") from exc
    return module


def write_partitioner(plan: WorkflowPlan, path: Any) -> str:
    """Write the generated source to ``path``; returns the source text."""
    source = generate_partitioner_source(plan)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(source)
    return source

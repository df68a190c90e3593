"""The checkers that only warn or inform: configuration hygiene (PAP013,
PAP023, PAP025), the resolved plan's schedule and ties (PAP042-PAP044) and
the optimization advisories (PAP080, PAP081, PAP084).

These rules never block a run, so the gate of ``plan`` / ``run`` / ``serve``
never loads this module.  PAP080 and PAP081 report the jobs the planner
drops from the plan it runs (:attr:`WorkflowPlan.elided
<repro.core.planner.WorkflowPlan.elided>`): a dead stage, an exchange the
adjacent exchange recreates.  The planner's one predicate decides; the
rules only say so, at the dropped operator's line.  PAP084 names the job
that dominates the wire bytes of a declared SPMD run, priced from the
physical plan the runtimes dispatch on; nothing acts on it.
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.ir import EXCHANGE_KINDS
from repro.analysis.model import LintContext, iter_references
from repro.analysis.rules import checker
from repro.analysis.rules.backend import SPMD_BACKENDS
from repro.analysis.rules.plan import op_line
from repro.analysis.rules.schema_flow import split_policies
from repro.config.workflow import BOOLEAN_FALSE_LITERALS, BOOLEAN_TRUE_LITERALS, _REF_RE

#: estimated wire bytes above which PAP084 calls an exchange a hotspot
HOTSPOT_BYTES = 256 * 1024 * 1024


@checker("PAP080", "PAP081")
def check_elided_jobs(ctx: LintContext) -> Iterator[Diagnostic]:
    """PAP080 / PAP081: each job the planner does not run, and why."""
    if ctx.plan is None or ctx.model is None:
        return
    for elided in ctx.plan.elided:
        op = ctx.model.operator(elided.op_id)
        if elided.code == "PAP080":
            message = f"operator {op.id!r} is dead: {elided.reason}"
            suggestion = (f"the planner skips it; consume ${op.id}.outputPath "
                          "downstream, or delete the operator")
        else:
            message = (f"exchange of operator {op.id!r} ({EXCHANGE_KINDS[op.kind]}) "
                       f"is redundant: {elided.reason}")
            suggestion = f"the planner skips operator {op.id!r}; one exchange suffices"
        yield ctx.diag(elided.code, message, line=op.line, suggestion=suggestion)


def _fmt_bytes(n: float) -> str:
    for unit, scale in (("GB", 1 << 30), ("MB", 1 << 20), ("KB", 1 << 10)):
        if n >= scale:
            return f"{n / scale:.1f}{unit}"
    return f"{n:.0f}B"


@checker("PAP084")
def check_exchange_hotspots(ctx: LintContext) -> Iterator[Diagnostic]:
    """PAP084: a job of the SPMD physical plan whose wire bytes cross the
    threshold — records x shipped width for a record exchange or a
    gathered deal, nothing for a cut or an in-place deal."""
    choices = ctx.physical(spmd=True) if ctx.backend in SPMD_BACKENDS else None
    records = ctx.input_records()
    if choices is None or records is None:
        return
    for op_id, choice in choices.items():
        wire = choice.wire_bytes(records)
        if wire is None or wire <= HOTSPOT_BYTES:  # None: a string field's width
            continue
        yield ctx.diag(
            "PAP084",
            f"exchange of operator {op_id!r} ({choice.path}) ships an "
            f"estimated {_fmt_bytes(wire)} ({records} records x "
            f"{choice.width}B) on backend={ctx.backend!r}, above the "
            f"{_fmt_bytes(HOTSPOT_BYTES)} hotspot threshold",
            line=ctx.model.operator(op_id).line,
            suggestion="tune this stage first: more ranks, narrower records, "
            "or a combiner below the shuffle",
        )


@checker("PAP013")
def check_unused_arguments(ctx: LintContext) -> Iterator[Diagnostic]:
    """PAP013: declared arguments nothing references."""
    if ctx.model is None:
        return
    used = {ref.head for ref in iter_references(ctx.model) if len(ref.parts) == 1}
    # dotted references never hit arguments, but count $arg inside dotted
    # heads conservatively (heads are operators, so nothing to add)
    for arg in ctx.model.arguments.values():
        if arg.name not in used:
            yield ctx.diag(
                "PAP013",
                f"workflow argument {arg.name!r} is declared but never referenced",
                line=arg.line,
                suggestion="remove the declaration or reference it as "
                f"${arg.name}",
            )


@checker("PAP023")
def check_split_coverage(ctx: LintContext) -> Iterator[Diagnostic]:
    """PAP023: every key value should match some condition (first match
    wins); probe the threshold boundaries instead of solving inequalities."""
    for op, policy, policy_param, _available in split_policies(ctx):
        line = policy_param.line
        probes: set[float] = set()
        for cond in policy.conditions:
            t = cond.operand
            probes.update((t - 1.0, t - 0.5, t, t + 0.5, t + 1.0))
        unrouted = sorted(
            v for v in probes
            if not any(c.matches_scalar(v) for c in policy.conditions)
        )
        if unrouted:
            shown = ", ".join(f"{v:g}" for v in unrouted[:4])
            yield ctx.diag(
                "PAP023",
                f"split operator {op.id!r}: key values such as {shown} match no "
                "condition and would abort the run",
                line=line or op.line,
                suggestion="make the conditions cover the whole key range "
                "(e.g. pair {>=, t} with {<, t})",
            )


@checker("PAP025")
def check_boolean_literals(ctx: LintContext) -> Iterator[Diagnostic]:
    """PAP025: boolean literals outside the accepted true/false sets."""
    if ctx.model is None:
        return
    every_param = [(None, a) for a in ctx.model.arguments.values()]
    for op in ctx.model.operators:
        every_param.extend((op, p) for p in op.params.values())
    for op, param in every_param:
        if param.type.lower() not in ("boolean", "bool"):
            continue
        value = param.value
        if value is None or _REF_RE.search(value):
            continue
        text = value.strip().lower()
        if text not in BOOLEAN_TRUE_LITERALS and text not in BOOLEAN_FALSE_LITERALS:
            where = f"operator {op.id!r} " if op is not None else ""
            yield ctx.diag(
                "PAP025",
                f"{where}boolean parameter {param.name!r} has literal "
                f"{value!r}, which is not a recognized true/false value "
                "(the runtime rejects it)",
                line=param.line,
                suggestion=f"use one of {sorted(BOOLEAN_TRUE_LITERALS)} or "
                f"{sorted(BOOLEAN_FALSE_LITERALS)}",
            )


@checker("PAP042", "PAP044")
def check_collective_schedule(ctx: LintContext) -> Iterator[Diagnostic]:
    """PAP042: num_reducers consistent across jobs and with the partition
    count; PAP044: declared ranks should not exceed the partition count."""
    if ctx.plan is None:
        return
    from repro.ops.distribute import Distribute

    declared = [
        (job, job.num_reducers)
        for job in ctx.plan.jobs
        if job.num_reducers is not None
    ]
    distinct = {n for _job, n in declared}
    if len(distinct) > 1:
        jobs = ", ".join(f"{job.op_id}={n}" for job, n in declared)
        yield ctx.diag(
            "PAP042",
            "jobs declare inconsistent reducer counts "
            f"({jobs}); every shuffle re-partitions the data differently",
            line=op_line(ctx, declared[0][0].op_id),
            suggestion="use one num_reducers for the whole workflow",
        )

    nparts = None
    final_distribute = None
    for job in ctx.plan.jobs:
        if isinstance(job.operator, Distribute):
            nparts = job.operator.num_partitions
            final_distribute = job
    if nparts is not None:
        for job, n in declared:
            if n > nparts:
                yield ctx.diag(
                    "PAP042",
                    f"job {job.op_id!r} declares num_reducers={n}, more than "
                    f"the final partition count {nparts}; the extra reducers "
                    "produce empty shards",
                    line=op_line(ctx, job.op_id),
                )
        if ctx.ranks is not None and ctx.ranks > nparts and final_distribute is not None:
            yield ctx.diag(
                "PAP044",
                f"running with {ctx.ranks} rank(s) but job "
                f"{final_distribute.op_id!r} produces only {nparts} "
                "partition(s); the surplus ranks stay idle",
                line=op_line(ctx, final_distribute.op_id),
                suggestion="lower --ranks or raise numPartitions",
            )


@checker("PAP043")
def check_sort_determinism(ctx: LintContext) -> Iterator[Diagnostic]:
    """PAP043: sorts feeding a split/distribute partition tied keys by
    input order — stable, but input-order-sensitive."""
    if ctx.plan is None:
        return
    from repro.ops.base import is_basic
    from repro.ops.sort import Sort

    by_id = {job.op_id: job for job in ctx.plan.jobs}
    for job in ctx.plan.jobs:
        if job.source is None or not is_basic(job.operator, "split", "distribute"):
            continue
        producer = by_id.get(job.source)
        if producer is None or not isinstance(producer.operator, Sort):
            continue
        yield ctx.diag(
            "PAP043",
            f"job {job.op_id!r} partitions the output of sort "
            f"{producer.op_id!r}: records with equal "
            f"{producer.operator.key!r} keys keep input order (stable sort), "
            "so partition contents depend on input file order",
            line=op_line(ctx, job.op_id),
            suggestion="add a tie-breaking secondary key upstream if "
            "partition contents must be input-order independent",
        )


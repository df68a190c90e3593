"""Optimization advisories (PAP080, PAP081, PAP084).

These rules never block a run.  PAP080 and PAP081 report the jobs the
planner drops from the plan it runs (:attr:`WorkflowPlan.elided
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
from repro.analysis.model import LintContext
from repro.analysis.rules import checker
from repro.analysis.rules.backend import SPMD_BACKENDS

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

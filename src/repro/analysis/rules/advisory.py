"""Optimization advisories (PAP080-PAP084).

These rules never block a run.  PAP080 and PAP081 report the jobs the
planner drops from the plan it runs (:attr:`WorkflowPlan.elided
<repro.core.planner.WorkflowPlan.elided>`): a dead stage, an exchange the
adjacent exchange recreates.  The planner's one predicate decides; the
rules only say so, at the dropped operator's line.  PAP083 names unread
columns and PAP084 the exchange that dominates the bytes-moved budget;
nothing acts on either.
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.ir import EXCHANGE_KINDS
from repro.analysis.model import LintContext
from repro.analysis.rules import checker

#: estimated payload above which PAP084 calls an exchange a hotspot
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


@checker("PAP083")
def check_unused_columns(ctx: LintContext) -> Iterator[Diagnostic]:
    """PAP083: input columns nothing reads, with the bytes pruning saves."""
    if ctx.model is None:
        return
    analyzed = ctx.analyzed()
    if analyzed is None or not analyzed.cost.unused_columns:
        return
    # only worth advising when an intermediate exchange actually exists:
    # the final stage must materialize whole records either way
    final = analyzed.ir.final
    early = [
        e for e in analyzed.cost.exchanges
        if final is None or e.op_id != final.op_id
    ]
    if not early:
        return
    cols = ", ".join(repr(c) for c in analyzed.cost.unused_columns)
    saved = analyzed.cost.prunable_bytes
    estimate = (
        f"pruning them would save an estimated {_fmt_bytes(saved)} of "
        "exchange traffic"
        if saved is not None
        else "pruning them would shrink every intermediate exchange"
    )
    schema, arg = ctx.input_schema()
    yield ctx.diag(
        "PAP083",
        f"column(s) {cols} are never read by any key or add-on; {estimate}",
        line=arg.line if arg is not None else None,
        suggestion="if the part files do not need them either, drop them "
        "from the input schema; no optimizer pass narrows records",
    )


@checker("PAP084")
def check_exchange_hotspots(ctx: LintContext) -> Iterator[Diagnostic]:
    """PAP084: an exchange whose estimated payload crosses the threshold."""
    if ctx.model is None:
        return
    analyzed = ctx.analyzed()
    if analyzed is None:
        return
    for est in analyzed.cost.exchanges:
        if est.est_bytes is None or est.est_bytes <= HOTSPOT_BYTES:
            continue
        node = analyzed.ir.node(est.op_id)
        yield ctx.diag(
            "PAP084",
            f"exchange of operator {est.op_id!r} ({est.kind}) moves an "
            f"estimated {_fmt_bytes(est.est_bytes)} "
            f"({est.rows:.0f} records x {est.row_bytes:.0f}B), above the "
            f"{_fmt_bytes(HOTSPOT_BYTES)} hotspot threshold",
            line=node.line if node is not None else None,
            suggestion="tune this stage first: more ranks, narrower records, "
            "or a combiner below the shuffle",
        )

"""Streaming-service fit checks (PAP090).

These rules only fire when the user declares the workflow is destined for
the long-lived daemon (``papar lint --serve`` or the ``papar serve`` lint
gate).  PAP090 warns when the final distribute is fed by no sort or group
stage: the daemon then routes incremental appends by *position* (the
dealing permutation), so which partition a record lands in depends on the
order batches happen to arrive — two clients interleaving appends get a
different placement than one client sending the same records, and placement
only reconciles with the batch run at the next full rebalance.  Keyed
routing (a sort or group feeding the distribute) places each record by its
own key and has no such sensitivity.
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.model import LintContext
from repro.analysis.rules import checker

#: operator kinds whose exchange keys records (arrival-order insensitive)
KEYED_KINDS = ("sort", "group")


@checker("PAP090")
def check_stream_safety(ctx: LintContext) -> Iterator[Diagnostic]:
    """PAP090: the declared serve workflow versus order-sensitive routing."""
    if not ctx.serve or ctx.model is None or not ctx.model.operators:
        return
    final = ctx.model.operators[-1]
    if final.kind != "distribute":
        # a non-distribute tail is rejected by the planner (the daemon
        # refuses to start); nothing stream-specific to add here
        return
    if any(op.kind in KEYED_KINDS for op in ctx.model.operators[:-1]):
        return
    policy = final.param_value("distrPolicy", "policy") or "cyclic"
    yield ctx.diag(
        "PAP090",
        f"distribute {final.id!r} uses the order-sensitive dealing policy "
        f"{policy!r} with no sort or group stage upstream: under 'papar "
        "serve', which partition an appended record lands in depends on "
        "batch arrival order, not on the record itself",
        line=final.line,
        suggestion="add a Sort or Group stage so appends route by key, or "
        "accept that placement is arrival-order dependent until the next "
        "rebalance folds the log into a batch-identical layout",
    )

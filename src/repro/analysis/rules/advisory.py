"""Optimization advisories over the analyzed plan-IR (PAP080-PAP084).

These rules never block a run — they are the static half of the plan
optimizer (ROADMAP item 2), reporting as INFO what a rewrite pass *would*
do — delete dead stages, drop redundant exchanges — and, with no pass
behind them, name unread columns and the exchange that dominates the
bytes-moved budget.  ``papar explain`` renders the same analyses as a
report instead of diagnostics, and :mod:`repro.analysis.optimize` is the
other half: it applies each structural advisory as a rewrite
(``PASS_NAMES`` maps code -> pass) where the rewrite is provably
bit-identical, and records a refusal where it is
not — the advisory triggers here are deliberately broader than the
rewrite preconditions there (an advisory is a conversation starter, a
rewrite is a proof obligation).
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.model import LintContext, iter_references
from repro.analysis.rules import checker
from repro.errors import WorkflowError

#: estimated payload above which PAP084 calls an exchange a hotspot
HOTSPOT_BYTES = 256 * 1024 * 1024


def _referenced_ops(ctx: LintContext) -> set[str]:
    """Operator ids some *other* operator references via ``$opid....``."""
    assert ctx.model is not None
    ids = {op.id for op in ctx.model.operators}
    used: set[str] = set()
    for ref in iter_references(ctx.model):
        head = ref.head
        if head in ids and (ref.op is None or ref.op.id != head):
            used.add(head)
    return used


@checker("PAP080")
def check_dead_operators(ctx: LintContext) -> Iterator[Diagnostic]:
    """PAP080: a non-final operator no path edge or ``$ref`` ever consumes."""
    if ctx.model is None or len(ctx.model.operators) < 2:
        return
    ir = ctx.ir()
    if ir is None:
        return
    referenced = _referenced_ops(ctx)
    final = ir.final
    for node in ir.nodes:
        if final is not None and node.op_id == final.op_id:
            continue
        if ir.out_edges(node.op_id):
            continue
        if node.op_id in referenced:
            continue
        yield ctx.diag(
            "PAP080",
            f"operator {node.op_id!r} is dead: no later operator consumes "
            "any of its outputs, so the whole stage (and its exchange) is "
            "wasted work",
            line=node.line,
            suggestion=f"consume ${node.op_id}.outputPath downstream, or "
            "delete the operator",
        )


def _adjacent_exchanges(ir) -> Iterator[tuple]:
    """(producer, consumer) exchange pairs where consumer is the sole,
    immediate reader of the producer's outputs."""
    for node in ir.exchange_nodes():
        nxt = ir.sole_consumer(node.op_id)
        if nxt is not None and nxt.exchange is not None:
            yield node, nxt


def _same_key(a, b) -> bool:
    ka = a.param_value("key", "keyId")
    kb = b.param_value("key", "keyId")
    return ka is not None and ka == kb


def _planned_param(node, name: str):
    """Parameter ``name`` as the planner sees it: resolved, then coerced by
    its declared type (``ValueError`` while a ``$ref`` is still open)."""
    raw = node.param_value(name)
    if raw is None:
        return None
    if not node.params_resolved.get(name, True):
        raise ValueError(f"{name!r} is not statically resolvable")
    return node.op.param(name).coerce(raw)


def _sort_direction(node) -> Optional[bool]:
    """The direction the planner gives this sort (:func:`sort_ascending`
    over the same two parameters), read statically.  ``None`` when a value
    is unresolved or does not coerce; PAP081 then neither advises nor
    rewrites."""
    from repro.core.planner import sort_ascending

    try:
        return sort_ascending(
            _planned_param(node, "flag"), _planned_param(node, "ascending")
        )
    except (WorkflowError, TypeError, ValueError):
        return None


@checker("PAP081")
def check_redundant_exchanges(ctx: LintContext) -> Iterator[Diagnostic]:
    """PAP081: an exchange whose layout the very next exchange discards."""
    if ctx.model is None:
        return
    ir = ctx.ir()
    if ir is None:
        return
    for first, second in _adjacent_exchanges(ir):
        pair = (first.kind, second.kind)
        redundant: Optional[str] = None
        if pair == ("sort", "sort"):
            redundant = (
                "the second sort re-ranges every record; the first sort's "
                "exchange is discarded"
            )
        elif pair == ("sort", "group"):
            redundant = (
                "the group stage re-ranges every record by its own key; the "
                "sort's exchange is discarded"
            )
        elif (
            pair == ("group", "sort")
            and _same_key(first, second)
            and _sort_direction(second) is True
        ):
            redundant = (
                "group output is already range-partitioned and ordered by "
                "that key; the ascending sort re-shuffles it for nothing"
            )
        # NOT flagged: sort -> distribute (the paper's canonical pipeline:
        # the position permutation preserves sorted order); nothing reads a
        # distribute's output (PAP037)
        if redundant:
            yield ctx.diag(
                "PAP081",
                f"exchange of operator {first.op_id!r} ({first.exchange}) is "
                f"redundant: {redundant}",
                line=first.line,
                suggestion=f"drop operator {first.op_id!r}'s shuffle; one "
                "exchange suffices",
            )


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

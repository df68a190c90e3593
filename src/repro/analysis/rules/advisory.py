"""Optimization advisories over the analyzed plan-IR (PAP080-PAP084).

These rules never block a run — they are the static half of the plan
optimizer (ROADMAP item 2), reporting as INFO what a rewrite pass *would*
do: delete dead stages, drop redundant exchanges, collapse composed
stride permutations, prune unread columns, and point at the exchange
that dominates the bytes-moved budget.  ``papar explain`` renders the
same analyses as a report instead of diagnostics, and
:mod:`repro.analysis.optimize` is the other half: it applies each
advisory as a rewrite (``PASS_NAMES`` maps code -> pass) where the
rewrite is provably bit-identical, and records a refusal where it is
not — the advisory triggers here are deliberately broader than the
rewrite preconditions there (an advisory is a conversation starter, a
rewrite is a proof obligation).
"""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.model import LintContext, iter_references
from repro.analysis.rules import checker

#: estimated payload above which PAP084 calls an exchange a hotspot
HOTSPOT_BYTES = 256 * 1024 * 1024

#: entry counts the PAP082 composition is probed at (coprime-ish sizes so
#: an equivalence must hold beyond one lucky divisor structure)
_PROBE_SIZES = (24, 36, 35)


def _referenced_ops(ctx: LintContext) -> set[str]:
    """Operator ids some *other* operator references via ``$opid....``."""
    assert ctx.model is not None
    ids = set(ctx.model.operator_ids())
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


def _sort_ascending(node) -> bool:
    value = node.param_value("ascending", "asc")
    return value is None or value.strip().lower() not in ("false", "0", "no")


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
        elif pair == ("group", "sort") and _same_key(first, second) and _sort_ascending(second):
            redundant = (
                "group output is already range-partitioned and ordered by "
                "that key; the ascending sort re-shuffles it for nothing"
            )
        elif first.kind == "distribute" and second.kind in ("sort", "group"):
            redundant = (
                "the position permutation is immediately destroyed by the "
                f"{second.kind} stage's range exchange"
            )
        # NOT flagged: sort -> distribute (the paper's canonical pipeline:
        # the position permutation preserves sorted order), and
        # distribute -> distribute (PAP082's composition territory).
        if redundant:
            yield ctx.diag(
                "PAP081",
                f"exchange of operator {first.op_id!r} ({first.exchange}) is "
                f"redundant: {redundant}",
                line=first.line,
                suggestion=f"drop operator {first.op_id!r}'s shuffle; one "
                "exchange suffices",
            )


def _policy_and_parts(node) -> tuple[Optional[str], Optional[int]]:
    policy = node.param_value("distrPolicy", "policy")
    nparts = node.param_value("numPartitions", "num_partitions")
    try:
        parts = int(str(nparts).strip()) if nparts is not None else None
    except ValueError:
        parts = None
    if parts is not None and parts < 1:
        parts = None
    return (policy.strip().lower() if policy else None), parts


def _composed_owners(p1, n1: int, p2, n2: int, n: int) -> Optional[np.ndarray]:
    """Partition owners after distribute(p1, n1) then distribute(p2, n2)."""
    try:
        perm1 = p1.permutation(n, n1)
        inv = np.empty(n, dtype=np.int64)
        inv[perm1] = np.arange(n, dtype=np.int64)
        return p2.assign(n, n2)[inv]
    except Exception:
        return None


@checker("PAP082")
def check_collapsible_distributes(ctx: LintContext) -> Iterator[Diagnostic]:
    """PAP082: distribute->distribute composes into one stride permutation."""
    if ctx.model is None:
        return
    ir = ctx.ir()
    if ir is None:
        return
    from repro.policies.distr import get_policy

    for first, second in _adjacent_exchanges(ir):
        if (first.kind, second.kind) != ("distribute", "distribute"):
            continue
        name1, parts1 = _policy_and_parts(first)
        name2, parts2 = _policy_and_parts(second)
        equivalent: Optional[str] = None
        if name1 and name2 and parts1 and parts2:
            try:
                p1, p2 = get_policy(name1), get_policy(name2)
            except Exception:
                p1 = p2 = None  # PAP035 already reports the unknown name
            if p1 is not None and p2 is not None:
                # probe the composition numerically: permutation products
                # are permutations, so one matching candidate at every
                # probe size is the single equivalent shuffle
                for candidate in ("cyclic", "block"):
                    cand = get_policy(candidate)
                    if all(
                        (o := _composed_owners(p1, parts1, p2, parts2, n)) is not None
                        and np.array_equal(o, cand.assign(n, parts2))
                        for n in _PROBE_SIZES
                    ):
                        equivalent = candidate
                        break
        detail = (
            f"equivalent to a single {equivalent!r} distribute with "
            f"numPartitions={parts2}"
            if equivalent
            else "the two position permutations compose into one shuffle "
            "(products of L matrices are permutations)"
        )
        yield ctx.diag(
            "PAP082",
            f"distribute chain {first.op_id!r} -> {second.op_id!r} is "
            f"collapsible: {detail}",
            line=first.line,
            suggestion="replace the chain with one distribute applying the "
            "composed permutation",
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
        suggestion="an optimizer could move row-ids through intermediate "
        "exchanges and re-attach unused columns at materialization",
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
            suggestion="tune this stage first: more ranks, column pruning, "
            "or a combiner below the shuffle",
        )

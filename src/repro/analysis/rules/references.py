"""The ``$variable`` reference graph (PAP010-PAP014, PAP004-PAP006).

A workflow's glue is its references: plain ``$name`` pulls a workflow
argument, dotted ``$opid.param`` / ``$opid.$attr`` pulls an intermediate
value an earlier operator produced.  These rules walk every occurrence and
verify the graph is closed (nothing undefined), acyclic, and respects
execution order (no forward references).  The converse hygiene check,
every declared argument is actually used (PAP013), only warns: it is in
:mod:`repro.analysis.rules.advisory`.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.model import LintContext, Reference, iter_references
from repro.analysis.rules import checker
from repro.ops.base import registered_names

#: attributes every planned operator exposes to later references
_IMPLICIT_OUTPUTS = ("outputPath", "outputPathList")


def _closest(name: str, candidates: list[str]) -> Optional[str]:
    """A cheap did-you-mean: candidate within edit-prefix distance."""
    import difflib

    matches = difflib.get_close_matches(name, candidates, n=1, cutoff=0.6)
    return matches[0] if matches else None


@checker("PAP004", "PAP005", "PAP006")
def check_operator_types(ctx: LintContext) -> Iterator[Diagnostic]:
    """PAP004 unknown operator type, PAP005/PAP006 add-on validity."""
    if ctx.model is None:
        return
    from repro.analysis.model import KNOWN_OPERATORS

    for op in ctx.model.operators:
        if op.kind and op.kind not in KNOWN_OPERATORS:
            yield ctx.diag(
                "PAP004",
                f"operator {op.id!r} uses unknown operator type {op.operator!r}",
                line=op.line,
                suggestion=f"use one of: {', '.join(KNOWN_OPERATORS)}",
            )
        for addon in op.addons:
            name = addon.operator.strip().lower()
            known_addons = registered_names()["addon"]  # loads the built-in add-ons
            if name and name not in known_addons:
                hint = _closest(name, known_addons)
                yield ctx.diag(
                    "PAP005",
                    f"operator {op.id!r} attaches unknown add-on {addon.operator!r}",
                    line=addon.line,
                    suggestion=f"did you mean {hint!r}?" if hint else
                    f"registered add-ons: {', '.join(known_addons)}",
                )
        # only the group planner consumes <addon> declarations
        if op.addons and op.kind != "group":
            for addon in op.addons:
                yield ctx.diag(
                    "PAP006",
                    f"add-on {addon.operator!r} on {op.kind or 'unknown'} operator "
                    f"{op.id!r} is silently ignored at plan time",
                    line=addon.line,
                    suggestion="attach add-ons to a group operator",
                )


@checker("PAP010", "PAP011", "PAP012", "PAP014")
def check_references(ctx: LintContext) -> Iterator[Diagnostic]:
    """PAP010 undefined, PAP011 forward, PAP012 cycles, PAP014 bad attrs."""
    if ctx.model is None:
        return
    model = ctx.model
    arg_names = list(model.arguments)
    op_ids = [op.id for op in model.operators]
    op_index = {op_id: i for i, op_id in enumerate(op_ids)}

    # operator -> set of operators it references (for cycle detection)
    ref_edges: dict[str, set[str]] = {op_id: set() for op_id in op_ids}
    deferred: list[tuple[Reference, str]] = []  # forward refs, maybe cycles

    for ref in iter_references(model):
        head = ref.head
        dotted = len(ref.parts) > 1
        here = op_index.get(ref.op.id) if ref.op is not None else None

        if not dotted:
            if head in arg_names:
                continue
            if head in op_index:
                # "$sort" alone names an operator, not a value
                yield ctx.diag(
                    "PAP010",
                    f"reference ${head} names operator {head!r} but no attribute; "
                    f"operators are referenced as ${head}.outputPath",
                    line=ref.line,
                    suggestion=f"write ${head}.outputPath (or another attribute)",
                )
                continue
            hint = _closest(head, arg_names + op_ids)
            yield ctx.diag(
                "PAP010",
                f"undefined reference ${head} in "
                + (f"operator {ref.op.id!r} " if ref.op else "")
                + f"parameter {ref.slot!r}; known arguments: {sorted(arg_names)}",
                line=ref.line,
                suggestion=f"did you mean ${hint}?" if hint else
                "declare it under <arguments> or reference an earlier operator",
            )
            continue

        # dotted: $opid.attr
        if head not in op_index:
            hint = _closest(head, op_ids)
            yield ctx.diag(
                "PAP010",
                f"reference ${ref.ref} names unknown operator {head!r}",
                line=ref.line,
                suggestion=f"did you mean ${hint}.{'.'.join(ref.parts[1:])}?"
                if hint else f"declared operators: {sorted(op_ids)}",
            )
            continue
        if ref.op is not None:
            ref_edges[ref.op.id].add(head)
        if here is not None and op_index[head] >= here:
            # self- and forward references: defer — if part of a cycle we
            # report PAP012 once per cycle instead of noisy PAP011s
            deferred.append((ref, head))
            continue
        yield from _check_attribute(ctx, ref, head)

    # cycle detection over the operator reference graph
    cycles = _find_cycles(ref_edges)
    cyclic_ops = {op_id for cycle in cycles for op_id in cycle}
    for cycle in cycles:
        members = " -> ".join(cycle + [cycle[0]])
        first = min(cycle, key=lambda o: op_index[o])
        op = model.operators[op_index[first]]
        yield ctx.diag(
            "PAP012",
            f"operators reference each other in a cycle: {members}",
            line=op.line,
            suggestion="operators run in declaration order; break the cycle",
        )
    for ref, head in deferred:
        if ref.op is not None and ref.op.id in cyclic_ops and head in cyclic_ops:
            continue  # already covered by the cycle diagnostic
        if ref.op is not None and head == ref.op.id:
            yield ctx.diag(
                "PAP012",
                f"operator {ref.op.id!r} references its own output ${ref.ref}",
                line=ref.line,
                suggestion="an operator cannot consume a value it produces",
            )
        else:
            yield ctx.diag(
                "PAP011",
                f"operator {ref.op.id!r} references ${ref.ref}, but operator "
                f"{head!r} runs later (operators execute in declaration order)",
                line=ref.line,
                suggestion=f"move {head!r} before {ref.op.id!r}, or reference "
                "an earlier operator",
            )


def _check_attribute(
    ctx: LintContext, ref: Reference, producer_id: str
) -> Iterator[Diagnostic]:
    """PAP014: the referenced attribute must exist on the producer."""
    assert ctx.model is not None
    idx = ctx.model.operator_index(producer_id)
    if idx is None:
        return
    producer = ctx.model.operators[idx]
    attr = ref.parts[1] if len(ref.parts) > 1 else ""
    exposed = set(_IMPLICIT_OUTPUTS)
    for addon in producer.addons:
        exposed.add(addon.attr or addon.operator)
    if attr not in exposed:
        hint = _closest(attr, sorted(exposed))
        yield ctx.diag(
            "PAP014",
            f"reference ${ref.ref}: operator {producer_id!r} produces no "
            f"attribute {attr!r} (it exposes {sorted(exposed)})",
            line=ref.line,
            suggestion=f"did you mean ${producer_id}.{hint}?" if hint else None,
        )


def _find_cycles(edges: dict[str, set[str]]) -> list[list[str]]:
    """Strongly connected components with more than one node (or a self-loop
    that references *forward* is handled separately); Tarjan, iterative."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    counter = [0]
    cycles: list[list[str]] = []

    def strongconnect(v: str) -> None:
        work = [(v, iter(sorted(edges.get(v, ()))))]
        index[v] = low[v] = counter[0]
        counter[0] += 1
        stack.append(v)
        on_stack.add(v)
        while work:
            node, it = work[-1]
            advanced = False
            for w in it:
                if w not in edges:
                    continue
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(sorted(edges.get(w, ())))))
                    advanced = True
                    break
                if w in on_stack:
                    low[node] = min(low[node], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                scc = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    scc.append(w)
                    if w == node:
                        break
                if len(scc) > 1:
                    cycles.append(sorted(scc))

    for v in sorted(edges):
        if v not in index:
            strongconnect(v)
    return cycles

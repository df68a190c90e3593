"""The plan optimizer: PAP08x advisories applied as rewrites.

PR 8 built the diagnosis side — the plan-IR, the fixed-point dataflow
analyses, the exchange cost model, and the PAP080–084 advisories that
*describe* wasted work.  This module is the other half of ROADMAP item 2:
a rewrite engine over the same IR that turns each structural advisory
(PAP080–081) into an applied transformation, accepting a rewrite only
when the re-analyzed plan is still clean and its estimated exchange
payload did not grow.  PAP083 (unread columns) and PAP084 (hotspots)
stay advisories: no pass applies them, and an optimized run is the plain
run of the rewritten workflow.

Passes (see ``docs/optimizer.md`` for the safety arguments):

``PAP080`` dead-operator-elimination
    Delete a non-final operator no edge or ``$ref`` ever consumes.

``PAP081`` redundant-exchange-elimination
    Drop an exchange whose layout the very next exchange discards —
    but only when the surviving exchange provably reproduces the exact
    byte order (stable-sort tie order is the subtle part; several
    advisory-flagged shapes are *refused* here, with reasons).

No job reads a Distribute's output (the wiring error PAP037), so no pass
ever sees a distribute feeding another exchange.

Every pass that declines to fire records a :class:`RefusedRewrite` with
the reason, so ``papar optimize`` teaches as much when it does nothing
as when it rewrites.  Output reuses the ``papar explain`` renderer as an
original → optimized diff (text, or versioned JSON: schema
``papar.optimize`` v2).
"""

from __future__ import annotations

import copy
import json
import re
from dataclasses import dataclass, field, replace
from typing import Any, Iterable, Optional

from repro.analysis.engine import Linter
from repro.analysis.explain import ExplainReport, _fmt_bytes, build_report
from repro.analysis.rules.advisory import (
    _adjacent_exchanges,
    _referenced_ops,
    _same_key,
    _sort_direction,
)
from repro.config.workflow import INPUT_PARAMS, WorkflowSpec

#: JSON contract version of the optimize report
OPTIMIZE_SCHEMA_VERSION = 2

#: advisory code -> the optimizer pass that applies it
PASS_NAMES = {
    "PAP080": "dead-operator-elimination",
    "PAP081": "redundant-exchange-elimination",
}


# ---------------------------------------------------------------------------
# result records


@dataclass
class AppliedRewrite:
    """One accepted transformation."""

    code: str
    pass_name: str
    #: the exchange pair (or single operator) the rewrite acted on
    site: str
    #: operator ids deleted from the workflow
    removed: list[str]
    #: operator ids that absorb the removed work
    kept: list[str]
    detail: str
    #: cost-model estimate of the exchange bytes this rewrite saves
    est_bytes_saved: Optional[int] = None

    def to_dict(self) -> dict:
        """JSON form for the versioned optimize report."""
        return {
            "code": self.code,
            "pass": self.pass_name,
            "site": self.site,
            "removed": list(self.removed),
            "kept": list(self.kept),
            "detail": self.detail,
            "est_bytes_saved": self.est_bytes_saved,
        }


@dataclass
class RefusedRewrite:
    """One advisory site the optimizer declined to rewrite, and why."""

    code: str
    pass_name: str
    site: str
    reason: str

    def to_dict(self) -> dict:
        """JSON form for the versioned optimize report."""
        return {
            "code": self.code,
            "pass": self.pass_name,
            "site": self.site,
            "reason": self.reason,
        }


@dataclass
class OptimizedPlan:
    """The rewritten workflow plus the audit trail that produced it."""

    #: the rewritten workflow (None when the XML did not parse into one)
    workflow: Optional[WorkflowSpec]
    rewrites: list[AppliedRewrite] = field(default_factory=list)
    refusals: list[RefusedRewrite] = field(default_factory=list)
    est_bytes_before: Optional[int] = None
    est_bytes_after: Optional[int] = None
    exchanges_removed: int = 0

    @property
    def changed(self) -> bool:
        """True when at least one rewrite fired."""
        return bool(self.rewrites)

    def summary(self) -> dict:
        """The ``optimizer`` section attached to results and ``--stats``."""
        passes: list[str] = []
        for r in self.rewrites:
            if r.pass_name not in passes:
                passes.append(r.pass_name)
        est_saved = None
        if self.est_bytes_before is not None and self.est_bytes_after is not None:
            est_saved = self.est_bytes_before - self.est_bytes_after
        return {
            "changed": self.changed,
            "passes_fired": passes,
            "rewrites": [r.to_dict() for r in self.rewrites],
            "refusals": [r.to_dict() for r in self.refusals],
            "operators_removed": sum(len(r.removed) for r in self.rewrites),
            "exchanges_removed": self.exchanges_removed,
            "est_bytes_before": self.est_bytes_before,
            "est_bytes_after": self.est_bytes_after,
            "est_bytes_saved": est_saved,
        }


@dataclass
class OptimizeReport:
    """The original → optimized diff, rendered via the explain reports."""

    before: ExplainReport
    after: ExplainReport
    plan: OptimizedPlan

    def to_dict(self) -> dict:
        """The versioned JSON form (schema ``papar.optimize`` v2)."""
        return {
            "version": OPTIMIZE_SCHEMA_VERSION,
            "tool": "papar-optimize",
            "workflow": self.before.workflow,
            "file": self.before.file,
            "summary": self.plan.summary(),
            "before": self.before.to_dict(),
            "after": self.after.to_dict(),
        }

    def render_json(self) -> str:
        """:meth:`to_dict` as indented JSON text."""
        return json.dumps(self.to_dict(), indent=2)

    def render_text(self) -> str:
        """The terminal diff: summary, rewrites, refusals, both plans."""
        plan = self.plan
        lines = [
            f"optimize workflow {self.before.workflow!r}"
            + (f" ({self.before.file})" if self.before.file else "")
        ]
        summary = plan.summary()
        lines.append(
            f"  {len(plan.rewrites)} rewrite(s) applied, "
            f"{plan.exchanges_removed} exchange(s) removed"
        )
        for r in plan.rewrites:
            saved = (
                f" (est -{_fmt_bytes(r.est_bytes_saved)})"
                if r.est_bytes_saved
                else ""
            )
            lines.append(
                f"    {r.code} {r.pass_name} at {r.site}: "
                f"removed {', '.join(repr(x) for x in r.removed)} — {r.detail}{saved}"
            )
        if plan.refusals:
            lines.append("  refused:")
            for r in plan.refusals:
                lines.append(f"    {r.code} {r.pass_name} at {r.site}: {r.reason}")
        if summary["est_bytes_before"] is not None:
            lines.append(
                "  estimated exchange payload: "
                f"{_fmt_bytes(summary['est_bytes_before'])} -> "
                f"{_fmt_bytes(summary['est_bytes_after'])}"
            )
        if not plan.changed:
            lines.append("  plan already minimal: no rewrite fired")
        lines.append("== original plan ==")
        lines.append(self.before.render_text())
        lines.append("== optimized plan ==")
        lines.append(self.after.render_text())
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# spec surgery helpers


def _ref_pattern(op_id: str) -> re.Pattern:
    """Matches ``$op_id`` as a whole reference head (not ``$op_id2``)."""
    return re.compile(rf"\${re.escape(op_id)}(?![A-Za-z0-9_])")


def _iter_text_slots(spec: WorkflowSpec):
    """Every textual value a ``$ref`` could hide in: (owner, slot, text)."""
    for name, ps in spec.arguments.items():
        yield "<arguments>", name, ps.value
    for op in spec.operators:
        for pname, ps in op.params.items():
            yield op.id, pname, ps.value
        for aname, avalue in op.attrs.items():
            yield op.id, aname, avalue
        for addon in op.addons:
            yield op.id, "addon.key", addon.key
            yield op.id, "addon.value", addon.value


def _foreign_refs(
    spec: WorkflowSpec, op_id: str, allowed: set[tuple[str, str]]
) -> list[str]:
    """Slots outside ``allowed`` (and outside ``op_id`` itself) that
    reference ``$op_id``."""
    pat = _ref_pattern(op_id)
    hits = []
    for owner, slot, text in _iter_text_slots(spec):
        if owner == op_id or (owner, slot) in allowed:
            continue
        if text and pat.search(text):
            hits.append(f"{owner}.{slot}")
    return hits


def _input_param_name(op) -> Optional[str]:
    for name in INPUT_PARAMS:
        if name in op.params:
            return name
    return None


def _drop_first(
    spec: WorkflowSpec, ir, first, second, refuse, code: str
) -> Optional[WorkflowSpec]:
    """Delete ``first`` and re-point ``second`` at first's input.

    Handles both explicit (``$first.outputPath``) and implicit
    (document-order chaining) wiring; refuses when any *other* slot still
    references the deleted operator or when ``second`` reads more inputs
    than just ``first``.
    """
    site = f"{first.op_id} -> {second.op_id}"
    if len(ir.in_edges(second.op_id)) != 1:
        refuse(code, site, f"{second.op_id!r} consumes inputs besides "
                           f"{first.op_id!r}'s output; cannot re-point it")
        return None
    allowed = {(second.op_id, name) for name in INPUT_PARAMS}
    hits = _foreign_refs(spec, first.op_id, allowed)
    if hits:
        refuse(code, site, f"other slots still reference ${first.op_id} "
                           f"({', '.join(hits)})")
        return None
    new = copy.deepcopy(spec)
    f_op = new.operator(first.op_id)
    s_op = new.operator(second.op_id)
    f_input = _input_param_name(f_op)
    for name in INPUT_PARAMS:
        s_op.params.pop(name, None)
    if f_input is not None:
        s_op.params[f_input] = f_op.params[f_input]
    else:
        # first chained implicitly; second now chains to the same producer
        # (or reads the workflow input if first was the head operator)
        if new.operator_index(first.op_id) != new.operator_index(second.op_id) - 1:
            refuse(code, site, f"{first.op_id!r} has no input parameter and "
                               f"{second.op_id!r} does not directly follow it; "
                               "implicit chaining cannot be preserved")
            return None
    new.operators = [op for op in new.operators if op.id != first.op_id]
    return new


def _drop_second(
    spec: WorkflowSpec, ir, first, second, refuse, code: str
) -> Optional[WorkflowSpec]:
    """Delete ``second`` and re-point its consumers at ``first``'s output."""
    site = f"{first.op_id} -> {second.op_id}"
    new = copy.deepcopy(spec)
    pat = _ref_pattern(second.op_id)
    out_path_ref = re.compile(
        rf"\${re.escape(second.op_id)}\.outputPath(?![A-Za-z0-9_])"
    )
    replacement = f"${first.op_id}.outputPath"
    second_idx = new.operator_index(second.op_id)
    for e in ir.out_edges(second.op_id):
        consumer = new.operator(e.dst)
        consumer_node = ir.node(e.dst)
        pname = _input_param_name(consumer)
        if pname is None:
            # implicit chaining: after the removal the consumer must chain
            # straight to first, i.e. first must directly precede second
            if (
                second_idx != new.operator_index(e.dst) - 1
                or new.operator_index(first.op_id) != second_idx - 1
            ):
                refuse(code, site, f"{e.dst!r} chains implicitly and would "
                                   "re-chain to the wrong producer")
                return None
            continue
        value = consumer.params[pname].value or ""
        if consumer_node is not None and consumer_node.input != e.path:
            refuse(code, site, f"{e.dst!r} consumes a directory prefix of "
                               f"{second.op_id!r}'s output; cannot re-point it "
                               "textually")
            return None
        if pat.search(value):
            new_value, _ = out_path_ref.subn(replacement, value)
            if pat.search(new_value):
                refuse(code, site, f"{e.dst!r} references ${second.op_id} "
                                   "beyond outputPath")
                return None
        else:
            new_value = replacement
        consumer.params[pname] = replace(consumer.params[pname], value=new_value)
    new.operators = [op for op in new.operators if op.id != second.op_id]
    hits = _foreign_refs(new, second.op_id, set())
    if hits:
        refuse(code, site, f"other slots still reference ${second.op_id} "
                           f"({', '.join(hits)})")
        return None
    return new


# ---------------------------------------------------------------------------
# passes: each returns (new_spec, AppliedRewrite) for the first applicable
# site, or None when nothing (more) fires


def _exchange_estimate(ctx, op_id: str) -> Optional[int]:
    analyzed = ctx.analyzed()
    if analyzed is None:
        return None
    est = analyzed.cost.exchange(op_id)
    return est.est_bytes if est is not None else None


def _pass_dead(spec: WorkflowSpec, ctx, refuse, blocked):
    """PAP080: delete a non-final operator nothing ever consumes."""
    analyzed = ctx.analyzed()
    if analyzed is None or len(analyzed.ir.nodes) < 2:
        return None
    ir = analyzed.ir
    referenced = _referenced_ops(ctx)
    final = ir.final
    for node in ir.nodes:
        if final is not None and node.op_id == final.op_id:
            continue
        if ir.out_edges(node.op_id) or node.op_id in referenced:
            continue
        if ("PAP080", node.op_id) in blocked:
            continue
        new = copy.deepcopy(spec)
        new.operators = [op for op in new.operators if op.id != node.op_id]
        rewrite = AppliedRewrite(
            code="PAP080",
            pass_name=PASS_NAMES["PAP080"],
            site=node.op_id,
            removed=[node.op_id],
            kept=[],
            detail=f"operator {node.op_id!r} produces outputs no later stage "
                   "consumes; the whole stage is dead work",
            est_bytes_saved=_exchange_estimate(ctx, node.op_id),
        )
        return new, rewrite
    return None


def _pass_redundant(spec: WorkflowSpec, ctx, refuse, blocked):
    """PAP081: drop an exchange the very next exchange provably recreates.

    Safety hinges on the runtimes' *stable* sorts and canonical group
    order: within equal keys, both ascending and descending stable sorts
    preserve input order, and group output is always (ascending key
    groups, input order within each group) regardless of backend.
    """
    analyzed = ctx.analyzed()
    if analyzed is None:
        return None
    ir = analyzed.ir
    name = PASS_NAMES["PAP081"]
    for first, second in _adjacent_exchanges(ir):
        pair = (first.kind, second.kind)
        site = f"{first.op_id} -> {second.op_id}"
        if ("PAP081", site) in blocked:
            continue
        if pair == ("sort", "sort"):
            if not _same_key(first, second):
                refuse("PAP081", site, "the sorts key on different columns; "
                       "the first sort decides tie order under the stable "
                       "second sort, so dropping it changes the bytes")
                continue
            d1, d2 = _sort_direction(first), _sort_direction(second)
            if d1 is None or d2 is None:
                refuse("PAP081", site, "a sort direction is not statically "
                                       "resolvable")
                continue
            if d1 != d2:
                refuse("PAP081", site, "the sorts disagree on direction; "
                       "equal keys would keep the first sort's order")
                continue
            detail = ("the second sort re-ranges every record by the same key "
                      "and direction; one exchange suffices")
            new = _drop_first(spec, ir, first, second, refuse, "PAP081")
            if new is None:
                continue
            removed, kept = first, second
        elif pair == ("sort", "group"):
            if not _same_key(first, second):
                refuse("PAP081", site, "sort and group key on different "
                       "columns; the sort changes which rows are adjacent "
                       "inside each group")
                continue
            detail = ("group re-ranges by the same key and keeps within-group "
                      "input order, which the stable sort already preserved; "
                      "the sort's exchange is redundant")
            new = _drop_first(spec, ir, first, second, refuse, "PAP081")
            if new is None:
                continue
            removed, kept = first, second
        elif pair == ("group", "sort"):
            if not _same_key(first, second):
                refuse("PAP081", site, "group and sort key on different "
                                       "columns; the sort is doing real work")
                continue
            if _sort_direction(second) is not True:
                refuse("PAP081", site, "group output is ascending by key; "
                       "only an ascending same-key sort is the identity on it")
                continue
            out_param = first.op.param("outputPath")
            if out_param is not None and out_param.format and (
                "pack" in out_param.format.lower()
            ):
                refuse("PAP081", site, "the group emits packed records; the "
                       "sort consumes the flattened form, which is not a "
                       "textual rewiring")
                continue
            detail = ("group output is already range-partitioned and "
                      "ascending by that key; the stable ascending sort is "
                      "the identity on it")
            new = _drop_second(spec, ir, first, second, refuse, "PAP081")
            if new is None:
                continue
            removed, kept = second, first
        else:
            continue
        rewrite = AppliedRewrite(
            code="PAP081",
            pass_name=name,
            site=site,
            removed=[removed.op_id],
            kept=[kept.op_id],
            detail=detail,
            est_bytes_saved=_exchange_estimate(ctx, removed.op_id),
        )
        return new, rewrite
    return None


# ---------------------------------------------------------------------------
# the engine


def _total_known_bytes(ctx) -> Optional[int]:
    return ctx.analyzed().cost.total_bytes


def _exchange_count(ctx) -> int:
    return len(ctx.analyzed().cost.exchanges)


def optimize(
    linter: Linter,
    workflow: str | WorkflowSpec,
    filename: Optional[str] = None,
    inputs: Iterable[tuple[str, Optional[str]]] = (),
    args: Optional[dict[str, Any]] = None,
) -> OptimizeReport:
    """Run every pass to a fixed point; report the original → optimized diff.

    The engine is analyze → rewrite → re-analyze.  The workflow (XML text
    or a spec) is analyzed once: that analysis is the report's "before"
    and the first pass's input.  After each structural rewrite the
    rewritten spec is pushed through the full lint engine again (with the
    source lines it kept), and the rewrite is kept only if the new plan
    has no lint errors, one fewer operator, no more exchanges, and no
    larger a total payload estimate.  A workflow with lint errors is not
    rewritten: its report carries them, "after" equal to "before".
    """
    inputs = list(inputs)

    def analyze(s: str | WorkflowSpec):
        return linter.analyze(s, filename=filename, inputs=inputs, args=args)

    ctx, result = analyze(workflow)
    before = build_report(ctx, result)
    current = ctx.model
    plan = OptimizedPlan(workflow=current)
    if result.errors:
        return OptimizeReport(before=before, after=before, plan=plan)
    seen_refusals: set[tuple[str, str, str]] = set()

    def refuse(code: str, site: str, reason: str) -> None:
        key = (code, site, reason)
        if key in seen_refusals:
            return
        seen_refusals.add(key)
        plan.refusals.append(
            RefusedRewrite(code=code, pass_name=PASS_NAMES[code], site=site,
                           reason=reason)
        )

    plan.est_bytes_before = _total_known_bytes(ctx)
    exchanges_before = _exchange_count(ctx)

    blocked: set[tuple[str, str]] = set()
    max_rounds = 2 * len(current.operators) + 4
    for _ in range(max_rounds):
        progressed = False
        for pass_fn in (_pass_dead, _pass_redundant):
            out = pass_fn(current, ctx, refuse, blocked)
            if out is None:
                continue
            new_spec, rewrite = out
            new_ctx, new_result = analyze(new_spec)
            old_total = _total_known_bytes(ctx)
            new_total = _total_known_bytes(new_ctx)
            ok = (
                not new_result.errors
                and len(new_spec.operators) == len(current.operators) - 1
                and _exchange_count(new_ctx) <= _exchange_count(ctx)
                and not (
                    old_total is not None
                    and new_total is not None
                    and new_total > old_total
                )
            )
            if not ok:
                blocked.add((rewrite.code, rewrite.site))
                refuse(rewrite.code, rewrite.site,
                       "rewrite rejected on re-analysis: the rewritten plan "
                       "lints with errors or does not shrink")
                progressed = True
                break
            current, ctx, result = new_spec, new_ctx, new_result
            plan.rewrites.append(rewrite)
            progressed = True
            break
        if not progressed:
            break

    plan.workflow = current
    plan.est_bytes_after = _total_known_bytes(ctx)
    plan.exchanges_removed = exchanges_before - _exchange_count(ctx)
    return OptimizeReport(before=before, after=build_report(ctx, result), plan=plan)

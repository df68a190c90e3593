"""Record-schema type flow through the operator chain (PAP020-PAP025).

The input-data configuration declares the fields of one record; operators
key on those fields, and group add-ons append new ones (``indegree`` in the
hybrid-cut workflow).  These rules walk the chain with a field->type map,
so a key typo, a threshold of the wrong type, or an aggregate over a
missing value field is caught before anything runs.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.model import LintContext, SymbolicEnv
from repro.analysis.rules import checker
from repro.config.workflow import (
    BOOLEAN_FALSE_LITERALS,
    BOOLEAN_TRUE_LITERALS,
    _REF_RE,
    OperatorSpec,
)
from repro.ops.base import addon_signature, registered_names

_NUMERIC_TYPES = {"integer", "long", "float", "double"}
_FLOAT_TYPES = {"float", "double"}

def _resolve_key(
    op: OperatorSpec, env: SymbolicEnv, ctx: LintContext
) -> tuple[Optional[str], Optional[int]]:
    """The operator's key as a plain field/attribute name, if resolvable."""
    key_param = op.param("key", "keyId")
    if key_param is None or key_param.value is None:
        return None, None
    resolved, complete = env.resolve(key_param.value)
    if not complete or resolved is None or _REF_RE.search(resolved):
        return None, key_param.line
    return resolved.strip(), key_param.line


@checker("PAP020", "PAP021", "PAP024")
def check_schema_flow(ctx: LintContext) -> Iterator[Diagnostic]:
    """PAP020/021/024: key membership and type flow through the chain."""
    if ctx.model is None:
        return
    schema, _arg = ctx.input_schema()
    if schema is None:
        return
    ir = ctx.ir()
    if ir is None:
        return
    env = ir.env
    available: dict[str, str] = {f.name: f.type for f in schema.fields}

    for op in ctx.model.operators:
        key, key_line = _resolve_key(op, env, ctx)
        keyed = op.kind in ("sort", "group", "split")
        if keyed and key is not None and key not in available:
            import difflib

            hint = difflib.get_close_matches(key, sorted(available), n=1, cutoff=0.6)
            yield ctx.diag(
                "PAP020",
                f"operator {op.id!r} keys on {key!r}, which is not a field "
                f"available at this stage; known fields: {sorted(available)}",
                line=key_line or op.line,
                suggestion=f"did you mean {hint[0]!r}?" if hint else
                "declare the field in the input <element> or add it with an add-on",
            )
        if (
            op.kind == "group"
            and key is not None
            and available.get(key) in _FLOAT_TYPES
        ):
            yield ctx.diag(
                "PAP021",
                f"operator {op.id!r} groups on {key!r} of type "
                f"{available[key]}; floating-point equality makes group "
                "boundaries fragile",
                line=key_line or op.line,
                suggestion="group on an integer field, or bucket the values first",
            )
        # add-ons: value-field existence, then extend the availability map
        if op.kind == "group":
            for addon in op.addons:
                name = addon.operator.strip().lower()
                if name not in registered_names()["addon"]:
                    continue  # PAP005 already reported
                value_field, _ = env.resolve(addon.value)
                attr_type, needs_field = addon_signature(name)
                if needs_field:
                    if value_field is None:
                        yield ctx.diag(
                            "PAP024",
                            f"add-on {addon.operator!r} on operator {op.id!r} "
                            "aggregates a value field but declares none",
                            line=addon.line,
                            suggestion='add value="<field>" to the <addon>',
                        )
                    elif value_field not in available:
                        yield ctx.diag(
                            "PAP024",
                            f"add-on {addon.operator!r} on operator {op.id!r} "
                            f"aggregates field {value_field!r}, which is not in "
                            f"the schema; known fields: {sorted(available)}",
                            line=addon.line,
                        )
                attr = addon.attr or addon.operator
                available[attr] = attr_type


@checker("PAP022", "PAP023")
def check_split_thresholds(ctx: LintContext) -> Iterator[Diagnostic]:
    """PAP022/023: split thresholds comparable and covering."""
    if ctx.model is None:
        return
    from repro.policies.split_policy import SplitPolicy

    schema, _arg = ctx.input_schema()
    ir = ctx.ir()
    if ir is None:
        return
    env = ir.env

    # rebuild the availability map (cheap; mirrors check_schema_flow)
    available: dict[str, str] = (
        {f.name: f.type for f in schema.fields} if schema is not None else {}
    )
    for op in ctx.model.operators:
        if op.kind == "group":
            for addon in op.addons:
                attr = addon.attr or addon.operator
                if attr:
                    available[attr] = addon_signature(addon.operator)[0]
        if op.kind != "split":
            continue
        policy_param = op.param("policy", "splitPolicy")
        if policy_param is None or policy_param.value is None:
            continue  # missing policy is the planner's PAP040 territory
        resolved, complete = env.resolve(policy_param.value)
        if not complete:
            continue  # unresolvable without user args; checked at plan time
        try:
            policy = SplitPolicy.parse(resolved or "")
        except Exception:
            # PAP034 (split-policy-syntax) is emitted by the paths rules
            continue

        key, key_line = _resolve_key(op, env, ctx)
        key_type = available.get(key) if key is not None else None
        if key_type == "string":
            yield ctx.diag(
                "PAP022",
                f"operator {op.id!r} splits string-typed key {key!r} against "
                "numeric thresholds; the comparison can never be satisfied "
                "meaningfully",
                line=key_line or op.line,
                suggestion="split on a numeric field (or an add-on attribute "
                "such as a count)",
            )
        if (
            key_type in ("integer", "long")
            and any(c.operand != int(c.operand) for c in policy.conditions)
        ):
            yield ctx.diag(
                "PAP022",
                f"operator {op.id!r} compares integer key {key!r} with "
                "non-integer threshold(s) "
                f"{[c.operand for c in policy.conditions if c.operand != int(c.operand)]}",
                line=policy_param.line or op.line,
                suggestion="use integer thresholds for integer keys",
            )

        yield from _check_coverage(ctx, op, policy, policy_param.line)


def _check_coverage(ctx, op, policy, line) -> Iterator[Diagnostic]:
    """PAP023: every key value should match some condition (first match
    wins); probe the threshold boundaries instead of solving inequalities."""
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

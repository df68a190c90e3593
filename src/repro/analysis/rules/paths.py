"""Path wiring between jobs (PAP030-PAP036, PAP034/035 policy syntax).

Operators communicate through paths: a job's ``inputPath`` either names an
earlier job's output (directly or as a directory prefix) or the workflow
input.  The plan-IR records that wiring as explicit edges; these rules
read the edges and flag outputs nobody reads, paths written twice,
directory reads with zero producers, inputs that cannot be wired, and
malformed policy strings.
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.model import LintContext
from repro.analysis.rules import checker
from repro.config.workflow import _REF_RE


#: the largest ``integer`` (4 bytes, ``formats/records.py``), the type
#: ``numPartitions`` and ``num_reducers`` are declared with: a count past it
#: would size arrays no run can allocate
INTEGER_MAX = 2**31 - 1


def _is_symbolic(text: str) -> bool:
    return bool(_REF_RE.search(text))


@checker("PAP030", "PAP031", "PAP032", "PAP037")
def check_path_wiring(ctx: LintContext) -> Iterator[Diagnostic]:
    """PAP030 dead outputs, PAP031 collisions, PAP032 orphan dir inputs,
    PAP037 inputs that cannot be wired."""
    if ctx.model is None or not ctx.model.operators:
        return
    ir = ctx.ir()
    if ir is None:
        return

    # -- collisions: two jobs writing the same (resolved) path ------------
    writers: dict[str, list[int]] = {}
    for node in ir.nodes:
        for path in node.outputs:
            if path:
                writers.setdefault(path, []).append(node.index)
    for path, idxs in writers.items():
        if _is_symbolic(path):
            continue
        if len(idxs) > 1:
            first = ir.nodes[idxs[0]]
            for i in idxs[1:]:
                node = ir.nodes[i]
                yield ctx.diag(
                    "PAP031",
                    f"operator {node.op_id!r} writes {path!r}, which operator "
                    f"{first.op_id!r} also writes; the second run clobbers the first",
                    line=node.output_line or node.line,
                    suggestion="give every operator a distinct output path",
                )

    # -- orphan directory inputs -------------------------------------------
    for node in ir.nodes:
        if node.index == 0 or node.input is None:
            continue
        path = node.input
        feeds = ir.in_edges(node.op_id)
        unmatched = all(e.src is None for e in feeds)
        if unmatched and path.endswith("/") and not _is_symbolic(path):
            yield ctx.diag(
                "PAP032",
                f"operator {node.op_id!r} reads directory {path!r}, but no "
                "earlier operator writes anything under it",
                line=node.input_line or node.line,
                suggestion="point inputPath at an earlier operator's output "
                "(e.g. $previous.outputPath)",
            )

    # -- inputs the wiring rejects ------------------------------------------
    for node in ir.nodes:
        if node.wiring_error is not None:
            yield ctx.diag(
                "PAP037",
                node.wiring_error,
                line=node.input_line or node.line,
                suggestion="point inputPath at one earlier operator's output "
                "that is not a Distribute's",
            )

    # -- dead outputs ------------------------------------------------------
    final = ir.final
    for node in ir.nodes:
        if final is not None and node.op_id == final.op_id:
            continue  # the final job's output is the workflow product
        consumed = ir.consumed_outputs(node.op_id)
        for k, out in enumerate(node.outputs):
            if out and k not in consumed:
                yield ctx.diag(
                    "PAP030",
                    f"output {out!r} of operator {node.op_id!r} is never "
                    "consumed by a later operator",
                    line=node.output_line or node.line,
                    suggestion="wire a later operator's inputPath to "
                    f"${node.op_id}.outputPath, or drop the operator",
                )


@checker("PAP033", "PAP034")
def check_split_shape(ctx: LintContext) -> Iterator[Diagnostic]:
    """PAP033 arity and PAP034 policy syntax for split operators."""
    if ctx.model is None:
        return
    ir = ctx.ir()
    if ir is None:
        return
    env = ir.env
    for node in ir.nodes:
        op = node.op
        if node.kind != "split":
            continue
        policy_param = op.param("policy", "splitPolicy")
        paths_param = op.param("outputPathList")
        policy = None
        if policy_param is not None and policy_param.value is not None:
            resolved, complete = env.resolve(policy_param.value)
            probe = resolved if complete else _REF_RE.sub("0", policy_param.value)
            from repro.policies.split_policy import SplitPolicy  # split workflows only

            try:
                policy = SplitPolicy.parse(probe or "")
            except Exception as exc:
                yield ctx.diag(
                    "PAP034",
                    f"operator {op.id!r}: split policy "
                    f"{policy_param.value!r} does not parse: {exc}",
                    line=policy_param.line or op.line,
                    suggestion="use the grammar {op, operand},{op, operand},... "
                    "with op in >=, <=, >, <, ==, !=",
                )
        if (
            policy is not None
            and paths_param is not None
            and paths_param.value is not None
            and node.params_resolved[paths_param.name]
        ):
            n_paths = len(node.outputs)
            if n_paths != policy.num_outputs:
                yield ctx.diag(
                    "PAP033",
                    f"operator {op.id!r} declares {policy.num_outputs} split "
                    f"condition(s) but {n_paths} output path(s)",
                    line=paths_param.line or op.line,
                    suggestion="declare exactly one output path per condition",
                )


@checker("PAP035", "PAP036")
def check_partition_counts(ctx: LintContext) -> Iterator[Diagnostic]:
    """PAP035 unknown distribution policy, PAP036 bad literal counts."""
    if ctx.model is None:
        return
    from repro.policies.distr import _POLICIES

    ir = ctx.ir()
    if ir is None:
        return
    env = ir.env
    for node in ir.nodes:
        op = node.op
        if node.kind == "distribute":
            policy_param = op.param("distrPolicy", "policy")
            if policy_param is not None and policy_param.value is not None:
                resolved, complete = env.resolve(policy_param.value)
                if complete and resolved and resolved.strip().lower() not in _POLICIES:
                    from difflib import get_close_matches

                    close = get_close_matches(
                        resolved.strip().lower(), sorted(_POLICIES), n=1
                    )
                    yield ctx.diag(
                        "PAP035",
                        f"operator {op.id!r} uses unknown distribution policy "
                        f"{resolved!r}; registered: {sorted(_POLICIES)}",
                        line=policy_param.line or op.line,
                        suggestion=f"did you mean {close[0]!r}?" if close else None,
                    )
            nparts = op.param("numPartitions", "num_partitions")
            if nparts is not None and nparts.value is not None:
                resolved, complete = env.resolve(nparts.value)
                if complete and resolved is not None:
                    yield from _check_positive_int(
                        ctx, op, "numPartitions", resolved, nparts.line
                    )
        reducers = op.attrs.get("num_reducers")
        if reducers is not None:
            resolved, complete = env.resolve(reducers)
            if complete and resolved is not None:
                yield from _check_positive_int(
                    ctx, op, "num_reducers", resolved, op.line
                )


def _check_positive_int(ctx, op, what, text, line) -> Iterator[Diagnostic]:
    try:
        value = int(str(text).strip())
    except (TypeError, ValueError):
        yield ctx.diag(
            "PAP036",
            f"operator {op.id!r}: {what} is {text!r}, not an integer",
            line=line or op.line,
        )
        return
    if value < 1:
        yield ctx.diag(
            "PAP036",
            f"operator {op.id!r}: {what} is {value}, but must be >= 1",
            line=line or op.line,
        )
    elif value > INTEGER_MAX:
        yield ctx.diag(
            "PAP036",
            f"operator {op.id!r}: {what} is {value}, but must be <= {INTEGER_MAX} "
            "(the largest integer)",
            line=line or op.line,
        )

"""Blocking checks on the resolved :class:`~repro.core.planner.WorkflowPlan`
(PAP040, PAP041).

When the engine manages to plan the workflow (with user-supplied or
synthesized arguments), a second family of rules inspects the *resolved*
artifacts: the planner must accept the workflow, and the distribution
policy must generate a genuine permutation of the declared partition
count.  The plan rules that only warn or inform (PAP042-PAP044) are in
:mod:`repro.analysis.rules.advisory`.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.model import LintContext
from repro.analysis.rules import checker
from repro.analysis.rules.paths import INTEGER_MAX


def op_line(ctx: LintContext, op_id: str) -> Optional[int]:
    """The line of operator ``op_id``'s declaration (None when unknown)."""
    if ctx.model is None:
        return None
    idx = ctx.model.operator_index(op_id)
    if idx is None:
        return None
    return ctx.model.operators[idx].line


@checker("PAP040")
def check_plan_outcome(ctx: LintContext) -> Iterator[Diagnostic]:
    """PAP040: the planner rejected the workflow and no static rule said why."""
    if ctx.plan_error is None:
        return
    yield ctx.diag(
        "PAP040",
        f"the workflow does not plan: {ctx.plan_error}",
        line=ctx.model.line if ctx.model is not None else None,
    )


@checker("PAP041")
def check_permutations(ctx: LintContext) -> Iterator[Diagnostic]:
    """PAP041: distribution matrices must be valid permutations.

    Probes every policy but the shipped classes themselves, which always
    pass (``tests/analysis/test_pap041_probe.py``); a subclass may not.
    """
    if ctx.plan is None:
        return
    from repro.ops.distribute import Distribute
    from repro.policies.distr import BlockPolicy, CyclicPolicy, GraphVertexCutPolicy

    shipped = (CyclicPolicy, BlockPolicy, GraphVertexCutPolicy)
    for job in ctx.plan.jobs:
        op = job.operator
        if not isinstance(op, Distribute):
            continue
        nparts = op.num_partitions
        if not 1 <= nparts <= INTEGER_MAX:
            continue  # PAP036 already covers counts out of range
        policy = op.policy  # a DistributionPolicy (resolved by the planner)
        if type(policy) in shipped:
            continue
        # probe with a count that exercises the remainder path
        problems = permutation_problems(policy, 3 * nparts + 2, nparts)
        if problems:
            yield ctx.diag(
                "PAP041",
                f"job {job.op_id!r}: distribution policy {policy.name!r} "
                + problems,
                line=op_line(ctx, job.op_id),
            )


def permutation_problems(policy: Any, n: int, nparts: int) -> Optional[str]:
    """What is wrong with ``policy``'s permutation of ``n`` entries into
    ``nparts`` partitions, as the tail of a PAP041 message; ``None`` when
    it is a valid permutation with counts that sum to ``n``."""
    try:
        perm = policy.permutation(n, nparts)
        counts = policy.counts(n, nparts)
    except Exception as exc:
        return f"fails to build a permutation for {nparts} partition(s): {exc}"
    import numpy as np

    problems = []
    if len(perm) != n or not np.array_equal(np.sort(perm), np.arange(n)):
        problems.append(f"indices are not a permutation of 0..{n - 1}")
    if len(counts) != nparts:
        problems.append(f"{len(counts)} partition counts for {nparts} partitions")
    elif int(np.sum(counts)) != n:
        problems.append(f"partition counts sum to {int(np.sum(counts))}, not {n}")
    if not problems:
        return None
    return f"is not a valid permutation of {nparts} partition(s): " + "; ".join(problems)

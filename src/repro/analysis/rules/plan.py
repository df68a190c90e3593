"""Checks on the resolved :class:`~repro.core.planner.WorkflowPlan`
(PAP040-PAP044).

When the engine manages to plan the workflow (with user-supplied or
synthesized arguments), a second family of rules inspects the *resolved*
artifacts: the distribution policy must generate a genuine permutation of
the declared partition count, collective schedules (``num_reducers``) must
be consistent across jobs, and determinism hazards in the sort -> split /
distribute chain are surfaced.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.model import LintContext
from repro.analysis.rules import checker
from repro.analysis.rules.paths import INTEGER_MAX


def _op_line(ctx: LintContext, op_id: str) -> Optional[int]:
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
                line=_op_line(ctx, job.op_id),
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


@checker("PAP042", "PAP044")
def check_collective_schedule(ctx: LintContext) -> Iterator[Diagnostic]:
    """PAP042: num_reducers consistent across jobs and with the partition
    count; PAP044: declared ranks should not exceed the partition count."""
    if ctx.plan is None:
        return
    from repro.ops.distribute import Distribute

    declared = [
        (job, job.num_reducers)
        for job in ctx.plan.jobs
        if job.num_reducers is not None
    ]
    distinct = {n for _job, n in declared}
    if len(distinct) > 1:
        jobs = ", ".join(f"{job.op_id}={n}" for job, n in declared)
        yield ctx.diag(
            "PAP042",
            "jobs declare inconsistent reducer counts "
            f"({jobs}); every shuffle re-partitions the data differently",
            line=_op_line(ctx, declared[0][0].op_id),
            suggestion="use one num_reducers for the whole workflow",
        )

    nparts = None
    final_distribute = None
    for job in ctx.plan.jobs:
        if isinstance(job.operator, Distribute):
            nparts = job.operator.num_partitions
            final_distribute = job
    if nparts is not None:
        for job, n in declared:
            if n > nparts:
                yield ctx.diag(
                    "PAP042",
                    f"job {job.op_id!r} declares num_reducers={n}, more than "
                    f"the final partition count {nparts}; the extra reducers "
                    "produce empty shards",
                    line=_op_line(ctx, job.op_id),
                )
        if ctx.ranks is not None and ctx.ranks > nparts and final_distribute is not None:
            yield ctx.diag(
                "PAP044",
                f"running with {ctx.ranks} rank(s) but job "
                f"{final_distribute.op_id!r} produces only {nparts} "
                "partition(s); the surplus ranks stay idle",
                line=_op_line(ctx, final_distribute.op_id),
                suggestion="lower --ranks or raise numPartitions",
            )


@checker("PAP043")
def check_sort_determinism(ctx: LintContext) -> Iterator[Diagnostic]:
    """PAP043: sorts feeding a split/distribute partition tied keys by
    input order — stable, but input-order-sensitive."""
    if ctx.plan is None:
        return
    from repro.ops.base import is_basic
    from repro.ops.sort import Sort

    by_id = {job.op_id: job for job in ctx.plan.jobs}
    for job in ctx.plan.jobs:
        if job.source is None or not is_basic(job.operator, "split", "distribute"):
            continue
        producer = by_id.get(job.source)
        if producer is None or not isinstance(producer.operator, Sort):
            continue
        yield ctx.diag(
            "PAP043",
            f"job {job.op_id!r} partitions the output of sort "
            f"{producer.op_id!r}: records with equal "
            f"{producer.operator.key!r} keys keep input order (stable sort), "
            "so partition contents depend on input file order",
            line=_op_line(ctx, job.op_id),
            suggestion="add a tie-breaking secondary key upstream if "
            "partition contents must be input-order independent",
        )

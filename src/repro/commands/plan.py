"""``repro plan``: the planned job sequence, and each job the planner drops."""

from __future__ import annotations

import argparse

from repro.cli import _common, _front_end

#: plan takes the front end's flags and nothing else
arguments = _common


def cmd_plan(ns: argparse.Namespace) -> int:
    """Print the planned jobs and each job the planner drops."""
    front = _front_end(ns)
    if isinstance(front, int):
        return front
    _schemas, plan, _args = front
    print(f"workflow {plan.workflow_id!r}: {len(plan.jobs)} job(s)")
    for i, job in enumerate(plan.jobs):
        src = job.source if job.source else "<workflow input>"
        print(
            f"  [{i}] {job.op_id} ({job.operator_name}) "
            f"<- {src}  -> {', '.join(job.output_paths)}"
        )
    for elided in plan.elided:
        print(f"  elided: {elided.op_id} ({elided.code} {elided.reason})")
    return 0

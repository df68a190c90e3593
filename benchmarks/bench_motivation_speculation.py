"""Section I/II motivation — runtime skew mechanisms vs partitioning.

The paper's opening argument: speculative scheduling (Hadoop/LATE/Mantri)
mitigates stragglers at runtime "to a certain extent", but application-
specific partitioning removes the skew at its source and therefore wins.
This bench quantifies that argument with the deterministic scheduler
simulation: skewed task durations (what block partitioning of a clustered
database produces) under (a) plain scheduling, (b) speculative scheduling,
and (c) balanced durations with the same total work (what the cyclic policy
produces).
"""

import numpy as np
import pytest

from _harness import Experiment, shape
from _speculative import (
    balanced_task_durations,
    simulate_job,
    skewed_task_durations,
)

TASKS = 64
SLOTS = 32


def run_motivation():
    exp = Experiment(
        "Motivation", "job makespan: plain vs speculative vs balanced partitions"
    )
    outcomes = {}
    for skew in (2.0, 4.0, 8.0):
        durations = skewed_task_durations(TASKS, skew=skew, seed=5)
        total = float(durations.sum())
        plain = simulate_job(durations, slots=SLOTS)
        spec = simulate_job(
            durations, slots=SLOTS, speculative=True, speculative_threshold=8,
            backup_speedup=2.0,
        )
        balanced = simulate_job(balanced_task_durations(TASKS, total), slots=SLOTS)
        outcomes[skew] = (plain.makespan, spec.makespan, balanced.makespan)
        exp.add(
            straggler_skew=skew,
            plain_makespan=plain.makespan,
            speculative_makespan=spec.makespan,
            speculative_copies=spec.speculative_copies,
            wasted_work=spec.wasted_work,
            balanced_makespan=balanced.makespan,
            partitioning_win=spec.makespan / balanced.makespan,
        )
    exp.note("balanced = the cyclic policy's outcome; paper: partitioning > runtime fixes")
    return exp, outcomes


def test_motivation(benchmark, reporter):
    exp, outcomes = benchmark.pedantic(run_motivation, rounds=1, iterations=1)
    reporter.record(exp)
    for skew, (plain, spec, balanced) in outcomes.items():
        shape(spec <= plain, f"skew={skew}: speculation never hurts the makespan")
        shape(
            balanced < spec,
            f"skew={skew}: balanced partitions beat speculative scheduling "
            f"({balanced:.2f} < {spec:.2f})",
        )
    # the gap widens with skew — the motivation for application-specific methods
    wins = {skew: spec / balanced for skew, (_, spec, balanced) in outcomes.items()}
    shape(wins[8.0] > wins[2.0], "partitioning's advantage grows with the skew")


def test_scheduler_kernel(benchmark):
    durations = skewed_task_durations(256, skew=4.0, seed=7)
    report = benchmark(simulate_job, durations, 64, True, 16, 2.0)
    assert report.tasks_run == 256

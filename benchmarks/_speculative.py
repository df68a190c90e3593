"""Speculative task scheduling: the runtime skew mechanism of Section I/II.

The paper's motivation: systems like Hadoop handle skew at *runtime* —
"speculative scheduling to replicate last few tasks of a job on different
compute nodes" (also LATE, Mantri) — but "they can not get optimal
application performance, because the runtime of application not only
depends on input data size but also algorithms that will be applied on
data."  Application-specific partitioning removes the skew at its source.

This module is a deterministic discrete-event simulation of that mechanism:
a job of tasks with given durations runs on a fixed number of slots; when
fewer than ``speculative_threshold`` tasks remain, a backup copy of the
slowest running task is launched on a free slot (the first copy to finish
wins, Hadoop semantics).  The benchmark suite uses it to reproduce the
paper's argument quantitatively: speculation trims the straggler tail a
little, balanced partitions (what the cyclic policy produces) remove it.

Only ``bench_motivation_speculation.py`` runs it.  Benchmarks import this
module from their own directory; tests load it by path
(``sys.path.insert(0, <repo>/benchmarks)``).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from repro.errors import MapReduceError


@dataclass
class ScheduleReport:
    """Outcome of one simulated job execution."""

    makespan: float
    tasks_run: int
    speculative_copies: int
    wasted_work: float = 0.0
    timeline: list[tuple[float, str]] = field(default_factory=list)


def simulate_job(
    durations: np.ndarray,
    slots: int,
    speculative: bool = False,
    speculative_threshold: int = 0,
    backup_speedup: float = 1.0,
) -> ScheduleReport:
    """Simulate running ``len(durations)`` tasks on ``slots`` slots.

    ``speculative_threshold`` — launch backups when at most this many tasks
    are still unfinished (Hadoop speculates on the "last few" tasks).
    ``backup_speedup`` — backup copies run this much faster (e.g. the
    original was on a slow node); 1.0 means the backup can only win by
    starting on an otherwise idle slot, which cannot happen for a running
    task, so a speedup > 1 is what makes speculation useful.
    """
    durations = np.asarray(durations, dtype=np.float64)
    if len(durations) == 0:
        return ScheduleReport(makespan=0.0, tasks_run=0, speculative_copies=0)
    if np.any(durations < 0):
        raise MapReduceError("task durations must be non-negative")
    if slots < 1:
        raise MapReduceError(f"slots must be >= 1, got {slots!r}")
    if backup_speedup <= 0:
        raise MapReduceError("backup_speedup must be positive")

    n = len(durations)
    pending = list(range(n))  # FIFO task queue
    # events: (finish_time, task_id, is_backup, start_time)
    events: list[tuple[float, int, bool, float]] = []
    finished: set[int] = set()
    has_backup: set[int] = set()
    busy = 0
    now = 0.0
    copies = 0
    wasted = 0.0
    timeline: list[tuple[float, str]] = []

    def launch(task: int, is_backup: bool, start: float) -> None:
        nonlocal busy, copies
        busy += 1
        run = durations[task] / (backup_speedup if is_backup else 1.0)
        heapq.heappush(events, (start + run, task, is_backup, start))
        if is_backup:
            copies += 1
            timeline.append((start, f"backup task {task}"))

    # fill the initial wave
    while pending and busy < slots:
        launch(pending.pop(0), False, 0.0)

    while events:
        now, task, is_backup, started = heapq.heappop(events)
        busy -= 1
        finished.add(task)
        timeline.append((now, f"finish task {task}"))
        # Hadoop kills the losing copy the moment one copy wins
        losers = [e for e in events if e[1] == task]
        if losers:
            for _, _, _, loser_start in losers:
                wasted += now - loser_start
                busy -= 1
            events = [e for e in events if e[1] != task]
            heapq.heapify(events)
        # schedule new work on the freed slot
        while pending and busy < slots:
            launch(pending.pop(0), False, now)
        if speculative and not pending:
            remaining = [
                t for (_, t, _, _) in events if t not in finished and t not in has_backup
            ]
            if 0 < len(set(remaining)) <= speculative_threshold:
                # back up the task expected to finish last
                slowest = max(set(remaining), key=lambda t: durations[t])
                if busy < slots:
                    has_backup.add(slowest)
                    launch(slowest, True, now)
        # when a backup wins, the original's eventual pop is discarded above

    return ScheduleReport(
        makespan=now,
        tasks_run=n,
        speculative_copies=copies,
        wasted_work=wasted,
        timeline=timeline,
    )


def skewed_task_durations(
    num_tasks: int, mean: float = 1.0, skew: float = 3.0, seed: int = 0
) -> np.ndarray:
    """Task durations with a heavy tail (what skewed partitions produce)."""
    if num_tasks < 1:
        raise MapReduceError(f"num_tasks must be >= 1, got {num_tasks!r}")
    rng = np.random.default_rng(seed)
    base = rng.lognormal(mean=np.log(mean), sigma=0.2, size=num_tasks)
    # one straggler per ~8 tasks, `skew` times slower
    stragglers = rng.random(num_tasks) < 1.0 / 8.0
    base[stragglers] *= skew
    return base


def balanced_task_durations(num_tasks: int, total_work: float) -> np.ndarray:
    """Perfectly balanced durations with the same total work (the cyclic
    partitioning outcome)."""
    if num_tasks < 1:
        raise MapReduceError(f"num_tasks must be >= 1, got {num_tasks!r}")
    return np.full(num_tasks, total_work / num_tasks)

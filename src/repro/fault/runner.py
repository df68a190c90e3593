"""The shared recovery loop wrapped around a runtime's SPMD attempts.

The SPMD plan executor (:class:`~repro.core.runtime.MPIRuntime` and its
``mapreduce`` / ``process`` subclasses) executes a plan as one launcher
call; this module retries that call under a
:class:`~repro.fault.retry.RetryPolicy`, resuming each attempt from the
checkpoint store's committed job prefix and accumulating the fault report
that lands in ``PartitionResult.extra["fault"]``.

The same loop drives the process backend's gang-restart
(:class:`~repro.core.process_runtime.ProcessRuntime`): there real workers
really die, so ``wall_clock=True`` makes the backoff an actual
``time.sleep`` (reported as ``backoff_wall_s``) instead of a virtual-clock
charge, and every classified :class:`~repro.errors.WorkerCrash` lands in
the report's ``crashes`` list.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Optional

from repro.errors import FaultToleranceError, MPIError, WorkerCrash
from repro.fault.checkpoint import CheckpointStore, committed_prefix
from repro.fault.injector import FaultInjector
from repro.fault.retry import RetryPolicy

#: ``attempt_fn(resume_index, start_time_s) -> result`` — one SPMD attempt,
#: resuming after the first ``resume_index`` jobs with per-rank virtual
#: clocks starting at ``start_time_s``.
AttemptFn = Callable[[int, float], Any]


def execute_with_recovery(
    attempt_fn: AttemptFn,
    *,
    plan: Any,
    fingerprint: str,
    size: int,
    store: Optional[CheckpointStore] = None,
    retry: Optional[RetryPolicy] = None,
    injector: Optional[FaultInjector] = None,
    seed: int = 0,
    recorder: Optional[Any] = None,
    wall_clock: bool = False,
    sleep: Callable[[float], None] = time.sleep,
) -> tuple[Any, dict[str, Any]]:
    """Run ``attempt_fn`` until it survives; return ``(result, fault_report)``.

    Only :class:`~repro.errors.MPIError` failures (aborts, deadlocks,
    injected faults, worker crashes, corruption) are retried — programming
    errors propagate unchanged on the first attempt.

    With ``wall_clock=True`` (the process backend's gang-restart) the
    retry backoff is slept for real via ``sleep`` and reported as
    ``backoff_wall_s``; otherwise it is charged to the virtual clock as
    ``backoff_virtual_s``.
    """
    retry = retry or RetryPolicy()
    attempts = 0
    backoff_total = 0.0
    failures: list[str] = []
    recovered_jobs: list[str] = []
    crashes: list[dict[str, Any]] = []
    while True:
        attempts += 1
        resume = (
            committed_prefix(store, fingerprint, plan.jobs, size)
            if store is not None
            else 0
        )
        if injector is not None:
            injector.begin_attempt()
        try:
            result = attempt_fn(resume, 0.0 if wall_clock else backoff_total)
        except MPIError as exc:
            failures.append(f"attempt {attempts}: {exc!r}")
            if isinstance(exc, WorkerCrash):
                crash = exc.as_report()
                crash["attempt"] = attempts
                crashes.append(crash)
            if recorder is not None:
                if isinstance(exc, WorkerCrash):
                    recorder.instant(
                        f"worker crash: {exc}", category="crash",
                        attrs={"attempt": attempts, "rank": exc.rank, "kind": exc.kind},
                    )
                recorder.instant(
                    f"attempt {attempts} failed: {exc}", category="retry",
                    attrs={"attempt": attempts},
                )
            if not retry.should_retry(attempts):
                raise FaultToleranceError(
                    f"workflow {plan.workflow_id!r} still failing after "
                    f"{attempts} attempt(s); failures: {failures}"
                ) from exc
            delay = retry.delay_s(attempts, seed=seed)
            backoff_total += delay
            if recorder is not None:
                recorder.count("fault.restarts", 1)
                recorder.instant(
                    f"restart: attempt {attempts + 1} after {delay:.3f}s backoff",
                    category="restart", attrs={"attempt": attempts + 1},
                )
            if wall_clock:
                sleep(delay)
            continue
        if resume:
            recovered_jobs = [job.op_id for job in plan.jobs[:resume]]
        report: dict[str, Any] = {
            "attempts": attempts,
            "recovered_jobs": recovered_jobs,
            "backoff_virtual_s": 0.0 if wall_clock else backoff_total,
            "failures": failures,
        }
        if wall_clock:
            report["backoff_wall_s"] = backoff_total
        if crashes:
            report["crashes"] = crashes
        if injector is not None:
            report["injected"] = injector.summary()
        return result, report


__all__ = ["execute_with_recovery"]

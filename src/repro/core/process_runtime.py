"""Process-backed workflow execution: ``backend="process"``.

:class:`ProcessRuntime` reuses every distributed kernel of
:class:`~repro.core.runtime.MPIRuntime` — sample-sort, range-group,
exclusive-scan distribute — and swaps only the launcher: ranks run as
forked OS processes over the shared-memory fabric of
:mod:`repro.mpi.process_backend`, so the kernels execute in genuine
parallel instead of time-slicing one GIL.

This is the wall-clock path.  The threaded ``backend="mpi"`` remains the
deterministic substrate for chaos engineering and virtual-time studies, so
the features that depend on shared in-process state are rejected *up
front* with a :class:`~repro.errors.ConfigError` instead of crashing
mid-run:

* *simulated* fault injection (``faults=``) — the injector's seeded draw
  streams coordinate through shared memory only threads have (real
  OS-level chaos is available through
  :class:`~repro.mpi.supervisor.CrashAgent` instead);
* ``Communicator.split``/``dup`` additionally raise
  :class:`~repro.errors.MPIError` from the fabric if a custom rank program
  calls them.

Recovery *is* supported: ``checkpoint=`` (a ``process_safe`` store, i.e.
:class:`~repro.fault.DiskCheckpointStore`) and ``retry=`` drive a
**gang-restart** — when the :class:`~repro.mpi.supervisor.Supervisor`
reports a dead or hung rank, the whole gang is torn down (shm segments
swept), the retry backoff is slept for real wall-clock time, and a fresh
gang resumes from the committed checkpoint prefix, replaying only
uncommitted jobs.  The classified crashes land in
``PartitionResult.extra["fault"]["crashes"]``.

Supported everywhere else: cluster models (virtual clocks ride along),
memory budgets (workers spill run files into the driver's spill
directory), and observability — the driver records the plan span and
folds each worker's transport counters into per-rank ``comm.shm_bytes`` /
``comm.pickle_bytes`` counts, while the merged summary lands in
``PartitionResult.extra["perf"]["transport"]``.

This module is imported only when ``backend="process"`` is selected
(pinned by a fresh-interpreter test), so the other backends never pay for
it.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.cluster.model import ClusterModel
from repro.core.dataset import Dataset
from repro.core.planner import WorkflowPlan
from repro.core.runtime import MPIRuntime, PartitionResult
from repro.errors import ConfigError
from repro.mpi.launcher import MPIRun


class ProcessRuntime(MPIRuntime):
    """SPMD execution with ranks as OS processes (zero-copy shm shuffle)."""

    backend_name = "process"
    wall_clock_recovery = True

    def __init__(
        self,
        num_ranks: int,
        cluster: Optional[ClusterModel] = None,
        sample_size: int = 512,
        *,
        faults: Any = None,
        chaos_seed: int = 0,
        checkpoint: Any = None,
        retry: Any = None,
        deadlock_grace: Optional[float] = None,
        recorder: Any = None,
        memory_budget: Any = None,
        timeout: float = 600.0,
        hang_timeout: Optional[float] = None,
    ) -> None:
        if faults is not None:
            raise ConfigError(
                "backend='process' does not support faults: "
                "fault injection and recovery need the deterministic threaded "
                "fabric; use backend='mpi' for chaos runs"
            )
        if checkpoint is not None and not getattr(checkpoint, "process_safe", False):
            raise ConfigError(
                "backend='process' needs a process-safe checkpoint store "
                "(DiskCheckpointStore): an in-memory store cannot cross the "
                "fork boundary back to the spawner"
            )
        super().__init__(
            num_ranks,
            cluster,
            sample_size,
            chaos_seed=chaos_seed,
            checkpoint=checkpoint,
            retry=retry,
            deadlock_grace=deadlock_grace,
            recorder=recorder,
            memory_budget=memory_budget,
        )
        #: wall-clock seconds the spawner waits for all workers to finish
        self.timeout = timeout
        #: heartbeat-silence seconds before a live rank is declared hung
        #: (``None`` = the supervisor's default)
        self.hang_timeout = hang_timeout
        self._transport: Optional[dict[str, Any]] = None

    def _launch(
        self,
        plan: WorkflowPlan,
        input_data: Dataset,
        rank_kwargs: dict[str, Any],
        fault_injector: Any = None,
        start_time: float = 0.0,
    ) -> MPIRun:
        """One gang of forked ranks running the shared rank program.

        A failed gang is torn down here (shm sweep included) before the
        recovery loop sleeps and retries; forked workers read and write the
        disk checkpoint store directly.  ``fault_injector`` is always
        ``None`` (rejected up front) and the backoff is slept by the
        recovery loop, so ``start_time`` stays zero.
        """
        from repro.mpi.process_backend import run_mpi_processes

        # a recorder cannot cross the fork boundary back to the driver:
        # the driver keeps the plan span, workers record nothing
        worker_kwargs = {
            k: v for k, v in rank_kwargs.items() if k not in ("recorder", "obs_root")
        }
        launch_kwargs: dict[str, Any] = {}
        if self.deadlock_grace is not None:
            launch_kwargs["collect_timeout"] = self.deadlock_grace
        if self.hang_timeout is not None:
            launch_kwargs["hang_timeout"] = self.hang_timeout
        run = run_mpi_processes(
            self._rank_program,
            self.num_ranks,
            cluster=self.cluster,
            args=(plan, input_data),
            kwargs=worker_kwargs,
            timeout=self.timeout,
            **launch_kwargs,
        )
        self._transport = run.extra.get("transport")
        return run

    def execute(
        self, plan: WorkflowPlan, input_data: Dataset, part_writer: Any = None
    ) -> PartitionResult:
        result = super().execute(plan, input_data, part_writer)
        transport = self._transport
        if transport is not None:
            result.extra["perf"]["transport"] = transport
            if self.recorder is not None:
                for rank, t in transport.get("per_rank", {}).items():
                    self.recorder.count("comm.shm_bytes", t["shm_bytes"], rank=rank)
                    self.recorder.count("comm.pickle_bytes", t["pickle_bytes"], rank=rank)
        return result

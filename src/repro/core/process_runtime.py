"""Process-backed workflow execution: ``backend="process"``.

:class:`ProcessRuntime` reuses every distributed kernel of
:class:`~repro.core.runtime.MPIRuntime` — the range sort (a sort of the
run's input exchanges nothing: each rank cuts its own key range),
range-group, exclusive-scan distribute — and swaps only the launcher:
ranks run as forked OS processes over the shared-memory fabric of
:mod:`repro.mpi.process_backend`, so the kernels execute in genuine
parallel instead of time-slicing one GIL.

This is the wall-clock path.  The threaded ``backend="mpi"`` remains the
deterministic substrate for chaos engineering, so
*simulated* fault injection (``faults=``), whose seeded draw streams
coordinate through shared memory only threads have, is rejected *up
front* with a :class:`~repro.errors.ConfigError` instead of crashing
mid-run (real OS-level chaos is available through
:class:`~repro.mpi.supervisor.CrashAgent` instead).

Recovery *is* supported: ``checkpoint=`` (a ``process_safe`` store, i.e.
:class:`~repro.fault.DiskCheckpointStore`) and ``retry=`` drive a
**gang-restart** — when the :class:`~repro.mpi.supervisor.Supervisor`
reports a dead or hung rank, the whole gang is torn down (shm segments
swept), the retry backoff is slept for real wall-clock time, and a fresh
gang resumes from the committed checkpoint prefix, replaying only
uncommitted jobs.  The classified crashes land in
``PartitionResult.extra["fault"]["crashes"]``.

Supported everywhere else: cluster models (each rank's job counts come home
in its perf counters and the driver prices them),
memory budgets (workers spill run files into the driver's spill
directory), and observability — as on every backend, the driver records
the plan span and replays the rank spans each worker stamped in its perf
counters.  ``PartitionResult.bytes_moved`` and ``messages`` sum the
traffic those job counts carry, like every backend's; the launcher adds only
what its shared-memory codec knows, the bytes per transport lane and the
segment counts, which land in ``PartitionResult.extra["perf"]["transport"]``
(and, with a recorder, as per-rank ``comm.shm_bytes`` /
``comm.pickle_bytes`` counters).

This module is imported only when ``backend="process"`` is selected
(pinned by a fresh-interpreter test), so the other backends never pay for
it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

from repro.core.dataset import Dataset
from repro.core.planner import WorkflowPlan
from repro.core.runtime import MPIRuntime
from repro.errors import ConfigError
from repro.mpi.launcher import MPIRun

if TYPE_CHECKING:  # pragma: no cover - a run without a cost model never loads it
    from repro.cluster.model import ClusterModel


class ProcessRuntime(MPIRuntime):
    """SPMD execution with ranks as OS processes (zero-copy shm shuffle)."""

    backend_name = "process"
    wall_clock_recovery = True
    substrate = "repro.mpi.process_backend"

    def __init__(
        self,
        num_ranks: int,
        cluster: Optional[ClusterModel] = None,
        *,
        faults: Any = None,
        chaos_seed: int = 0,
        checkpoint: Any = None,
        retry: Any = None,
        deadlock_grace: Optional[float] = None,
        recorder: Any = None,
        memory_budget: Any = None,
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
            chaos_seed=chaos_seed,
            checkpoint=checkpoint,
            retry=retry,
            deadlock_grace=deadlock_grace,
            recorder=recorder,
            memory_budget=memory_budget,
        )
        #: heartbeat-silence seconds before a live rank is declared hung
        #: (``None`` = the supervisor's default)
        self.hang_timeout = hang_timeout

    def _launch(
        self,
        plan: WorkflowPlan,
        input_data: Dataset,
        rank_kwargs: dict[str, Any],
        fault_injector: Any = None,
    ) -> MPIRun:
        """One gang of forked ranks running the shared rank program.

        A failed gang is torn down here (shm sweep included) before the
        recovery loop sleeps and retries; forked workers read and write the
        disk checkpoint store directly.  ``fault_injector`` is always
        ``None`` (rejected up front) and the backoff is slept by the
        recovery loop.
        """
        from repro.mpi.process_backend import run_mpi_processes

        launch_kwargs: dict[str, Any] = {}
        if self.deadlock_grace is not None:
            launch_kwargs["collect_timeout"] = self.deadlock_grace
        if self.hang_timeout is not None:
            launch_kwargs["hang_timeout"] = self.hang_timeout
        return run_mpi_processes(
            self._rank_program,
            self.num_ranks,
            args=(plan, input_data),
            kwargs=rank_kwargs,
            **launch_kwargs,
        )

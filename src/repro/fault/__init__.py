"""Fault injection, checkpoint/restart, and retry for the simulated cluster.

The paper motivates PaPar against runtime skew/straggler mechanisms (Hadoop
speculative execution, LATE, Mantri); this package supplies the matching
*failure* side of the runtime so recovery cost — not just throughput — can
be studied on the simulator:

* :class:`FaultSchedule` / :class:`FaultSpec` — declarative fault plans
  (rank crashes around job *k*, per-link message drop / duplicate / delay /
  corruption, slow-rank stragglers), parseable from CLI strings and
  generatable from a chaos seed.
* :class:`FaultInjector` — the deterministic, seeded engine that fires a
  schedule: hooked into :meth:`repro.mpi.fabric.Fabric.deliver` and the
  runtimes' per-job boundaries; stragglers and delays are priced.
* :class:`MemoryCheckpointStore` / :class:`DiskCheckpointStore` — per-job,
  per-rank snapshots of workflow outputs so a failed run resumes from the
  last fully-committed job instead of starting over.
* :class:`RetryPolicy` + :func:`execute_with_recovery` — bounded retries
  with exponential backoff and deterministic jitter, priced as a line item
  of the run (``backoff_s``) — or, on the process backend's
  gang-restart (``wall_clock=True``), slept for real and reported as
  ``backoff_wall_s`` alongside the classified
  :class:`~repro.errors.WorkerCrash` reports.

Fault-free runs pay nothing: every hook is behind an ``injector is None``
check and the runtimes bypass the recovery loop entirely when no fault
tolerance was configured.
"""

from repro._lazy import lazy_exports

# names load on first use: ``serve``'s snapshots need the checkpoint store,
# not the injector or the recovery loop
__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "repro.fault.checkpoint": (
        "CheckpointStore", "DiskCheckpointStore", "MemoryCheckpointStore",
        "committed_prefix", "job_key", "plan_fingerprint",
    ),
    "repro.fault.injector": ("FaultInjector",),
    "repro.fault.retry": ("RetryPolicy",),
    "repro.fault.runner": ("execute_with_recovery",),
    "repro.fault.schedule": ("FaultSchedule", "FaultSpec", "parse_fault_spec"),
})

"""SPMD launcher: run one function on ``size`` rank threads.

The analog of ``mpiexec -n <size> python script.py``: every rank executes the
same function with its own :class:`~repro.mpi.comm.Communicator`.  Return
values are collected in rank order; the first rank exception aborts the
fabric (waking any blocked receivers) and is re-raised in the caller.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence

from repro.cluster.clock import VirtualClock
from repro.errors import MPIError
from repro.mpi.comm import Communicator
from repro.mpi.fabric import DEFAULT_DEADLOCK_GRACE, Fabric

if TYPE_CHECKING:  # pragma: no cover - a run without a cost model never loads it
    from repro.cluster.model import ClusterModel


@dataclass
class MPIRun:
    """Result of one SPMD run."""

    #: per-rank return values, in rank order
    results: list[Any]
    #: per-rank final virtual clocks (seconds); zeros without a cluster model
    clocks: list[float]
    #: total bytes moved through the fabric
    bytes_moved: int
    #: total messages moved through the fabric
    messages: int
    extra: dict[str, Any] = field(default_factory=dict)

    @property
    def elapsed(self) -> float:
        """Simulated makespan: the maximum rank clock."""
        return max(self.clocks) if self.clocks else 0.0


def run_mpi(
    fn: Callable[..., Any],
    size: int,
    *,
    cluster: Optional[ClusterModel] = None,
    args: Sequence[Any] = (),
    kwargs: Optional[dict[str, Any]] = None,
    fault_injector: Optional[Any] = None,
    deadlock_grace: Optional[float] = None,
    start_time: float = 0.0,
) -> MPIRun:
    """Run ``fn(comm, *args, **kwargs)`` on ``size`` rank threads.

    When ``cluster`` is given its size must match ``size`` and each rank is
    charged virtual time for communication (and for whatever compute the rank
    charges explicitly via :meth:`Communicator.charge_compute`).

    ``fault_injector`` attaches a :class:`~repro.fault.injector.FaultInjector`
    to the fabric and every communicator; ``deadlock_grace`` overrides the
    fabric's blocked-wait budget before :class:`~repro.errors.DeadlockError`;
    ``start_time`` starts every rank's virtual clock at that many seconds
    (how retry backoff is charged to the next attempt).
    """
    if size < 1:
        raise MPIError(f"size must be >= 1, got {size!r}")
    if cluster is not None and cluster.size != size:
        raise MPIError(
            f"cluster model provides {cluster.size} ranks but run_mpi was asked for {size}"
        )
    kwargs = dict(kwargs or {})
    fabric = Fabric(
        size,
        deadlock_grace=deadlock_grace if deadlock_grace is not None else DEFAULT_DEADLOCK_GRACE,
        injector=fault_injector,
    )
    clocks = [VirtualClock(start_time) for _ in range(size)]
    comms = [
        Communicator(
            rank, fabric, cluster=cluster, clock=clocks[rank], injector=fault_injector
        )
        for rank in range(size)
    ]

    results: list[Any] = [None] * size
    errors: list[Optional[BaseException]] = [None] * size

    def worker(rank: int) -> None:
        try:
            results[rank] = fn(comms[rank], *args, **kwargs)
        except BaseException as exc:  # noqa: BLE001 - must not hang siblings
            errors[rank] = exc
            fabric.abort(exc)

    if size == 1:
        # fast path: no threads needed for a single rank
        worker(0)
    else:
        threads = [
            threading.Thread(target=worker, args=(rank,), name=f"mpi-rank-{rank}", daemon=True)
            for rank in range(size)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300.0)
            if t.is_alive():
                fabric.abort(MPIError("rank thread did not finish within 300 s"))
        for t in threads:
            t.join(timeout=5.0)

    first_error = next((e for e in errors if e is not None), None)
    if first_error is not None:
        # prefer the exception that aborted the fabric: it is the root cause,
        # not a follow-on "communicator aborted" error from a sibling rank
        root = fabric.aborted
        raise root if root is not None else first_error

    return MPIRun(
        results=results,
        clocks=[c.now for c in clocks],
        bytes_moved=fabric.stats.bytes,
        messages=fabric.stats.messages,
    )

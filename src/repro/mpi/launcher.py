"""SPMD launcher: run one function on ``size`` rank threads.

The analog of ``mpiexec -n <size> python script.py``: every rank executes the
same function with its own :class:`~repro.mpi.comm.Communicator`.  Return
values are collected in rank order; the first rank exception aborts the
fabric (waking any blocked receivers) and is re-raised in the caller.
The launcher counts no traffic: a rank program reads what it sent from
its communicator (``comm.take_traffic()``: destination -> ``[bytes,
messages]``, and the bytes it pickled) and returns it if the caller wants it.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from repro.errors import MPIError
from repro.mpi.comm import Communicator
from repro.mpi.fabric import DEFAULT_DEADLOCK_GRACE, Fabric


@dataclass
class MPIRun:
    """Result of one SPMD run."""

    #: per-rank return values, in rank order
    results: list[Any]
    #: what the launcher alone knows (the process backend's transport report)
    extra: dict[str, Any] = field(default_factory=dict)


def run_mpi(
    fn: Callable[..., Any],
    size: int,
    *,
    args: Sequence[Any] = (),
    kwargs: Optional[dict[str, Any]] = None,
    fault_injector: Optional[Any] = None,
    deadlock_grace: Optional[float] = None,
) -> MPIRun:
    """Run ``fn(comm, *args, **kwargs)`` on ``size`` rank threads.

    ``fault_injector`` attaches a :class:`~repro.fault.injector.FaultInjector`
    to the fabric and every communicator; ``deadlock_grace`` overrides the
    fabric's blocked-wait budget before :class:`~repro.errors.DeadlockError`.
    """
    if size < 1:
        raise MPIError(f"size must be >= 1, got {size!r}")
    kwargs = dict(kwargs or {})
    fabric = Fabric(
        size,
        deadlock_grace=deadlock_grace if deadlock_grace is not None else DEFAULT_DEADLOCK_GRACE,
        injector=fault_injector,
    )
    comms = [Communicator(rank, fabric, injector=fault_injector) for rank in range(size)]

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

    return MPIRun(results=results)

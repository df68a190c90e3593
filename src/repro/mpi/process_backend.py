"""Process-backed SPMD execution: ranks as OS processes, zero-copy exchange.

The default launcher runs ranks as threads — ideal for deterministic tests
and chaos engineering, but serialized by the GIL.
This backend is the wall-clock path: each rank is a forked OS process, so
partitioner kernels genuinely execute in parallel, and it is a first-class
``backend="process"`` selectable through ``PaPar.run`` / ``partition_files``
/ ``python -m repro run --backend process`` (see ``docs/process-backend.md``).

Transport: pipes carry *headers only*.  Numpy payloads — ``KVBatch``
columns, partition arrays, ``Dataset`` records — travel through
``multiprocessing.shared_memory`` segments, one per message, via
:mod:`repro.mpi.shm`; the :class:`ShmFabric` endpoint overrides the fabric
codec hooks so the communicator, the MapReduce shuffle and both SPMD
runtimes pick the zero-copy lane up without changes.

Semantics match the thread backend, with one documented restriction:
*simulated* fault injection / chaos schedules stay on the threaded
backend — the deterministic substrate — and are rejected up front;
recovery (checkpoint + retry) is supported via gang-restart, and real
OS-level chaos is available through the
:class:`~repro.mpi.supervisor.CrashAgent` harness.

The spawner does not block blindly on the result queue: a
:class:`~repro.mpi.supervisor.Supervisor` watches worker sentinels and a
heartbeat lane alongside it, so a dead or hung rank surfaces as a
classified :class:`~repro.errors.WorkerCrash` within seconds instead of
the full run timeout (see ``docs/process-backend.md``).

Each worker ships its :class:`~repro.mpi.fabric.TrafficStats` and segment
count back in its exit message; the spawner merges them into
``MPIRun.extra["transport"]`` so per-rank traffic survives the process
boundary — on failure the queue is drained best-effort so the accounting
covers every rank that managed to report, and the raised error carries the
summary as ``papar_transport``.  Cleanup discipline: receivers unlink what
they decode; the spawner sweeps the rest — the union of the names ledger
and a ``/dev/shm`` prefix scan — after the workers are gone (joined for
:data:`EXIT_GRACE` when all reported success, then terminate, then
``kill()`` for anything that survives :data:`TERM_GRACE`), so neither a
clean exit nor a crash leaks segments or child processes.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal
import sys
from collections import deque
from typing import Any, Callable, Optional, Sequence

import numpy as np

from repro.errors import MPIError
from repro.lifecycle import DEFAULT_SIGNALS, graceful_teardown
from repro.mpi.comm import Communicator
from repro.mpi.fabric import Message, TrafficStats, take_match
from repro.mpi.launcher import MPIRun
from repro.mpi.shm import (
    SegmentFactory,
    ShmEnvelope,
    decode_payload,
    encode_payload,
    scan_segments,
    sweep_pending_closes,
    unlink_segments,
)
from repro.mpi.supervisor import (
    DEFAULT_HANG_TIMEOUT,
    CrashAgent,
    HeartbeatSender,
    Supervisor,
)

#: seconds a worker blocks on its inbox before declaring the run stuck
DEFAULT_COLLECT_TIMEOUT = 300.0
#: wall-clock seconds the spawner waits for every worker to finish
DEFAULT_RUN_TIMEOUT = 600.0
#: seconds a worker that reported success gets to finish interpreter shutdown
EXIT_GRACE = 1.0
#: seconds a terminated worker gets to die before escalation to ``kill()``
TERM_GRACE = 10.0
#: seconds a killed worker gets to be reaped (SIGKILL cannot be ignored)
KILL_GRACE = 5.0
#: seconds to wait for sibling exit messages after the first worker error
ERROR_DRAIN_GRACE = 0.5


class ShmFabric:
    """Per-process fabric endpoint speaking the shared-memory wire format.

    One inbox queue per rank carries :class:`Message` headers whose payloads
    are :class:`~repro.mpi.shm.ShmEnvelope` headers; the bytes live in one
    segment per message, made by the sending rank's
    :class:`~repro.mpi.shm.SegmentFactory` and unlinked by the receiver
    when it decodes the message.
    """

    def __init__(
        self,
        rank: int,
        queues: Sequence[Any],
        factory: SegmentFactory,
        collect_timeout: float = DEFAULT_COLLECT_TIMEOUT,
    ) -> None:
        self.size = len(queues)
        self._rank = rank
        self._queues = queues
        self._factory = factory
        self._collect_timeout = collect_timeout
        self._buffer: deque[Message] = deque()
        self.stats = TrafficStats()

    # -- payload codec (the zero-copy lane) ----------------------------------

    def encode_object(self, obj: Any) -> tuple[Any, int]:
        """Encode an object payload into a shm envelope."""
        env = encode_payload(obj, self._factory)
        return env, env.nbytes

    def decode_object(self, payload: Any) -> Any:
        """Map an envelope's segment and rebuild the object (views, no copy)."""
        return decode_payload(payload)

    def encode_buffer(self, arr: np.ndarray) -> tuple[Any, int]:
        """Encode a contiguous numpy buffer into a shm envelope."""
        env = encode_payload(arr, self._factory)
        return env, arr.nbytes

    def decode_buffer(self, payload: Any) -> np.ndarray:
        """Map an envelope back to a (read-only) numpy view."""
        return decode_payload(payload)

    # -- transport (same interface as the thread Fabric) ---------------------

    def deliver(self, dest: int, msg: Message) -> None:
        if not (0 <= dest < self.size):
            raise MPIError(f"destination rank {dest} out of range (size {self.size})")
        self.stats.record(msg.source, msg.nbytes)
        env = msg.payload
        if isinstance(env, ShmEnvelope):
            self.stats.shm_bytes += env.oob_bytes
            self.stats.pickle_bytes += env.fallback_bytes
            blob_len = len(env.blob) if env.blob is not None else 0
            self.stats.inline_bytes += blob_len - env.fallback_bytes
        self._queues[dest].put(msg)

    def collect(self, dest: int, source: int, tag: int) -> Message:
        if dest != self._rank:
            raise MPIError("a process fabric endpoint only receives for its own rank")
        msg = take_match(self._buffer, source, tag)
        if msg is not None:
            return msg
        import queue as queue_mod

        while True:
            try:
                msg = self._queues[self._rank].get(timeout=self._collect_timeout)
            except queue_mod.Empty as exc:
                raise MPIError(
                    f"rank {dest} timed out waiting for message (source={source}, tag={tag})"
                ) from exc
            if msg.source == source and msg.tag == tag:
                return msg
            self._buffer.append(msg)


def _drain(queue: Any) -> list[Any]:
    """Pull everything immediately available off a multiprocessing queue."""
    import queue as queue_mod

    items = []
    while True:
        try:
            items.append(queue.get_nowait())
        except queue_mod.Empty:
            return items
        except Exception:  # closed queue, or a killed writer tore a message
            return items


def _process_worker(
    rank: int,
    queues: Sequence[Any],
    names_queue: Any,
    result_queue: Any,
    heartbeat_queue: Any,
    prefix: str,
    collect_timeout: float,
    crash_agent: Optional[CrashAgent],
    fn: Callable[..., Any],
    args: Sequence[Any],
    kwargs: dict[str, Any],
) -> None:
    """Entry point of one rank process (forked: fn/args arrive by COW memory)."""
    factory = SegmentFactory(prefix, rank, names_queue)
    fabric = ShmFabric(rank, queues, factory, collect_timeout)
    heartbeat = HeartbeatSender(rank, heartbeat_queue)
    heartbeat.start()
    if crash_agent is not None:
        crash_agent.bind_heartbeat(heartbeat)
    try:
        comm = Communicator(rank, fabric, injector=crash_agent)
        result = fn(comm, *args, **kwargs)
        envelope = encode_payload(result, factory)
        result_queue.put(
            {
                "status": "ok",
                "rank": rank,
                "payload": envelope,
                "traffic": fabric.stats.as_dict(),
                "segments": factory.created,
            }
        )
    except BaseException as exc:  # noqa: BLE001 - shipped to the parent
        exit_msg = {
            "status": "error",
            "rank": rank,
            "payload": exc,
            "traffic": fabric.stats.as_dict(),
            "segments": factory.created,
        }
        try:
            result_queue.put(exit_msg)
        except Exception:
            exit_msg["payload"] = MPIError(repr(exc))
            result_queue.put(exit_msg)
    finally:
        # the exit message is queued: a teardown signal now ends the rank
        # quietly (no ShutdownRequested traceback), once its mappings are swept
        held: list[int] = []
        for signum in DEFAULT_SIGNALS:
            signal.signal(signum, lambda signum, frame: held.append(signum))
        heartbeat.stop()
        sweep_pending_closes()
        for signum in DEFAULT_SIGNALS:
            signal.signal(signum, lambda signum, frame: sys.exit(0))
        if held:
            sys.exit(0)


def _shutdown_gang(procs: Sequence[Any], exiting: bool = False) -> None:
    """Tear the gang down: terminate, join, escalate to ``kill()``.

    A worker that ignores SIGTERM (stuck in a signal-blind C call, or a
    test that installed ``SIG_IGN``) used to be leaked past the old
    ``join(10.0)``; now it gets :data:`TERM_GRACE` seconds to die politely
    before SIGKILL, which cannot be ignored.

    ``exiting`` says every worker has reported success and is inside
    interpreter shutdown, where a SIGTERM would only cut it short (a rank
    that queued its exit message ends quietly on one): those get
    :data:`EXIT_GRACE` seconds to leave on their own first.
    """
    import time as time_mod

    if exiting:
        deadline = time_mod.monotonic() + EXIT_GRACE
        for p in procs:
            p.join(timeout=max(0.0, deadline - time_mod.monotonic()))
    for p in procs:
        p.terminate()
    deadline = time_mod.monotonic() + TERM_GRACE
    for p in procs:
        p.join(timeout=max(0.0, deadline - time_mod.monotonic()))
    survivors = [p for p in procs if p.is_alive()]
    for p in survivors:
        p.kill()
    for p in survivors:
        p.join(timeout=KILL_GRACE)


def run_mpi_processes(
    fn: Callable[..., Any],
    size: int,
    *,
    args: Sequence[Any] = (),
    kwargs: Optional[dict[str, Any]] = None,
    timeout: float = DEFAULT_RUN_TIMEOUT,
    collect_timeout: float = DEFAULT_COLLECT_TIMEOUT,
    hang_timeout: Optional[float] = DEFAULT_HANG_TIMEOUT,
    crash_agent: Optional[CrashAgent] = None,
) -> MPIRun:
    """Run ``fn(comm, *args, **kwargs)`` on ``size`` rank *processes*.

    Returns an :class:`~repro.mpi.launcher.MPIRun` whose
    ``extra["transport"]`` carries the merged per-rank traffic and segment
    counts (``shm_bytes``, ``pickle_bytes``, segments created, segments
    swept at teardown) — the numbers the driver surfaces in
    ``PartitionResult.extra["perf"]["transport"]``.

    Collection is supervised: a rank that dies without reporting raises a
    classified :class:`~repro.errors.WorkerCrash` within seconds, and a
    live rank whose heartbeat goes quiet for ``hang_timeout`` seconds is
    declared hung (``hang_timeout=None`` disables hang detection).  On any
    failure the raised exception carries the best-effort transport summary
    as ``papar_transport``.

    ``crash_agent`` (or the ``PAPAR_CRASH_AGENT`` environment variable)
    arms the real-fault chaos harness; see
    :class:`~repro.mpi.supervisor.CrashAgent`.
    """
    if size < 1:
        raise MPIError(f"size must be >= 1, got {size!r}")
    if crash_agent is None:
        crash_agent = CrashAgent.from_env()
    ctx = mp.get_context("fork") if "fork" in mp.get_all_start_methods() else mp.get_context()
    prefix = f"pp{os.getpid():x}{os.urandom(2).hex()}"
    queues = [ctx.Queue() for _ in range(size)]
    names_queue = ctx.Queue()
    result_queue = ctx.Queue()
    heartbeat_queue = ctx.Queue()
    procs = [
        ctx.Process(
            target=_process_worker,
            args=(
                rank, queues, names_queue, result_queue,
                heartbeat_queue, prefix, collect_timeout, crash_agent,
                fn, tuple(args), dict(kwargs or {}),
            ),
            daemon=True,
        )
        for rank in range(size)
    ]
    results: list[Any] = [None] * size
    traffic: dict[int, dict[str, Any]] = {}
    created: dict[int, int] = {}
    seen: set[int] = set()
    first_error: Optional[BaseException] = None
    unlinked = 0
    import queue as queue_mod
    import time as time_mod

    def _absorb(exit_msg: dict[str, Any], decode: bool) -> None:
        """Fold one exit message into the accounting (and results if asked)."""
        nonlocal first_error
        rank = exit_msg["rank"]
        if rank in seen:
            return
        seen.add(rank)
        traffic[rank] = exit_msg["traffic"]
        created[rank] = exit_msg["segments"]
        if exit_msg["status"] == "error":
            first_error = first_error or exit_msg["payload"]
        elif decode:
            # materialize the result out of shared memory before cleanup
            results[rank] = decode_payload(exit_msg["payload"], copy=True)

    # SIGTERM's default disposition skips ``finally`` blocks entirely, which
    # used to leak the gang and its /dev/shm segments when a CLI run was
    # interrupted; graceful_teardown turns the first signal into an exception
    # that unwinds through the teardown below (second signal kills for real)
    with graceful_teardown():
        for p in procs:
            p.start()
        supervisor = Supervisor(
            procs, result_queue, heartbeat_queue,
            timeout=timeout, hang_timeout=hang_timeout,
        )
        try:
            try:
                for exit_msg in supervisor.exits():
                    _absorb(exit_msg, decode=True)
                    if exit_msg["status"] == "error":
                        break
            except MPIError as exc:  # WorkerCrash, hang, or global timeout
                if first_error is None:
                    first_error = exc
            if first_error is not None:
                # drain sibling exits best-effort so the transport accounting
                # and segment ledgers are complete even on failure
                drain_deadline = time_mod.monotonic() + ERROR_DRAIN_GRACE
                while len(seen) < size and time_mod.monotonic() < drain_deadline:
                    try:
                        _absorb(result_queue.get(timeout=0.05), decode=False)
                    except (queue_mod.Empty, OSError, ValueError):
                        pass
        finally:
            _shutdown_gang(procs, exiting=first_error is None and len(seen) == size)
            for exit_msg in _drain(result_queue):
                try:
                    _absorb(exit_msg, decode=False)
                except Exception:  # killed writer can tear a message mid-pickle
                    break
            # sweep the union of the ledger and a /dev/shm prefix scan: an
            # undecoded message or a crashed worker's segments show up in at
            # least one of the two
            names = set(_drain(names_queue)) | set(scan_segments(prefix))
            unlinked = unlink_segments(names)
            sweep_pending_closes()
    if first_error is not None:
        try:
            first_error.papar_transport = _merge_transport(prefix, traffic, created, unlinked)
        except Exception:
            pass
        raise first_error
    messages = sum(t["messages"] for t in traffic.values())
    nbytes = sum(t["bytes"] for t in traffic.values())
    run = MPIRun(results=results, bytes_moved=nbytes, messages=messages)
    run.extra["transport"] = _merge_transport(prefix, traffic, created, unlinked)
    return run


def _merge_transport(
    prefix: str,
    traffic: dict[int, dict[str, Any]],
    created: dict[int, int],
    unlinked: int,
) -> dict[str, Any]:
    """Fold per-rank traffic and segment counts into the driver-facing summary.

    ``segments_unlinked`` counts only what the teardown sweep removed, so a
    clean run reports 0.
    """
    summary: dict[str, Any] = {
        "kind": "shm",
        "shm_prefix": prefix,
        "shm_bytes": sum(t["shm_bytes"] for t in traffic.values()),
        "pickle_bytes": sum(t["pickle_bytes"] for t in traffic.values()),
        "inline_bytes": sum(t["inline_bytes"] for t in traffic.values()),
        "segments_created": sum(created.values()),
        "segments_unlinked": unlinked,
        "per_rank": {
            rank: {
                "messages": t["messages"],
                "bytes": t["bytes"],
                "shm_bytes": t["shm_bytes"],
                "pickle_bytes": t["pickle_bytes"],
                "inline_bytes": t["inline_bytes"],
            }
            for rank, t in sorted(traffic.items())
        },
    }
    return summary

"""Worker supervision for the process backend: sentinels, heartbeats, chaos.

The spawner used to block on ``result_queue.get(timeout=600)``: a rank that
was OOM-killed or wedged left the run stuck for the full timeout before
dying with a generic error.  This module watches three lanes at once so a
dead or hung rank is detected in *seconds* and classified:

* the **result queue** — normal exit messages;
* the **sentinels** — ``Process.is_alive()``/``exitcode``; a process that
  died without posting an exit message is classified by
  :func:`classify_exit` (negative exitcode → signal name, ``SIGKILL`` gets
  an OOM hint; positive → nonzero ``exit``; zero → silent death);
* a **heartbeat queue** — every worker runs a daemon
  :class:`HeartbeatSender` thread beating a few times a second; a rank
  that is alive but has not beaten for ``hang_timeout`` seconds is
  declared hung.  This catches *frozen* processes (stopped, or a C call
  holding the GIL forever), not merely slow ones — a busy pure-Python or
  numpy kernel keeps beating.

On any of these the :class:`Supervisor` raises
:class:`~repro.errors.WorkerCrash` and the spawner tears the whole gang
down (terminate, then kill after :data:`TERM_GRACE`).  Gang-restart on top
of this lives in :class:`~repro.core.process_runtime.ProcessRuntime`.

:class:`CrashAgent` is the *real*-fault chaos harness: armed by a test or
the ``--crash-agent`` CLI flag (or the ``PAPAR_CRASH_AGENT`` environment
variable), it rides the same job-boundary hook as the deterministic fault
injector (``Communicator.check_fault``) but fires OS-level faults —
``os.kill(SIGKILL)``, ``os._exit(code)``, or an honest hang — exactly once
per marker file, so a restarted gang does not crash again.
"""

from __future__ import annotations

import os
import queue as queue_mod
import signal
import threading
import time
from typing import Any, Iterator, Optional, Sequence

from repro.errors import MPIError, WorkerCrash

#: seconds between worker heartbeats
HEARTBEAT_INTERVAL = 0.2
#: seconds of heartbeat silence from a live process before it is declared hung
DEFAULT_HANG_TIMEOUT = 30.0
#: seconds after a sentinel fires to let an in-flight exit message arrive
DEAD_GRACE = 0.75
#: supervisor poll granularity (result-queue get timeout), seconds
POLL_INTERVAL = 0.05


class HeartbeatSender(threading.Thread):
    """Daemon thread beating a rank's liveness onto the heartbeat queue."""

    def __init__(self, rank: int, beat_queue: Any, interval: float = HEARTBEAT_INTERVAL) -> None:
        super().__init__(name=f"papar-heartbeat-{rank}", daemon=True)
        self.rank = rank
        self.beat_queue = beat_queue
        self.interval = interval
        self._stopped = threading.Event()

    def run(self) -> None:
        """Beat immediately, then every ``interval`` seconds until stopped."""
        while True:
            try:
                self.beat_queue.put_nowait(self.rank)
            except Exception:  # queue torn down at interpreter exit
                return
            if self._stopped.wait(self.interval):
                return

    def stop(self) -> None:
        """Stop beating (normal worker shutdown)."""
        self._stopped.set()

    # the chaos agent silences the heartbeat before hanging, so a hung rank
    # looks exactly like a frozen process rather than a politely idle one
    silence = stop


def classify_exit(rank: int, exitcode: Optional[int]) -> WorkerCrash:
    """Classify a worker that died without posting an exit message."""
    if exitcode is not None and exitcode < 0:
        try:
            signal_name = signal.Signals(-exitcode).name
        except ValueError:
            signal_name = f"signal {-exitcode}"
        hint = " (SIGKILL often means the OOM killer)" if -exitcode == signal.SIGKILL else ""
        return WorkerCrash(
            f"rank {rank} killed by {signal_name}{hint}",
            rank=rank, kind="signal", exitcode=exitcode, signal_name=signal_name,
        )
    if exitcode:  # positive and nonzero
        return WorkerCrash(
            f"rank {rank} exited with code {exitcode} without reporting a result",
            rank=rank, kind="exit", exitcode=exitcode,
        )
    return WorkerCrash(
        f"rank {rank} exited silently (code {exitcode}) without reporting a result",
        rank=rank, kind="silent", exitcode=exitcode,
    )


class Supervisor:
    """Watch a gang of rank processes: results, sentinels, heartbeats.

    :meth:`exits` yields exit messages as they arrive and raises
    :class:`~repro.errors.WorkerCrash` (classified) the moment a pending
    rank dies without one or stops heartbeating, or plain
    :class:`~repro.errors.MPIError` when the global ``timeout`` expires.
    """

    def __init__(
        self,
        procs: Sequence[Any],
        result_queue: Any,
        heartbeat_queue: Any,
        *,
        timeout: float = 600.0,
        hang_timeout: Optional[float] = DEFAULT_HANG_TIMEOUT,
        poll_interval: float = POLL_INTERVAL,
        dead_grace: float = DEAD_GRACE,
    ) -> None:
        self.procs = procs
        self.result_queue = result_queue
        self.heartbeat_queue = heartbeat_queue
        self.timeout = timeout
        self.hang_timeout = hang_timeout
        self.poll_interval = poll_interval
        self.dead_grace = dead_grace

    def _drain_beats(self, last_beat: dict[int, float]) -> None:
        """Stamp the arrival time of every queued heartbeat."""
        now = time.monotonic()
        while True:
            try:
                rank = self.heartbeat_queue.get_nowait()
            except (queue_mod.Empty, OSError, ValueError):
                return
            last_beat[rank] = now

    def exits(self) -> Iterator[dict[str, Any]]:
        """Yield one exit message per rank; raise on crash, hang, or timeout."""
        pending = set(range(len(self.procs)))
        start = time.monotonic()
        deadline = start + self.timeout
        last_beat = {rank: start for rank in pending}
        dead_since: dict[int, float] = {}
        while pending:
            self._drain_beats(last_beat)
            try:
                msg = self.result_queue.get(timeout=self.poll_interval)
            except queue_mod.Empty:
                msg = None
            if msg is not None:
                pending.discard(msg["rank"])
                dead_since.pop(msg["rank"], None)
                yield msg
                continue
            now = time.monotonic()
            if now >= deadline:
                raise MPIError(
                    f"rank processes did not finish within {self.timeout}s "
                    f"(pending ranks {sorted(pending)})"
                )
            for rank in sorted(pending):
                proc = self.procs[rank]
                if not proc.is_alive():
                    # give an already-posted exit message a moment to surface
                    since = dead_since.setdefault(rank, now)
                    if now - since >= self.dead_grace:
                        raise classify_exit(rank, proc.exitcode)
                elif (
                    self.hang_timeout is not None
                    and now - last_beat[rank] > self.hang_timeout
                ):
                    raise WorkerCrash(
                        f"rank {rank} is alive but stopped heartbeating for "
                        f"{self.hang_timeout:.1f}s (frozen process?)",
                        rank=rank, kind="hang",
                    )


class CrashAgent:
    """Process-level chaos: SIGKILL / hang / nonzero-exit one rank, once.

    Implements the fault-injector duck interface the
    :class:`~repro.mpi.comm.Communicator` already calls at job boundaries
    (``check_crash(rank, job_index, when)``), but
    instead of raising a simulated :class:`InjectedFault` it commits a real
    OS-level crime.  ``marker`` is a filesystem path created with
    ``O_EXCL`` *before* firing — it survives the SIGKILL, so the restarted
    gang sees it and does not crash again.
    """

    def __init__(
        self,
        mode: str,
        rank: int,
        job: int = 0,
        when: str = "before",
        exit_code: int = 17,
        marker: Optional[str] = None,
    ) -> None:
        if mode not in ("kill", "hang", "exit"):
            raise ValueError(f"unknown crash-agent mode {mode!r}")
        if when not in ("before", "after"):
            raise ValueError(f"crash-agent when must be 'before' or 'after', got {when!r}")
        self.mode = mode
        self.rank = rank
        self.job = job
        self.when = when
        self.exit_code = exit_code
        self.marker = marker
        self._heartbeat: Optional[HeartbeatSender] = None

    @classmethod
    def from_spec(cls, spec: str) -> "CrashAgent":
        """Parse ``"kill:rank=1,job=2,when=after,marker=/tmp/m,code=9"``."""
        mode, _, rest = spec.partition(":")
        fields: dict[str, str] = {}
        for item in filter(None, rest.split(",")):
            key, sep, value = item.partition("=")
            if not sep:
                raise ValueError(f"bad crash-agent field {item!r} in {spec!r}")
            fields[key.strip()] = value.strip()
        known = {"rank", "job", "when", "marker", "code"}
        unknown = set(fields) - known
        if unknown:
            raise ValueError(f"unknown crash-agent field(s) {sorted(unknown)} in {spec!r}")
        if "rank" not in fields:
            raise ValueError(f"crash-agent spec {spec!r} must name a rank")
        return cls(
            mode.strip(),
            rank=int(fields["rank"]),
            job=int(fields.get("job", "0")),
            when=fields.get("when", "before"),
            exit_code=int(fields.get("code", "17")),
            marker=fields.get("marker"),
        )

    @classmethod
    def from_env(cls) -> Optional["CrashAgent"]:
        """Build an agent from ``PAPAR_CRASH_AGENT``, or ``None`` if unset."""
        spec = os.environ.get("PAPAR_CRASH_AGENT")
        return cls.from_spec(spec) if spec else None

    def bind_heartbeat(self, heartbeat: HeartbeatSender) -> None:
        """Give the agent the rank's heartbeat thread (silenced on hang)."""
        self._heartbeat = heartbeat

    # -- fault-injector duck interface ---------------------------------------

    def check_crash(self, rank: int, job_index: int, when: str) -> None:
        """Fire the configured real fault at the armed job boundary."""
        if rank != self.rank or job_index != self.job or when != self.when:
            return
        if not self._arm_once():
            return
        if self.mode == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        elif self.mode == "exit":
            # bypass the worker's exception handler and exit-message path
            os._exit(self.exit_code)
        else:  # hang: look frozen, not idle — silence the heartbeat first
            if self._heartbeat is not None:
                self._heartbeat.silence()
            while True:  # pragma: no cover - the supervisor kills us
                time.sleep(60)

    def _arm_once(self) -> bool:
        """Atomically claim the marker file; False if already fired."""
        if self.marker is None:
            return True
        try:
            fd = os.open(self.marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        os.close(fd)
        return True


__all__ = [
    "CrashAgent",
    "DEAD_GRACE",
    "DEFAULT_HANG_TIMEOUT",
    "HEARTBEAT_INTERVAL",
    "HeartbeatSender",
    "POLL_INTERVAL",
    "Supervisor",
    "classify_exit",
]

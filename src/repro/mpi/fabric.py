"""In-process message fabric connecting the rank threads.

One :class:`Fabric` backs one communicator.  Sends are *eager*: the payload
is deposited directly into the destination mailbox, so a sender never blocks
(matching the buffered semantics mpi4py programs rely on for small and
medium messages).  Receives block on a per-mailbox condition variable until
a message with exactly the requested ``(source, tag)`` arrives, FIFO
(non-overtaking) per source.

The fabric moves messages and counts none of them: each rank's
:class:`~repro.mpi.comm.Communicator` tallies what it sends, per
destination, and that tally is the only record of what crossed the fabric
(the executor prices it and reports it as ``PartitionResult.bytes_moved``).

If any rank dies with an exception the launcher calls :meth:`Fabric.abort`,
which wakes every blocked receiver with :class:`~repro.errors.MPIError`
instead of deadlocking the test suite.

A receiver that waits longer than ``deadlock_grace`` seconds without the
fabric being aborted raises :class:`~repro.errors.DeadlockError` carrying
every blocked rank's pending ``(source, tag)`` state — the diagnosis layer
for lost messages (see :mod:`repro.fault`).

Fault injection: when a :class:`~repro.fault.injector.FaultInjector` is
attached, :meth:`deliver` routes each message through it (drop / duplicate /
delay / corrupt), duplicate copies are suppressed by per-destination
sequence-number dedup, and :meth:`collect` verifies the transport checksum
of any message the injector touched.  Without an injector all of that is a
single ``is None`` check — the fault-free hot path is unchanged.
"""

from __future__ import annotations

import pickle
import threading
from collections import deque
from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from repro.errors import CorruptMessageError, DeadlockError, MPIError

#: default seconds a blocked receiver waits before declaring a deadlock
DEFAULT_DEADLOCK_GRACE = 60.0


@dataclass
class Message:
    """One in-flight message."""

    source: int
    tag: int
    payload: Any
    nbytes: int
    #: True for the buffer-protocol ("capitalized") path
    is_buffer: bool = False
    #: transport sequence number (assigned only under fault injection)
    seq: int = -1
    #: transport checksum of the *original* payload (fault injection only)
    checksum: Optional[int] = None


def take_match(messages: deque[Message], source: int, tag: int) -> Optional[Message]:
    """Remove and return the first message from ``source`` with ``tag``.

    Unmatched messages keep their order, so matching is FIFO per source.
    """
    for i, msg in enumerate(messages):
        if msg.source == source and msg.tag == tag:
            del messages[i]
            return msg
    return None


class _Mailbox:
    """Unmatched messages destined for one rank, plus its wakeup condvar."""

    __slots__ = ("lock", "ready", "messages", "seen_seqs")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.ready = threading.Condition(self.lock)
        self.messages: deque[Message] = deque()
        #: sequence numbers already accepted (duplicate suppression)
        self.seen_seqs: set[int] = set()


class Fabric:
    """Message transport shared by all ranks of one communicator."""

    def __init__(
        self,
        size: int,
        deadlock_grace: float = DEFAULT_DEADLOCK_GRACE,
        injector: Optional[Any] = None,
    ) -> None:
        if size < 1:
            raise MPIError(f"communicator size must be >= 1, got {size!r}")
        if deadlock_grace <= 0:
            raise MPIError(f"deadlock_grace must be > 0 seconds, got {deadlock_grace!r}")
        self.size = size
        #: seconds a blocked wait may last before raising :class:`DeadlockError`
        self.deadlock_grace = deadlock_grace
        #: optional :class:`~repro.fault.injector.FaultInjector`
        self.injector = injector
        self._mailboxes = [_Mailbox() for _ in range(size)]
        self._aborted: Optional[BaseException] = None
        #: rank -> (source, tag) while that rank is blocked in :meth:`collect`
        self._waiting: dict[int, tuple[int, int]] = {}

    # -- transport ---------------------------------------------------------

    def deliver(self, dest: int, msg: Message) -> None:
        """Deposit ``msg`` in ``dest``'s mailbox and wake any waiting receiver."""
        self._check_alive()
        if not (0 <= dest < self.size):
            raise MPIError(f"destination rank {dest} out of range (size {self.size})")
        if self.injector is None:
            box = self._mailboxes[dest]
            with box.lock:
                box.messages.append(msg)
                box.ready.notify_all()
            return
        # fault-injected path: the injector decides the copies that reach the
        # wire; per-destination sequence dedup suppresses duplicated copies
        copies = self.injector.on_deliver(msg.source, dest, msg)
        box = self._mailboxes[dest]
        for copy in copies:
            with box.lock:
                if copy.seq in box.seen_seqs:
                    self.injector.count_suppressed_duplicate()
                    continue
                box.seen_seqs.add(copy.seq)
                box.messages.append(copy)
                box.ready.notify_all()

    @staticmethod
    def _verify(msg: Message) -> Message:
        """Check the transport checksum of an injector-touched message."""
        if msg.checksum is not None:
            from repro.fault.injector import checksum_of

            if checksum_of(msg.payload) != msg.checksum:
                raise CorruptMessageError(
                    f"message from rank {msg.source} (tag {msg.tag}, "
                    f"{msg.nbytes} B) failed its transport checksum"
                )
        return msg

    def collect(self, dest: int, source: int, tag: int) -> Message:
        """Block until a matching message arrives for rank ``dest``.

        A wait longer than the fabric's ``deadlock_grace`` raises
        :class:`DeadlockError` with the blocked ranks' pending state.
        """
        box = self._mailboxes[dest]
        self._waiting[dest] = (source, tag)
        try:
            with box.lock:
                while True:
                    self._check_alive()
                    msg = take_match(box.messages, source, tag)
                    if msg is not None:
                        return self._verify(msg)
                    if not box.ready.wait(timeout=self.deadlock_grace):
                        self._check_alive()
                        pending = dict(self._waiting)
                        raise DeadlockError(
                            f"rank {dest} made no progress for "
                            f"{self.deadlock_grace:.1f}s waiting for a message "
                            f"(source={source}, tag={tag}); blocked ranks: "
                            f"{pending}",
                            rank=dest,
                            pending=pending,
                        )
        finally:
            self._waiting.pop(dest, None)

    # -- payload codec -------------------------------------------------------
    #
    # The communicator never serializes payloads itself: it asks its fabric,
    # so a transport can choose the wire format.  The thread fabric pickles
    # (receivers get private copies, matching mpi4py's lowercase semantics)
    # and copies buffers; the process backend's shared-memory fabric overrides
    # these four hooks to move array bytes through one shm segment per message.

    def encode_object(self, obj: Any) -> tuple[Any, int]:
        """Serialize an object payload; returns ``(payload, nbytes)``."""
        payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        return payload, len(payload)

    def decode_object(self, payload: Any) -> Any:
        """Rebuild an object produced by :meth:`encode_object`."""
        return pickle.loads(payload)

    def encode_buffer(self, arr: np.ndarray) -> tuple[Any, int]:
        """Package a contiguous numpy buffer; returns ``(payload, nbytes)``.

        The copy detaches the in-flight message from the sender's memory so
        a sender reusing its buffer cannot corrupt an undelivered message.
        """
        return arr.copy(), arr.nbytes

    def decode_buffer(self, payload: Any) -> np.ndarray:
        """Rebuild the numpy buffer produced by :meth:`encode_buffer`."""
        return payload

    # -- failure handling ----------------------------------------------------

    def abort(self, exc: BaseException) -> None:
        """Mark the fabric dead and wake all blocked receivers.

        The first abort wins: follow-on "communicator aborted" errors from
        sibling ranks never mask the root cause.
        """
        if self._aborted is None:
            self._aborted = exc
        for box in self._mailboxes:
            with box.lock:
                box.ready.notify_all()

    def _check_alive(self) -> None:
        if self._aborted is not None:
            raise MPIError(f"communicator aborted: {self._aborted!r}") from self._aborted

    @property
    def aborted(self) -> Optional[BaseException]:
        """The exception the fabric was aborted with, if any."""
        return self._aborted

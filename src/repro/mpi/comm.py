"""The communicator: the collectives the rank programs call.

The SPMD executors exchange through ``alltoall``, ``allgather``,
``allreduce``, ``exscan``, ``reduce``, ``Allreduce`` and ``Allgatherv``;
those are built from the point-to-point methods and the rank-0-rooted
``bcast``/``gather``/``scan``/``Bcast``/``Reduce`` below.  Lowercase methods
communicate arbitrary pickled Python objects; capitalized methods move numpy
buffers without pickling (the "fast path" of the mpi4py tutorial).

Collectives use real distributed algorithms — binomial trees for
``bcast``/``reduce``, a rank chain for ``scan``, pairwise exchange for
``alltoall`` — so the traffic each rank tallies (what the cost model
prices, :func:`repro.cluster.model.price`) has their log-p / (p-1)-step
structure.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

import numpy as np

from repro.errors import MPIError
from repro.mpi.fabric import Fabric, Message
from repro.mpi.reduce_ops import ReduceOp

# Reserved internal tags; user tags must be >= 0.
_TAG_BCAST = -10
_TAG_REDUCE = -11
_TAG_GATHER = -13
_TAG_ALLTOALL = -14
_TAG_SCAN = -16
_TAG_BUFFER = -17


class Communicator:
    """One rank's endpoint of a communicator.

    Parameters
    ----------
    rank:
        This rank's index within the communicator.
    fabric:
        The shared :class:`~repro.mpi.fabric.Fabric` transport.
    injector:
        Optional :class:`~repro.fault.injector.FaultInjector`; when given,
        the runtimes' per-job :meth:`check_fault` calls can fire scheduled
        rank crashes.

    Every send is tallied in :attr:`sent` (destination -> ``[bytes,
    messages]``) and every pickled byte sent or received in
    :attr:`packed`: the traffic the cost model prices, which
    :meth:`take_traffic` hands over a job at a time.
    """

    def __init__(self, rank: int, fabric: Fabric, injector: Optional[Any] = None) -> None:
        if not (0 <= rank < fabric.size):
            raise MPIError(f"rank {rank} out of range for size {fabric.size}")
        self.rank = rank
        self._fabric = fabric
        self.injector = injector
        self.sent: dict[int, list[int]] = {}
        self.packed = 0

    @property
    def size(self) -> int:
        """Number of ranks in this communicator."""
        return self._fabric.size

    def take_traffic(self) -> tuple[dict[int, list[int]], int]:
        """``(sent, packed)`` since the last call; the tally starts over."""
        traffic = self.sent, self.packed
        self.sent, self.packed = {}, 0
        return traffic

    # -- fault-injection hook ---------------------------------------------------

    def check_fault(self, job_index: int, when: str) -> None:
        """Fire any crash fault scheduled for this rank at a job boundary.

        Called by the runtimes ``before`` and ``after`` each planned job;
        raises :class:`~repro.errors.InjectedFault` when the attached
        injector has a matching crash scheduled.  No-op without an injector.
        """
        if self.injector is not None:
            self.injector.check_crash(self.rank, job_index, when)

    def _deliver(self, dest: int, msg: Message, serialized: bool) -> None:
        """Tally ``msg`` as sent to ``dest`` and hand it to the fabric."""
        slot = self.sent.get(dest)
        if slot is None:
            self.sent[dest] = [msg.nbytes, 1]
        else:
            slot[0] += msg.nbytes
            slot[1] += 1
        if serialized:
            self.packed += msg.nbytes
        self._fabric.deliver(dest, msg)

    def _collect(self, source: int, tag: int, serialized: bool) -> Message:
        """The next message from ``source`` with ``tag``, tallied as received."""
        msg = self._fabric.collect(self.rank, source, tag)
        if serialized:
            self.packed += msg.nbytes
        return msg

    # -- point-to-point: object path ------------------------------------------

    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Send a pickled Python object (eager: never blocks)."""
        payload, nbytes = self._fabric.encode_object(obj)
        self._deliver(dest, Message(self.rank, tag, payload, nbytes), serialized=True)

    def recv(self, source: int, tag: int = 0) -> Any:
        """Receive one pickled Python object from ``source`` (blocking)."""
        msg = self._collect(source, tag, serialized=True)
        return self._fabric.decode_object(msg.payload)

    # -- point-to-point: buffer path --------------------------------------------

    def Send(self, buf: np.ndarray, dest: int, tag: int = 0) -> None:
        """Send a numpy array without pickling (zero-copy fast path)."""
        arr = np.ascontiguousarray(buf)
        payload, nbytes = self._fabric.encode_buffer(arr)
        self._deliver(dest, Message(self.rank, tag, payload, nbytes, is_buffer=True),
                      serialized=False)

    def Recv(self, buf: np.ndarray, source: int, tag: int = 0) -> np.ndarray:
        """Receive into a preallocated numpy array; returns the filled view."""
        msg = self._collect(source, tag, serialized=False)
        if not msg.is_buffer:
            raise MPIError("Recv matched a pickled message; use recv() instead")
        incoming = self._fabric.decode_buffer(msg.payload)
        if buf.size < incoming.size:
            raise MPIError(
                f"receive buffer too small: {buf.size} elements < {incoming.size} incoming"
            )
        flat = buf.reshape(-1)
        flat[: incoming.size] = incoming.reshape(-1)
        return buf

    # -- collectives: object path -------------------------------------------------

    def bcast(self, obj: Any) -> Any:
        """Binomial-tree broadcast from rank 0."""
        size = self.size
        if size == 1:
            return obj
        mask = 1
        # receive from parent (non-root ranks)
        while mask < size:
            if self.rank & mask:
                obj = self.recv(source=self.rank ^ mask, tag=_TAG_BCAST)
                break
            mask <<= 1
        else:
            # root: start forwarding from the top of the tree
            mask = 1
            while mask < size:
                mask <<= 1
        # forward to children below our level
        mask >>= 1
        while mask > 0:
            if self.rank + mask < size and not (self.rank & mask):
                self.send(obj, dest=self.rank + mask, tag=_TAG_BCAST)
            mask >>= 1
        return obj

    def reduce(self, obj: Any, op: ReduceOp) -> Any:
        """Binomial-tree reduction to rank 0; combines in rank order."""
        size = self.size
        result = obj
        if size == 1:
            return result
        mask = 1
        while mask < size:
            if self.rank & mask == 0:
                peer = self.rank | mask
                if peer < size:
                    other = self.recv(source=peer, tag=_TAG_REDUCE)
                    result = op(result, other)
            else:
                self.send(result, dest=self.rank ^ mask, tag=_TAG_REDUCE)
                return None
            mask <<= 1
        return result

    def allreduce(self, obj: Any, op: ReduceOp) -> Any:
        """Reduce to rank 0 then broadcast the result."""
        return self.bcast(self.reduce(obj, op))

    def gather(self, obj: Any) -> Optional[list[Any]]:
        """Collect one object per rank at rank 0 (rank order)."""
        if self.rank == 0:
            out: list[Any] = [obj]
            for src in range(1, self.size):
                out.append(self.recv(source=src, tag=_TAG_GATHER))
            return out
        self.send(obj, dest=0, tag=_TAG_GATHER)
        return None

    def allgather(self, obj: Any) -> list[Any]:
        """Gather to rank 0, broadcast the full list."""
        return self.bcast(self.gather(obj))

    def alltoall(self, objs: Sequence[Any]) -> list[Any]:
        """Pairwise exchange: rank ``i`` receives ``objs[i]`` from every rank."""
        size = self.size
        if len(objs) != size:
            raise MPIError(f"alltoall needs exactly {size} elements, got {len(objs)}")
        result: list[Any] = [None] * size
        result[self.rank] = objs[self.rank]
        for shift in range(1, size):
            dest = (self.rank + shift) % size
            src = (self.rank - shift) % size
            self.send(objs[dest], dest=dest, tag=_TAG_ALLTOALL)
            result[src] = self.recv(source=src, tag=_TAG_ALLTOALL)
        return result

    def scan(self, obj: Any, op: ReduceOp) -> Any:
        """Inclusive prefix reduction along the rank chain."""
        result = obj
        if self.rank > 0:
            prefix = self.recv(source=self.rank - 1, tag=_TAG_SCAN)
            result = op(prefix, obj)
        if self.rank + 1 < self.size:
            self.send(result, dest=self.rank + 1, tag=_TAG_SCAN)
        return result

    def exscan(self, obj: Any, op: ReduceOp, identity: Any) -> Any:
        """Exclusive prefix reduction; rank 0 receives ``identity``."""
        inclusive = self.scan(obj, op)
        # shift the inclusive result right by one rank
        if self.rank + 1 < self.size:
            self.send(inclusive, dest=self.rank + 1, tag=_TAG_SCAN)
        if self.rank == 0:
            return identity
        return self.recv(source=self.rank - 1, tag=_TAG_SCAN)

    # -- collectives: buffer path ---------------------------------------------

    def Alltoallv(
        self, sendbuf: np.ndarray, sendcounts: Sequence[int]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Variable all-to-all of a contiguous numpy buffer.

        ``sendbuf`` is split into ``size`` consecutive chunks of
        ``sendcounts[i]`` elements, chunk ``i`` going to rank ``i``.
        Returns ``(recvbuf, recvcounts)`` with chunks concatenated in rank
        order (the buffer form of MPI's ``MPI_Alltoallv``).
        """
        size = self.size
        sendcounts = np.asarray(sendcounts, dtype=np.int64)
        if sendcounts.shape != (size,):
            raise MPIError(f"sendcounts must have {size} entries")
        if sendcounts.sum() != len(sendbuf):
            raise MPIError(
                f"sendcounts sum to {int(sendcounts.sum())} but sendbuf has {len(sendbuf)} elements"
            )
        offsets = np.concatenate(([0], np.cumsum(sendcounts)))
        chunks: list[Optional[np.ndarray]] = [None] * size
        chunks[self.rank] = sendbuf[offsets[self.rank] : offsets[self.rank + 1]]
        for shift in range(1, size):
            dest = (self.rank + shift) % size
            src = (self.rank - shift) % size
            self.Send(sendbuf[offsets[dest] : offsets[dest + 1]], dest=dest, tag=_TAG_BUFFER)
            msg = self._collect(src, _TAG_BUFFER, serialized=False)
            chunks[src] = self._fabric.decode_buffer(msg.payload)
        recvcounts = np.array([len(c) for c in chunks], dtype=np.int64)
        recvbuf = (
            np.concatenate(chunks) if recvcounts.sum() > 0 else sendbuf[:0].copy()
        )
        return recvbuf, recvcounts

    def Bcast(self, buf: np.ndarray) -> np.ndarray:
        """Binomial-tree broadcast of a numpy buffer from rank 0 (in place)."""
        size = self.size
        if size == 1:
            return buf
        mask = 1
        while mask < size:
            if self.rank & mask:
                self.Recv(buf, source=self.rank ^ mask, tag=_TAG_BCAST)
                break
            mask <<= 1
        else:
            while mask < size:
                mask <<= 1
        mask >>= 1
        while mask > 0:
            if self.rank + mask < size and not (self.rank & mask):
                self.Send(buf, dest=self.rank + mask, tag=_TAG_BCAST)
            mask >>= 1
        return buf

    def Reduce(self, buf: np.ndarray, op: ReduceOp) -> Optional[np.ndarray]:
        """Binomial-tree elementwise reduction of numpy buffers to rank 0."""
        size = self.size
        result = np.array(buf, copy=True)
        if size == 1:
            return result
        scratch = np.empty_like(result)
        mask = 1
        while mask < size:
            if self.rank & mask == 0:
                peer = self.rank | mask
                if peer < size:
                    self.Recv(scratch, source=peer, tag=_TAG_REDUCE)
                    result = op(result, scratch)
            else:
                self.Send(result, dest=self.rank ^ mask, tag=_TAG_REDUCE)
                return None
            mask <<= 1
        return result

    def Allreduce(self, buf: np.ndarray, op: ReduceOp) -> np.ndarray:
        """Buffer reduce-to-root plus broadcast."""
        reduced = self.Reduce(buf, op)
        out = reduced if self.rank == 0 else np.empty_like(np.asarray(buf))
        return self.Bcast(out)

    def Allgatherv(self, sendbuf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Gather variable-length numpy buffers from all ranks to all ranks.

        Returns ``(recvbuf, counts)`` with rank ``i``'s data at offset
        ``sum(counts[:i])``.
        """
        sendbuf = np.ascontiguousarray(sendbuf)
        counts = np.array(self.allgather(len(sendbuf)), dtype=np.int64)
        chunks: list[Optional[np.ndarray]] = [None] * self.size
        chunks[self.rank] = sendbuf
        for shift in range(1, self.size):
            dest = (self.rank + shift) % self.size
            src = (self.rank - shift) % self.size
            self.Send(sendbuf, dest=dest, tag=_TAG_BUFFER)
            msg = self._collect(src, _TAG_BUFFER, serialized=False)
            chunks[src] = self._fabric.decode_buffer(msg.payload)
        return np.concatenate(chunks), counts

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Communicator(rank={self.rank}, size={self.size})"

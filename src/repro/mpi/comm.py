"""The communicator: point-to-point and collective operations.

API mirrors the mpi4py subset the rest of the repo uses.  Lowercase methods
communicate arbitrary pickled Python objects; capitalized methods move numpy
buffers without pickling (the "fast path" of the mpi4py tutorial).

Collectives use real distributed algorithms — binomial trees for
``bcast``/``reduce``, a dissemination ``barrier``, pairwise exchange for
``alltoall`` — so virtual-time accounting inherits their log-p / (p-1)-step
structure.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

import numpy as np

from repro.cluster.clock import VirtualClock
from repro.cluster.model import ClusterModel
from repro.errors import MPIError
from repro.mpi.constants import ANY_SOURCE, ANY_TAG, PROC_NULL, UNDEFINED
from repro.mpi.fabric import Fabric, Message
from repro.mpi.reduce_ops import ReduceOp
from repro.mpi.request import RecvRequest, Request, SendRequest
from repro.mpi.status import Status

# Reserved internal tags; user tags must be >= 0.
_TAG_BCAST = -10
_TAG_REDUCE = -11
_TAG_SCATTER = -12
_TAG_GATHER = -13
_TAG_ALLTOALL = -14
_TAG_BARRIER = -15
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
    cluster:
        Optional :class:`~repro.cluster.ClusterModel`; when given, every
        message advances per-rank virtual clocks.
    clock:
        This rank's :class:`~repro.cluster.VirtualClock` (created when omitted).
    rank_map:
        Communicator-rank -> world-rank mapping used for network cost lookups
        on sub-communicators produced by :meth:`split`.
    injector:
        Optional :class:`~repro.fault.injector.FaultInjector`; when given,
        compute charging honours straggler slowdowns and the runtimes'
        per-job :meth:`check_fault` calls can fire scheduled rank crashes.
    """

    def __init__(
        self,
        rank: int,
        fabric: Fabric,
        cluster: Optional[ClusterModel] = None,
        clock: Optional[VirtualClock] = None,
        rank_map: Optional[Sequence[int]] = None,
        injector: Optional[Any] = None,
    ) -> None:
        if not (0 <= rank < fabric.size):
            raise MPIError(f"rank {rank} out of range for size {fabric.size}")
        self.rank = rank
        self._fabric = fabric
        self.cluster = cluster
        self.clock = clock if clock is not None else VirtualClock()
        self._rank_map = list(rank_map) if rank_map is not None else list(range(fabric.size))
        self._coord_seq = 0
        self.injector = injector
        #: optional :class:`~repro.obs.span.Recorder` observing this rank's
        #: charge points (compute seconds, shuffle bytes, idle at barriers);
        #: ``None`` keeps every hook a single attribute test
        self.recorder: Optional[Any] = None

    # -- introspection -------------------------------------------------------

    @property
    def size(self) -> int:
        """Number of ranks in this communicator."""
        return self._fabric.size

    def Get_rank(self) -> int:
        return self.rank

    def Get_size(self) -> int:
        return self.size

    @property
    def stats(self):
        """Aggregate traffic counters shared by all ranks of this communicator."""
        return self._fabric.stats

    def world_rank(self, rank: Optional[int] = None) -> int:
        """World rank backing communicator rank ``rank`` (default: self)."""
        return self._rank_map[self.rank if rank is None else rank]

    # -- virtual-time charging -------------------------------------------------

    def charge_compute(self, seconds: float) -> None:
        """Advance this rank's clock by a local compute phase.

        Under fault injection a straggler rank's compute is stretched by its
        scheduled slowdown factor.
        """
        if self.injector is not None:
            seconds = self.injector.scale_compute(self.world_rank(), seconds)
        if self.recorder is not None and seconds > 0.0:
            self.recorder.count("compute.virtual_s", seconds, rank=self.world_rank())
        self.clock.advance(seconds)

    # -- fault-injection hook ---------------------------------------------------

    def check_fault(self, job_index: int, when: str) -> None:
        """Fire any crash fault scheduled for this rank at a job boundary.

        Called by the runtimes ``before`` and ``after`` each planned job;
        raises :class:`~repro.errors.InjectedFault` when the attached
        injector has a matching crash scheduled.  No-op without an injector.
        """
        if self.injector is not None:
            self.injector.check_crash(self.world_rank(), job_index, when)

    def _charge_send(self, nbytes: int, serialized: bool) -> float:
        """Advance the sender clock for send-side overhead; return send timestamp."""
        if self.recorder is not None:
            self.recorder.count("comm.sent_bytes", nbytes, rank=self.world_rank())
            self.recorder.count("comm.sent_messages", 1, rank=self.world_rank())
        if self.cluster is not None and serialized:
            self.clock.advance(self.cluster.cost.pack(nbytes))
        return self.clock.now

    def _charge_recv(self, msg: Message, serialized: bool) -> None:
        """Merge arrival time into the receiver clock.

        When a recorder is attached, the forward clock jump of the Lamport
        merge — how long this rank would have sat blocked waiting for the
        message — is charged to the ``idle.barrier_s`` or ``idle.recv_s``
        counter, which is where the timeline's "% idle at barriers" comes
        from.
        """
        if self.cluster is None:
            return
        src_world = self._rank_map[msg.source]
        dst_world = self._rank_map[self.rank]
        arrival = msg.timestamp + self.cluster.transfer_time(msg.nbytes, src_world, dst_world)
        if self.recorder is not None:
            wait = arrival - self.clock.now
            if wait > 0.0:
                kind = "idle.barrier_s" if msg.tag == _TAG_BARRIER else "idle.recv_s"
                self.recorder.count(kind, wait, rank=self.world_rank())
            self.recorder.count("comm.recv_bytes", msg.nbytes, rank=self.world_rank())
        self.clock.merge(arrival)
        if serialized:
            self.clock.advance(self.cluster.cost.pack(msg.nbytes))

    # -- point-to-point: object path ------------------------------------------

    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Send a pickled Python object (eager: never blocks)."""
        if dest == PROC_NULL:
            return
        payload, nbytes = self._fabric.encode_object(obj)
        ts = self._charge_send(nbytes, serialized=True)
        self._fabric.deliver(
            dest,
            Message(source=self.rank, tag=tag, payload=payload, nbytes=nbytes, timestamp=ts),
        )

    def recv(
        self,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        status: Optional[Status] = None,
    ) -> Any:
        """Receive one pickled Python object (blocking)."""
        if source == PROC_NULL:
            return None
        msg = self._fabric.collect(self.rank, source, tag)
        self._charge_recv(msg, serialized=True)
        if status is not None:
            status.source, status.tag, status.count = msg.source, msg.tag, msg.nbytes
        return self._fabric.decode_object(msg.payload)

    def isend(self, obj: Any, dest: int, tag: int = 0) -> Request:
        """Non-blocking send (eager, completes immediately)."""
        self.send(obj, dest=dest, tag=tag)
        return SendRequest()

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        """Non-blocking receive; match happens on ``wait()``/``test()``."""
        return RecvRequest(self, source, tag)

    def probe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> bool:
        """True when a matching message is already available."""
        return self._fabric.probe(self.rank, source, tag) is not None

    def sendrecv(self, obj: Any, dest: int, source: int = ANY_SOURCE, tag: int = 0) -> Any:
        """Combined send+receive (safe: sends are eager)."""
        self.send(obj, dest=dest, tag=tag)
        return self.recv(source=source, tag=tag)

    # -- point-to-point: buffer path --------------------------------------------

    def Send(self, buf: np.ndarray, dest: int, tag: int = 0) -> None:
        """Send a numpy array without pickling (zero-copy fast path)."""
        if dest == PROC_NULL:
            return
        arr = np.ascontiguousarray(buf)
        payload, nbytes = self._fabric.encode_buffer(arr)
        ts = self._charge_send(nbytes, serialized=False)
        self._fabric.deliver(
            dest,
            Message(
                source=self.rank,
                tag=tag,
                payload=payload,
                nbytes=nbytes,
                timestamp=ts,
                is_buffer=True,
            ),
        )

    def Recv(
        self,
        buf: np.ndarray,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        status: Optional[Status] = None,
    ) -> np.ndarray:
        """Receive into a preallocated numpy array; returns the filled view."""
        msg = self._fabric.collect(self.rank, source, tag)
        if not msg.is_buffer:
            raise MPIError("Recv matched a pickled message; use recv() instead")
        self._charge_recv(msg, serialized=False)
        incoming = self._fabric.decode_buffer(msg.payload)
        if buf.size < incoming.size:
            raise MPIError(
                f"receive buffer too small: {buf.size} elements < {incoming.size} incoming"
            )
        flat = buf.reshape(-1)
        flat[: incoming.size] = incoming.reshape(-1)
        if status is not None:
            status.source, status.tag, status.count = msg.source, msg.tag, msg.nbytes
        return buf

    # -- collectives: object path -------------------------------------------------

    def barrier(self) -> None:
        """Dissemination barrier: ceil(log2 p) rounds of token exchange."""
        size = self.size
        if size == 1:
            return
        shift = 1
        while shift < size:
            dest = (self.rank + shift) % size
            src = (self.rank - shift) % size
            self.send(None, dest=dest, tag=_TAG_BARRIER)
            self.recv(source=src, tag=_TAG_BARRIER)
            shift <<= 1

    def bcast(self, obj: Any, root: int = 0) -> Any:
        """Binomial-tree broadcast from ``root``."""
        size = self.size
        if size == 1:
            return obj
        vrank = (self.rank - root) % size
        mask = 1
        # receive from parent (non-root ranks)
        while mask < size:
            if vrank & mask:
                parent = ((vrank ^ mask) + root) % size
                obj = self.recv(source=parent, tag=_TAG_BCAST)
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
            if vrank + mask < size and not (vrank & mask):
                child = ((vrank + mask) + root) % size
                self.send(obj, dest=child, tag=_TAG_BCAST)
            mask >>= 1
        return obj

    def reduce(self, obj: Any, op: ReduceOp, root: int = 0) -> Any:
        """Binomial-tree reduction to ``root``; combines in rank order."""
        size = self.size
        result = obj
        if size == 1:
            return result
        vrank = (self.rank - root) % size
        mask = 1
        while mask < size:
            if vrank & mask == 0:
                peer_v = vrank | mask
                if peer_v < size:
                    peer = (peer_v + root) % size
                    other = self.recv(source=peer, tag=_TAG_REDUCE)
                    result = op(result, other)
            else:
                parent = ((vrank ^ mask) + root) % size
                self.send(result, dest=parent, tag=_TAG_REDUCE)
                return None
            mask <<= 1
        return result if self.rank == root else None

    def allreduce(self, obj: Any, op: ReduceOp) -> Any:
        """Reduce to rank 0 then broadcast the result."""
        return self.bcast(self.reduce(obj, op, root=0), root=0)

    def scatter(self, objs: Optional[Sequence[Any]], root: int = 0) -> Any:
        """Root sends ``objs[i]`` to rank ``i``; returns the local element."""
        if self.rank == root:
            if objs is None or len(objs) != self.size:
                raise MPIError(
                    f"scatter at root needs exactly {self.size} elements, "
                    f"got {None if objs is None else len(objs)}"
                )
            mine = objs[root]
            for dest in range(self.size):
                if dest != root:
                    self.send(objs[dest], dest=dest, tag=_TAG_SCATTER)
            return mine
        return self.recv(source=root, tag=_TAG_SCATTER)

    def gather(self, obj: Any, root: int = 0) -> Optional[list[Any]]:
        """Collect one object per rank at ``root`` (rank order)."""
        if self.rank == root:
            out: list[Any] = [None] * self.size
            out[root] = obj
            for src in range(self.size):
                if src != root:
                    out[src] = self.recv(source=src, tag=_TAG_GATHER)
            return out
        self.send(obj, dest=root, tag=_TAG_GATHER)
        return None

    def allgather(self, obj: Any) -> list[Any]:
        """Gather to rank 0, broadcast the full list."""
        return self.bcast(self.gather(obj, root=0), root=0)

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
            msg = self._fabric.collect(self.rank, src, _TAG_BUFFER)
            self._charge_recv(msg, serialized=False)
            chunks[src] = self._fabric.decode_buffer(msg.payload)
        recvcounts = np.array([len(c) for c in chunks], dtype=np.int64)
        recvbuf = (
            np.concatenate(chunks) if recvcounts.sum() > 0 else sendbuf[:0].copy()
        )
        return recvbuf, recvcounts

    def Bcast(self, buf: np.ndarray, root: int = 0) -> np.ndarray:
        """Binomial-tree broadcast of a numpy buffer (in place, fast path)."""
        size = self.size
        if size == 1:
            return buf
        vrank = (self.rank - root) % size
        mask = 1
        while mask < size:
            if vrank & mask:
                parent = ((vrank ^ mask) + root) % size
                self.Recv(buf, source=parent, tag=_TAG_BCAST)
                break
            mask <<= 1
        else:
            while mask < size:
                mask <<= 1
        mask >>= 1
        while mask > 0:
            if vrank + mask < size and not (vrank & mask):
                child = ((vrank + mask) + root) % size
                self.Send(buf, dest=child, tag=_TAG_BCAST)
            mask >>= 1
        return buf

    def Reduce(
        self, buf: np.ndarray, op: ReduceOp, root: int = 0
    ) -> Optional[np.ndarray]:
        """Binomial-tree elementwise reduction of numpy buffers."""
        size = self.size
        result = np.array(buf, copy=True)
        if size == 1:
            return result
        vrank = (self.rank - root) % size
        scratch = np.empty_like(result)
        mask = 1
        while mask < size:
            if vrank & mask == 0:
                peer_v = vrank | mask
                if peer_v < size:
                    peer = (peer_v + root) % size
                    self.Recv(scratch, source=peer, tag=_TAG_REDUCE)
                    result = op(result, scratch)
            else:
                parent = ((vrank ^ mask) + root) % size
                self.Send(result, dest=parent, tag=_TAG_REDUCE)
                return None
            mask <<= 1
        return result if self.rank == root else None

    def Allreduce(self, buf: np.ndarray, op: ReduceOp) -> np.ndarray:
        """Buffer reduce-to-root plus broadcast."""
        reduced = self.Reduce(buf, op, root=0)
        out = reduced if self.rank == 0 else np.empty_like(np.asarray(buf))
        return self.Bcast(out, root=0)

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
            msg = self._fabric.collect(self.rank, src, _TAG_BUFFER)
            self._charge_recv(msg, serialized=False)
            chunks[src] = self._fabric.decode_buffer(msg.payload)
        return np.concatenate(chunks), counts

    # -- communicator management ---------------------------------------------

    def split(self, color: int, key: Optional[int] = None) -> Optional["Communicator"]:
        """Partition the communicator by ``color``; order new ranks by ``key``.

        Ranks passing :data:`~repro.mpi.constants.UNDEFINED` get ``None``.
        """
        if key is None:
            key = self.rank
        self._coord_seq += 1
        seq = ("split", self._coord_seq)
        values = self._fabric.coordinate(seq, self.rank, (color, key), self.size)
        if color == UNDEFINED:
            # still participate in the fabric-exchange round below
            members: list[int] = []
        else:
            members = sorted(
                (r for r, (c, _k) in values.items() if c == color),
                key=lambda r: (values[r][1], r),
            )
        # leaders (lowest world rank per color) create the group fabric
        deposit = None
        if members and members[0] == self.rank:
            # the group fabric inherits the deadlock grace but not the fault
            # injector: message-fault links are defined in world-rank space
            deposit = (color, Fabric(len(members), deadlock_grace=self._fabric.deadlock_grace))
        self._coord_seq += 1
        fabrics = self._fabric.coordinate(("split-fab", self._coord_seq), self.rank, deposit, self.size)
        if color == UNDEFINED:
            return None
        group_fabric = next(f for d in fabrics.values() if d is not None for c, f in [d] if c == color)
        new_rank = members.index(self.rank)
        sub = Communicator(
            new_rank,
            group_fabric,
            cluster=self.cluster,
            clock=self.clock,
            rank_map=[self._rank_map[r] for r in members],
            injector=self.injector,
        )
        sub.recorder = self.recorder
        return sub

    def dup(self) -> "Communicator":
        """Duplicate the communicator (fresh fabric, same membership order)."""
        new = self.split(color=0, key=self.rank)
        assert new is not None
        return new

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Communicator(rank={self.rank}, size={self.size})"

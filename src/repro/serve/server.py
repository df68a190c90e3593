"""The long-lived partition daemon: asyncio server, rebalance, snapshots.

One event loop owns everything mutable; that single-threaded discipline is
what makes the atomic-swap contract cheap:

* the transport reads each connection's bytes into that connection's own
  buffer, and the next request — a JSON line, or a binary append frame
  told apart by its first byte — starts once a whole one is there and the
  previous one is answered: one request at a time per connection, no task
  per request;
* an ``append``, whichever encoding carried it, is one record array from
  there on.  Once nothing can refuse it (frame checks, the schema,
  draining, ``--max-pending``) it goes into the log — the ground truth every
  rebuild reads — and is **acknowledged**; the rest runs behind the ack:
  coalesced passes fold the appends' stamps into the recorder and route
  every batch acknowledged since the last in one vectorized pass.  Readers
  take the generation through :meth:`PartitionServer._generation`, which
  runs the pending pass first: no request observes an acknowledged record
  that is not dealt;
* the balance monitor runs after each pass; past the threshold it
  schedules a background rebuild (``PaPar.run`` over the frozen log, any
  backend, in an executor thread) whose result is swapped in *on the loop*
  together with the re-routed tail — no request ever observes a torn
  generation;
* ``snapshot`` freezes the state loop-side and publishes it through
  :class:`~repro.serve.snapshot.SnapshotStore` in the executor;
* SIGTERM/SIGINT (via :func:`repro.lifecycle.install_async_shutdown`) and
  the ``drain`` verb share one path: stop admitting, deal what is pending,
  finish any rebalance, flush a final snapshot, exit 0.

Metrics flow through :mod:`repro.obs`: per-request spans (a bounded
window), ``serve.*`` counters/histograms, and the ``papar.serve`` v1 document
(:func:`repro.obs.export.serve_metrics_json`).
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Any, Awaitable, Callable, Optional, Union

import numpy as np

from repro.config.workflow import WorkflowSpec
from repro.core.dataset import Dataset
from repro.core.planner import WorkflowPlan
from repro.lifecycle import install_async_shutdown
from repro.obs.adapters import record_rebalance, record_serve_request
from repro.obs.export import serve_metrics_json
from repro.obs.span import SERVICE_WINDOW, Recorder
from repro.ooc.runfile import FRAME
from repro.serve import protocol
from repro.serve.balance import DEFAULT_THRESHOLD, BalanceMonitor
from repro.serve.router import IncrementalRouter, KeySample, build_router, sample_log
from repro.serve.snapshot import DEFAULT_RETAIN, SnapshotStore, snapshot_id
from repro.serve.state import BatchLog, PartitionGeneration, ServeError, ServeState


@dataclass
class ServeConfig:
    """Daemon configuration (the ``python -m repro serve`` flags)."""

    host: str = "127.0.0.1"
    #: 0 lets the OS pick a free port (reported by :meth:`PartitionServer.start`)
    port: int = 0
    #: skew/drift ratio past which an online repartition is scheduled
    rebalance_threshold: float = DEFAULT_THRESHOLD
    #: acknowledged-but-undealt appends past which the next is rejected with
    #: code 429; a pass is scheduled at a quarter of it
    max_pending: int = 64
    #: directory for versioned snapshots (None disables snapshot/warm restart)
    snapshot_dir: Optional[str] = None
    #: backend for warm start and background rebuilds
    backend: str = "serial"
    num_ranks: int = 1
    #: override of the input format id (defaults to the workflow's input arg)
    schema_id: Optional[str] = None
    #: how many published snapshot generations to retain
    retain: int = DEFAULT_RETAIN


#: bytes a connection's receive buffer starts with, and returns to once a
#: larger request is consumed
RECV_BUFFER = 64 * 1024
#: the least free room one socket read is offered: short of it, the bytes
#: still held move to the front of the buffer (or into a larger one)
MIN_READ = 4096
_MARKER = protocol.FRAME_MARKER[0]


class _Connection(asyncio.BufferedProtocol):
    """One client socket: bytes in, one request at a time, one line out each.

    The transport reads straight into the connection's own buffer
    (:meth:`get_buffer`): the bytes received and not yet consumed are
    ``store[start:end]``.  A request is checked where it lies and consumed
    by moving ``start`` — no ``bytes`` per read, no shift per request; once
    every byte is consumed the next read lands at 0 again, and only a read
    short of room moves the bytes still held (:meth:`_make_room`).
    :meth:`_pump` starts the next request when a whole one is there, the
    previous one is answered and the peer is taking answers, and stops
    reading the socket while a whole one waits: a peer that never reads or
    pipelines ahead costs a buffer, no more.
    """

    def __init__(self, server: "PartitionServer") -> None:
        self.server = server
        self.transport: Any = None
        self.store = bytearray(RECV_BUFFER)
        self.start = self.end = 0
        #: how much of the held bytes is known to hold no newline
        self.scanned = 0
        #: the next whole request: a line cut off the buffer, or the size
        #: of the frame at ``start``, waiting its turn
        self.ready: Any = None
        #: the ``snapshot`` / ``drain`` being answered; other verbs answer at once
        self.task: Optional[asyncio.Task] = None
        self.eof = False
        self.writable = True
        self.reading = True

    @property
    def buf(self) -> memoryview:
        """The bytes received and not yet consumed."""
        return memoryview(self.store)[self.start : self.end]

    def connection_made(self, transport: Any) -> None:
        self.transport = transport
        self.server._connections.add(self)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.server._connections.discard(self)

    def get_buffer(self, sizehint: int) -> memoryview:
        """The free room past the held bytes, ``MIN_READ`` (or ``sizehint``)
        bytes at least, for the transport to read into."""
        need = max(sizehint, MIN_READ)
        if len(self.store) - self.end < need:
            self._make_room(need)
        return memoryview(self.store)[self.end :]

    def _make_room(self, need: int) -> None:
        """Move the held bytes to the front — into a larger buffer if they
        and ``need`` more do not fit (views of the old one stay valid)."""
        held = self.end - self.start
        store = self.store
        if held + need > len(store):
            store = bytearray(max(2 * len(store), held + need))
        store[:held] = self.store[self.start : self.end]
        self.store, self.start, self.end = store, 0, held

    def buffer_updated(self, nbytes: int) -> None:
        self.end += nbytes
        self._pump()

    def data_received(self, data: bytes) -> None:
        """Bytes handed over rather than read into :meth:`get_buffer`."""
        nbytes = len(data)
        self.get_buffer(nbytes)[:nbytes] = data
        self.buffer_updated(nbytes)

    def eof_received(self) -> bool:
        self.eof = True
        self._pump()
        return True  # keep the write side open: an answer may still be owed

    def pause_writing(self) -> None:
        self.writable = False

    def resume_writing(self) -> None:
        self.writable = True
        self._pump()

    def _consume(self, nbytes: int) -> None:
        self.start += nbytes
        self.scanned = 0
        if self.start == self.end:
            self.start = self.end = 0
            if len(self.store) > RECV_BUFFER:
                self.store = bytearray(RECV_BUFFER)

    def _take(self) -> Any:
        """The next whole request; None until one is there.

        A line is ``bytes``, cut off the buffer (empty once the peer has
        closed); a frame is the ``int`` size of the one at ``start`` — it
        stays on the buffer, where its checks run and its records are
        copied from, until it is answered — and a stream that cannot be
        resynchronised — an oversize line, a frame cut short or over the
        cap (refused from its header, before the payload arrives) — is the
        ``400`` to hang up on.
        """
        store, start, end = self.store, self.start, self.end
        if start < end and store[start] == _MARKER:
            body = 1 + FRAME.size
            if end - start >= body:
                try:
                    size = body + protocol.frame_payload_size(
                        memoryview(store)[start + 1 : start + body]
                    )
                except protocol.ProtocolError as exc:
                    return self.server._refuse_append(protocol.BAD_REQUEST, str(exc))
                if end - start >= size:
                    return size
            if self.eof:
                return self.server._refuse_append(protocol.BAD_REQUEST, "truncated frame")
            return None
        newline = store.find(b"\n", start + self.scanned, end)
        size = newline + 1 - start if newline >= 0 else end - start if self.eof else 0
        if (size or end - start) > protocol.MAX_LINE:
            return protocol.error(
                protocol.BAD_REQUEST, f"request line exceeds {protocol.MAX_LINE} bytes"
            )
        if not size and not self.eof:
            self.scanned = end - start
            return None
        line = bytes(memoryview(store)[start : start + size])
        self._consume(size)
        return line

    def _pump(self) -> None:
        """Answer buffered requests, in order, for as long as nothing blocks.

        An accepted append's ack is written before the server does what
        the ack does not wait for (:meth:`PartitionServer._after_reply`).
        """
        server = self.server
        while not self.transport.is_closing():
            if self.ready is None:
                self.ready = self._take()
            blocked = self.task is not None or not self.writable
            hold = blocked and self.ready is not None
            if hold == self.reading:
                # a whole request waits behind one in flight: leave the rest
                # in the socket, where it pushes back on the sender
                (self.transport.pause_reading if hold else self.transport.resume_reading)()
                self.reading = not hold
            if blocked or self.ready is None:
                return
            request, self.ready = self.ready, None
            if isinstance(request, dict):  # out of sync: answer, then hang up
                self._reply(request)
                self.transport.close()
            elif isinstance(request, int):
                self._reply(server._append_frame(
                    memoryview(self.store)[self.start : self.start + request]
                ))
                self._consume(request)
                server._after_reply()
            elif not request.strip():  # EOF or a blank line ends the session
                self.transport.close()
            else:
                response = server._request(request)
                if isinstance(response, dict):
                    self._reply(response)
                    server._after_reply()
                else:
                    self.task = asyncio.get_running_loop().create_task(
                        self._reply_later(response)
                    )

    def _reply(self, response: Union[bytes, dict[str, Any]]) -> None:
        self.transport.write(
            response if isinstance(response, bytes) else protocol.encode_response(response)
        )

    async def _reply_later(self, answer: Awaitable[dict[str, Any]]) -> None:
        """``snapshot`` / ``drain``: the answer waits on the executor or a rebuild."""
        try:
            response = await answer
        except BaseException:
            self.transport.close()  # no answer to give: do not leave the peer waiting
            raise
        self._reply(response)
        if response.get("op") == "drain" and response.get("ok"):
            # the client has its answer on the wire; now tear down
            await self.server._finalize()
        self.task = None
        self._pump()


class PartitionServer:
    """Holds partitions hot and serves the protocol of :mod:`repro.serve.protocol`."""

    def __init__(
        self,
        papar: Any,
        workflow: Union[WorkflowSpec, WorkflowPlan, str],
        args: dict[str, Any],
        config: Optional[ServeConfig] = None,
        recorder: Optional[Recorder] = None,
    ) -> None:
        self.papar = papar
        if isinstance(workflow, str):
            workflow = papar.load_workflow(workflow)
        self.args = dict(args)
        # the warm start and every rebuild run this one plan
        self.plan = (
            workflow if isinstance(workflow, WorkflowPlan)
            else papar.plan(workflow, self.args)
        )
        self.spec = self.plan.spec
        self.config = config or ServeConfig()
        self.recorder = recorder or Recorder(window=SERVICE_WINDOW)
        self.monitor = BalanceMonitor(self.config.rebalance_threshold)
        self.snapshots: Optional[SnapshotStore] = (
            SnapshotStore(self.config.snapshot_dir, retain=self.config.retain)
            if self.config.snapshot_dir
            else None
        )
        self.state = ServeState()
        self.input_schema = papar.schema(
            self.config.schema_id or self._declared_schema_id()
        )
        #: the dtype every append is decoded into (None: a ``string`` schema)
        self._dtype = protocol.wire_dtype(self.input_schema)
        self.router: Optional[IncrementalRouter] = None
        #: ``(t0, t1, encoding, records)`` of each append acknowledged since
        #: the last pass, which folds them into the recorder
        self._stamps: list[tuple[float, float, str, int]] = []
        #: an append was acknowledged and :meth:`_after_reply` has not run since
        self._admitted = False
        #: True once the daemon restored from a snapshot instead of the input
        self.restored = False
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: set[_Connection] = set()
        self._rebalance_task: Optional[asyncio.Task] = None
        self._stopped: Optional[asyncio.Event] = None
        self._remove_signals = lambda: None
        self._draining = False
        self._drained = False
        self.rebalance_events: list[dict[str, Any]] = []

    def _declared_schema_id(self) -> str:
        from repro.core.files import find_io_arguments

        input_arg, _ = find_io_arguments(self.spec)
        fmt = self.spec.arguments[input_arg].format
        if not fmt:
            raise ServeError(
                f"argument {input_arg!r} declares no input format; pass schema_id"
            )
        return fmt

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> tuple[str, int]:
        """Warm-start (or snapshot-restore) the state and open the socket."""
        loop = asyncio.get_running_loop()
        self._stopped = asyncio.Event()
        await loop.run_in_executor(None, self._load_initial_state)
        self._server = await loop.create_server(
            lambda: _Connection(self), host=self.config.host, port=self.config.port
        )
        self._remove_signals = install_async_shutdown(
            loop, lambda signum: loop.create_task(self._drain_and_stop())
        )
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        self.recorder.instant(
            f"serve start on {host}:{port}", category="serve",
            attrs={"restored": self.restored},
        )
        return host, port

    def _load_initial_state(self) -> None:
        """Build the initial generation: snapshot restore, else cold run."""
        if self.snapshots is not None:
            restored = self.snapshots.load_latest()
            if restored is not None:
                self.state, _meta = restored
                self.router = build_router(
                    self.plan, self.input_schema, self.state.log,
                    self.state.log_records,
                )
                self.state.current.track(self.router.key_field)
                self.restored = True
                return
        _spec, _schema, data, result = self.papar.warm_start(
            self.plan,
            self.args,
            backend=self.config.backend,
            num_ranks=self.config.num_ranks,
            schema_id=self.config.schema_id,
        )
        self.state.append_log(np.asarray(data.to_flat().records))
        self.router = build_router(
            self.plan, self.input_schema, self.state.log, self.state.log_records
        )
        self.state.current = PartitionGeneration.from_partitions(
            0,
            [np.asarray(p.to_flat().records) for p in result.partitions],
            self.state.log_records,
            self.router.key_field,
        )

    async def serve_forever(self) -> None:
        """Block until a drain (verb or signal) completes."""
        assert self._stopped is not None
        await self._stopped.wait()

    async def _drain_and_stop(self) -> None:
        """Graceful shutdown (the signal path): quiesce, then tear down."""
        await self._quiesce()
        await self._finalize()

    async def _quiesce(self) -> None:
        """Reject new appends, deal the pending ones, finish rebalance, flush."""
        if self._drained:
            return
        self._draining = True
        self._process_appends()
        if self._rebalance_task is not None:
            await asyncio.gather(self._rebalance_task, return_exceptions=True)
        if self.snapshots is not None and self.state.current is not None:
            await self._publish_snapshot()
        self._drained = True
        self.recorder.instant("serve drain complete", category="serve")

    async def _finalize(self) -> None:
        """Close the socket and every connection, and release serve_forever."""
        if self._stopped is None or self._stopped.is_set():
            return
        self._remove_signals()
        if self._server is not None:
            self._server.close()
            for conn in list(self._connections):
                conn.transport.close()  # flushes what is buffered first
            await self._server.wait_closed()
        self._stopped.set()

    # -- requests -------------------------------------------------------------

    async def _dispatch(self, line: bytes) -> dict[str, Any]:
        """The in-process entry point: one JSON line, answered as on a socket."""
        response = self._request(line)
        if isinstance(response, dict):
            self._after_reply()
            # the loop turn that separates two requests of a connection, so
            # whatever this one scheduled (a pass, a rebuild) gets to start
            await asyncio.sleep(0)
            return response
        return await response

    def _request(self, line: bytes) -> Union[dict[str, Any], Awaitable[dict[str, Any]]]:
        """Decode a JSON line, route to the verb handler, and span the request.

        ``snapshot`` and ``drain`` wait on the executor or a rebuild and come
        back as an awaitable; every other verb is answered on return.
        """
        t0 = self.recorder.wall_now()
        try:
            request = protocol.decode_request(line)
        except protocol.ProtocolError as exc:
            record_serve_request(self.recorder, "invalid", rejected=True)
            return protocol.error(protocol.BAD_REQUEST, str(exc))
        op = request["op"]
        if op == "append":
            try:
                records = protocol.rows_to_records(request["rows"], self._dtype)
            except (TypeError, ValueError, OverflowError) as exc:
                return self._refuse_append(
                    protocol.BAD_REQUEST,
                    f"rows do not fit schema {self.input_schema.id!r}: {exc}",
                )
            refusal = self._handle_append(records, t0, protocol.JSON_ROWS)
            return refusal if refusal is not None else protocol.ok(
                "append",
                records=len(records),
                generation=self.state.current.generation,
                total_records=self.state.log_records,
            )
        try:
            if op == "query":
                response = self._handle_query(request)
            elif op == "hello":
                response = protocol.hello(self._dtype)
            elif op == "snapshot" and self.snapshots is None:
                raise ServeError("daemon started without --snapshot-dir")
            elif op == "snapshot":
                return self._answered_later(op, t0, self._handle_snapshot())
            else:
                return self._answered_later(op, t0, self._handle_drain())
        except ServeError as exc:
            response = protocol.error(protocol.BAD_REQUEST, str(exc), op=op)
        return self._answered(op, t0, response)

    def _answered(self, op: str, t0: float, response: dict[str, Any]) -> dict[str, Any]:
        record_serve_request(self.recorder, op)
        self._span(op, t0, bool(response.get("ok")))
        return response

    async def _answered_later(self, op: str, t0: float, answer: Awaitable) -> dict[str, Any]:
        return self._answered(op, t0, await answer)

    def _span(self, op: str, t0: float, ok: bool, **attrs: Any) -> None:
        self._fold()  # the acknowledged appends' spans come first
        self.recorder.record_span(
            name=f"serve.{op}", category="serve", rank=None,
            start_virtual=0.0, end_virtual=0.0,
            start_wall=t0, end_wall=self.recorder.wall_now(),
            attrs={"ok": ok, **attrs},
        )

    # -- append --------------------------------------------------------------

    def _refuse_append(self, code: int, message: str) -> dict[str, Any]:
        record_serve_request(self.recorder, "append", rejected=True)
        return protocol.error(code, message, op="append")

    def _append_frame(self, frame: memoryview) -> Union[bytes, dict[str, Any]]:
        """Answer the binary frame ``frame``, a view of the connection's buffer.

        The frame is checked where it arrived, and its records are copied
        from there into the log — the one copy a frame's payload gets.  A
        failed check costs a ``400``; the ack is a preformatted line.
        """
        t0 = self.recorder.wall_now()
        body = 1 + FRAME.size
        try:
            records = protocol.decode_frame(frame[1:body], frame[body:], self._dtype)
        except protocol.ProtocolError as exc:
            return self._refuse_append(protocol.BAD_REQUEST, str(exc))
        refusal = self._handle_append(records, t0, protocol.FRAMES)
        if refusal is not None:
            return refusal
        return protocol.append_ack(
            len(records), self.state.current.generation, self.state.log_records
        )

    def _handle_append(
        self, records: np.ndarray, t0: float, encoding: str
    ) -> Optional[dict[str, Any]]:
        """The one append path: decoded JSON rows and frames both land here.

        Returns the refusal, or None once the records are in the log: nothing
        past admission can refuse them, so the caller acknowledges them.
        Everything else waits: the append's span, latency and tallies are a
        stamp the next pass folds in (:meth:`_fold`), and the pass that
        deals it runs when the generation is next read, is scheduled once a
        quarter of ``--max-pending`` waits, and runs right behind the ack
        when drift makes a rebuild due (:meth:`_after_reply`).
        """
        state = self.state
        if self._draining:
            refusal = self._refuse_append(protocol.DRAINING, "daemon is draining")
        elif state.pending >= self.config.max_pending:
            refusal = self._refuse_append(
                protocol.OVERLOADED,
                f"append queue at --max-pending={self.config.max_pending}",
            )
        else:
            state.admit(records)
            if state.pending == max(1, self.config.max_pending // 4):
                asyncio.get_running_loop().call_soon(self._process_appends)
            self._stamps.append((t0, self.recorder.wall_now(), encoding, len(records)))
            self._admitted = True
            return None
        self._span("append", t0, False, encoding=encoding)
        return refusal

    def _after_reply(self) -> None:
        """What an acknowledged append leaves for after its ack is written:
        the pass, at once, when drift makes a rebuild due — the rebuild then
        freezes the log right behind this append."""
        if self._admitted:
            self._admitted = False
            if self._rebalance_idle() and self.state.drift_fraction > self.monitor.threshold:
                self._process_appends()

    def _generation(self) -> Optional[PartitionGeneration]:
        """The live generation with every acknowledged record dealt: the one
        way a reader (``query``, a snapshot freeze, the swap, the metrics
        document) gets at it, so none sees the log ahead of the partitions."""
        self._process_appends()
        return self.state.current

    def _fold(self) -> None:
        """Count the appends acknowledged since the last fold in the recorder:
        their requests and records per encoding, and per append, in the
        order they were acknowledged, its latency and ``serve.append`` span."""
        stamps = self._stamps
        if not stamps:
            return
        self._stamps = []
        recorder = self.recorder
        recorder.record_spans("serve.append", "serve", [
            (t0, t1, {"ok": True, "encoding": encoding})
            for t0, t1, encoding, _ in stamps
        ])
        recorder.observe_many(
            "serve.append_latency_ms", [(t1 - t0) * 1e3 for t0, t1, _, _ in stamps]
        )
        tallies: dict[str, list[int]] = {}
        for _, _, encoding, records in stamps:
            tally = tallies.setdefault(encoding, [0, 0])
            tally[0] += 1
            tally[1] += records
        for encoding, (requests, records) in tallies.items():
            record_serve_request(
                recorder, "append", records=records, encoding=encoding,
                requests=requests,
            )

    def _process_appends(self) -> None:
        """Fold the acknowledged appends into the recorder, then route and
        deal every batch still undealt, as one batch (a view of the log)."""
        t0 = time.perf_counter()
        self._fold()
        records, batches = self.state.take_undealt()
        if not batches:
            return
        assert self.router is not None and self.state.current is not None
        if batches > 1:
            self.recorder.count("serve.coalesced_batches", batches - 1)
        try:
            self.state.current.deal(records, self.router.route(records))
        except Exception as exc:
            # route and deal cannot refuse a dtype-valid record: this is a bug,
            # not a bad request.  The records stay in the log; a rebuild places them
            self.recorder.count("serve.failed_passes")
            self.recorder.instant(
                f"append pass failed: {exc!r}", category="serve",
                attrs={"records": len(records)},
            )
        self.recorder.gauge("serve.queue_depth", 0)
        self._check_balance()
        self.recorder.observe("serve.pass_ms", (time.perf_counter() - t0) * 1e3)

    # -- rebalance -----------------------------------------------------------

    def _rebalance_idle(self) -> bool:
        return self._rebalance_task is None or self._rebalance_task.done()

    def _check_balance(self) -> None:
        decision = self.monitor.check(self.state)
        self.recorder.gauge("serve.skew", decision.skew)
        self.recorder.gauge("serve.drift", decision.drift)
        if decision.due and self._rebalance_idle():
            self._rebalance_task = asyncio.get_running_loop().create_task(
                self._rebalance(decision.reason or "skew")
            )

    async def _rebalance(self, reason: str) -> None:
        """Rebuild from the frozen log off-loop, swap in atomically on-loop."""
        t0 = time.perf_counter()
        frozen = self.state.log
        frozen_records = len(frozen.records)
        key_field = self.router.key_field

        def rebuild() -> tuple[PartitionGeneration, Optional[KeySample]]:
            # the new generation, key ranges walked, is built here too;
            # it is numbered at the swap
            partitions, sample = self._rebuild(frozen)
            return PartitionGeneration.from_partitions(
                0, partitions, frozen_records, key_field
            ), sample

        loop = asyncio.get_running_loop()
        try:
            new_generation, sample = await loop.run_in_executor(None, rebuild)
        except Exception as exc:
            self.recorder.instant(
                f"rebalance failed: {exc}", category="serve",
                attrs={"reason": reason},
            )
            return
        # back on the event loop: everything below is one synchronous block,
        # so no request can interleave between tail re-route and swap
        self._generation()
        # seeded with what the rebuild covered: the tail is routed through
        # the new router just below, which is what advances a positional
        # router's index past it; a range router's sample of the frozen log
        # was taken with the rebuild, only the tail's keys are drawn here
        router = build_router(
            self.plan, self.input_schema, self.state.log, frozen_records, sample
        )
        if router.key_field != new_generation.key_field:
            new_generation.track(router.key_field)  # a first range router
        tail = self.state.freeze_log()[frozen_records:]
        if len(tail):
            # one deal for the whole tail: owners depend on the record (its
            # key, or its arrival index), not on which batch carried it
            new_generation.deal(tail, router.route(tail))
        new_generation.generation = self.state.current.generation + 1
        self.state.swap(new_generation)
        self.router = router
        wall_s = time.perf_counter() - t0
        record_rebalance(
            self.recorder, new_generation.generation, reason, wall_s, frozen_records
        )
        self.rebalance_events.append(
            {"generation": new_generation.generation, "reason": reason,
             "records": frozen_records, "wall_s": wall_s}
        )

    def _rebuild(self, frozen: BatchLog) -> tuple[list[np.ndarray], Optional[KeySample]]:
        """Cold-run the workflow over the frozen log, and sample its keys for
        the next range router (executor thread)."""
        data = Dataset.from_array(self.input_schema, frozen.records)
        result = self.papar.run(
            self.plan,
            self.args,
            data=data,
            backend=self.config.backend,
            num_ranks=self.config.num_ranks,
        )
        partitions = [np.asarray(p.to_flat().records) for p in result.partitions]
        return partitions, sample_log(self.plan, self.input_schema, frozen)

    # -- query / snapshot / drain --------------------------------------------

    def _handle_query(self, request: dict[str, Any]) -> dict[str, Any]:
        generation = self._generation()
        if generation is None:
            raise ServeError("no generation live yet")
        router = self.router
        decision = self.monitor.check(self.state)
        fields: dict[str, Any] = {
            "generation": generation.generation,
            "partitions": generation.stats(
                router.key_field if router is not None else None
            ),
            "total_records": generation.total_records,
            "log_records": self.state.log_records,
            "skew": decision.skew,
            "drift": decision.drift,
            "pending": self.state.pending,
            "router": router.describe() if router is not None else None,
            "snapshot": (
                snapshot_id(generation.generation)
                if self.snapshots is not None
                and self.snapshots.current_generation() == generation.generation
                else None
            ),
        }
        if "key" in request and router is not None:
            fields["key_partition"] = router.partition_for_key(request["key"])
        return protocol.ok("query", **fields)

    async def _handle_snapshot(self) -> dict[str, Any]:
        sid = await self._publish_snapshot()
        return protocol.ok(
            "snapshot", snapshot=sid, generation=self.state.current.generation
        )

    async def _publish_snapshot(self) -> str:
        """Pin state loop-side, copy and publish in the executor, count it."""
        freeze = self._freeze_state()
        loop = asyncio.get_running_loop()
        sid = await loop.run_in_executor(
            None, lambda: self.snapshots.publish(freeze(), self.plan.workflow_id)
        )
        self.recorder.count("serve.snapshots")
        self.recorder.instant(f"snapshot {sid}", category="serve")
        return sid

    def _freeze_state(self) -> Callable[[], ServeState]:
        """Pin the state as of now; the returned call copies it on any thread.

        The log is a read-only view that no later append rewrites, every
        chunk list only ever grows at the end, and a swap replaces the
        generation object rather than touching it, so taking the log and
        noting the chunk lists' lengths here is enough: slicing those
        prefixes later yields the state as of this call no matter what has
        been appended since.
        """
        generation = self._generation()
        log = self.state.log
        chunks = generation.chunks  # every dealt batch attached, here on the loop
        chunk_lens = [len(c) for c in chunks]
        counts = generation.counts.copy()

        def freeze() -> ServeState:
            frozen = ServeState.of_log(log)
            frozen.current = PartitionGeneration(
                generation=generation.generation,
                chunks=[c[:n] for c, n in zip(chunks, chunk_lens)],
                counts=counts,
                rebuilt_records=generation.rebuilt_records,
            )
            return frozen

        return freeze

    async def _handle_drain(self) -> dict[str, Any]:
        await self._quiesce()
        generation = (
            self.state.current.generation if self.state.current is not None else None
        )
        return protocol.ok(
            "drain", generation=generation, total_records=self.state.log_records
        )

    # -- metrics -------------------------------------------------------------

    def metrics_doc(self) -> dict[str, Any]:
        """The ``papar.serve`` v1 document for this daemon's recorder."""
        generation = self._generation()
        return serve_metrics_json(
            self.recorder,
            server={
                "generation": generation.generation if generation else None,
                "partitions": generation.num_partitions if generation else 0,
                "total_records": generation.total_records if generation else 0,
                "log_records": self.state.log_records,
                "max_pending": self.config.max_pending,
                "rebalance_threshold": self.config.rebalance_threshold,
                "rebalance_events": list(self.rebalance_events),
                "restored": self.restored,
            },
        )


async def run_server(
    papar: Any,
    workflow: Union[WorkflowSpec, WorkflowPlan, str],
    args: dict[str, Any],
    config: Optional[ServeConfig] = None,
    recorder: Optional[Recorder] = None,
    ready: Optional[Any] = None,
) -> PartitionServer:
    """Start a daemon, announce readiness, and serve until drained.

    ``ready`` is an optional callable receiving ``(host, port)`` once the
    socket is listening (the CLI prints it; tests grab the port).  Returns
    the server after a graceful drain for inspection.
    """
    server = PartitionServer(papar, workflow, args, config=config, recorder=recorder)
    host, port = await server.start()
    if ready is not None:
        ready(host, port)
    await server.serve_forever()
    return server


__all__ = ["PartitionServer", "ServeConfig", "run_server"]

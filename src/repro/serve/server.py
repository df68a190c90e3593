"""The long-lived partition daemon: asyncio server, rebalance, snapshots.

One event loop owns everything mutable; that single-threaded discipline is
what makes the atomic-swap contract cheap:

* each connection's handler reads one request — a JSON line, or a binary
  append frame told apart by its first byte — fully answers it, then reads
  the next — per-connection socket backpressure for free;
* ``append`` requests, whichever encoding carried them, are one record
  array from there on: they pass admission control (``--max-pending``,
  explicit 429-style rejection) and enqueue onto one worker coroutine,
  which drains the queue in batches — concurrent appends coalesce into a
  single vectorized route + one-gather deal;
* the balance monitor runs after each drained batch; past the threshold it
  schedules a background rebuild (``PaPar.run`` over the frozen log, any
  backend, in an executor thread) whose result is swapped in *on the loop*
  together with the re-routed tail — no request ever observes a torn
  generation;
* ``snapshot`` freezes the state loop-side and publishes it through
  :class:`~repro.serve.snapshot.SnapshotStore` in the executor;
* SIGTERM/SIGINT (via :func:`repro.lifecycle.install_async_shutdown`) and
  the ``drain`` verb share one path: stop admitting, drain the queue,
  finish any rebalance, flush a final snapshot, exit 0.

Metrics flow through :mod:`repro.obs`: per-request spans, ``serve.*``
counters/histograms, and the ``papar.serve`` v1 document
(:func:`repro.obs.export.serve_metrics_json`).
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional, Union

import numpy as np

from repro.config.workflow import WorkflowSpec
from repro.core.dataset import Dataset
from repro.lifecycle import install_async_shutdown
from repro.obs.adapters import record_rebalance, record_serve_request
from repro.obs.export import serve_metrics_json
from repro.obs.span import Recorder
from repro.ooc.runfile import FRAME
from repro.serve import protocol
from repro.serve.balance import DEFAULT_THRESHOLD, BalanceMonitor
from repro.serve.router import IncrementalRouter, build_router
from repro.serve.snapshot import DEFAULT_RETAIN, SnapshotStore, snapshot_id
from repro.serve.state import PartitionGeneration, ServeError, ServeState


@dataclass
class ServeConfig:
    """Daemon configuration (the ``python -m repro serve`` flags)."""

    host: str = "127.0.0.1"
    #: 0 lets the OS pick a free port (reported by :meth:`PartitionServer.start`)
    port: int = 0
    #: skew/drift ratio past which an online repartition is scheduled
    rebalance_threshold: float = DEFAULT_THRESHOLD
    #: append queue depth past which requests are rejected with code 429
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


class PartitionServer:
    """Holds partitions hot and serves the protocol of :mod:`repro.serve.protocol`."""

    def __init__(
        self,
        papar: Any,
        workflow: Union[WorkflowSpec, str],
        args: dict[str, Any],
        config: Optional[ServeConfig] = None,
        recorder: Optional[Recorder] = None,
    ) -> None:
        self.papar = papar
        self.spec = (
            papar.load_workflow(workflow) if isinstance(workflow, str) else workflow
        )
        self.args = dict(args)
        self.config = config or ServeConfig()
        self.recorder = recorder or Recorder()
        self.monitor = BalanceMonitor(self.config.rebalance_threshold)
        self.snapshots: Optional[SnapshotStore] = (
            SnapshotStore(self.config.snapshot_dir, retain=self.config.retain)
            if self.config.snapshot_dir
            else None
        )
        self.state = ServeState()
        self.plan = papar.plan(self.spec, self.args)
        self.input_schema = papar.schema(
            self.config.schema_id or self._declared_schema_id()
        )
        #: the dtype every append is decoded into (None: a ``string`` schema)
        self._dtype = protocol.wire_dtype(self.input_schema)
        self.router: Optional[IncrementalRouter] = None
        #: True once the daemon restored from a snapshot instead of the input
        self.restored = False
        self._queue: asyncio.Queue = asyncio.Queue()
        self._server: Optional[asyncio.AbstractServer] = None
        self._worker: Optional[asyncio.Task] = None
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
        self._worker = loop.create_task(self._append_worker())
        self._server = await asyncio.start_server(
            self._handle_conn,
            host=self.config.host,
            port=self.config.port,
            limit=protocol.MAX_LINE,
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
            self.spec,
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
        """Reject new appends, drain the queue, finish rebalance, flush."""
        if self._drained:
            return
        self._draining = True
        await self._queue.join()
        if self._rebalance_task is not None:
            await asyncio.gather(self._rebalance_task, return_exceptions=True)
        if self.snapshots is not None and self.state.current is not None:
            await self._publish_snapshot()
        self._drained = True
        self.recorder.instant("serve drain complete", category="serve")

    async def _finalize(self) -> None:
        """Stop the worker, close the socket, and release serve_forever."""
        if self._stopped is None or self._stopped.is_set():
            return
        if self._worker is not None:
            self._worker.cancel()
            await asyncio.gather(self._worker, return_exceptions=True)
        self._remove_signals()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self._stopped.set()

    # -- connection handling -------------------------------------------------

    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one client: strictly one request at a time per connection."""
        try:
            while True:
                first = await reader.read(1)
                if first == protocol.FRAME_MARKER:
                    response, in_sync = await self._dispatch_frame(reader)
                else:
                    try:
                        # a lone newline is already a whole (blank) line
                        line = (
                            first if first in (b"", b"\n")
                            else first + await reader.readline()
                        )
                    except (asyncio.LimitOverrunError, ValueError):
                        response, in_sync = protocol.error(
                            protocol.BAD_REQUEST,
                            f"request line exceeds {protocol.MAX_LINE} bytes",
                        ), False
                    else:
                        if not line.strip():  # EOF or a blank line ends the session
                            break
                        response, in_sync = await self._dispatch(line), True
                writer.write(protocol.encode_response(response))
                await writer.drain()
                if not in_sync:
                    break
                if response.get("op") == "drain" and response.get("ok"):
                    # the client has its answer on the wire; now tear down
                    await self._finalize()
                    break
        except ConnectionResetError:
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _dispatch_frame(
        self, reader: asyncio.StreamReader
    ) -> tuple[dict[str, Any], bool]:
        """Read one binary append frame (its marker already consumed) and answer it.

        Returns ``(response, stream still in sync)``.  A frame whose
        announced payload was not consumed — over the cap, or cut short —
        leaves the byte stream unparseable, so the connection must close; a
        fully read frame that fails its checks costs only a ``400``.
        """
        try:
            head = await reader.readexactly(FRAME.size)
            payload = await reader.readexactly(protocol.frame_payload_size(head))
        except asyncio.IncompleteReadError:
            return self._refuse_append(protocol.BAD_REQUEST, "truncated frame"), False
        except protocol.ProtocolError as exc:
            return self._refuse_append(protocol.BAD_REQUEST, str(exc)), False
        t0 = self.recorder.wall_now()
        try:
            records = protocol.decode_frame(head, payload, self._dtype)
        except protocol.ProtocolError as exc:
            return self._refuse_append(protocol.BAD_REQUEST, str(exc)), True
        return await self._handle_append(records, t0, protocol.FRAMES), True

    async def _dispatch(self, line: bytes) -> dict[str, Any]:
        """Decode a JSON line, route to the verb handler, and span the request."""
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
            return await self._handle_append(records, t0, protocol.JSON_ROWS)
        try:
            if op == "query":
                response = self._handle_query(request)
            elif op == "snapshot":
                response = await self._handle_snapshot()
            elif op == "hello":
                response = protocol.hello(self._dtype)
            else:
                response = await self._handle_drain()
        except ServeError as exc:
            response = protocol.error(protocol.BAD_REQUEST, str(exc), op=op)
        record_serve_request(self.recorder, op)
        self._span(op, t0, response)
        return response

    def _span(self, op: str, t0: float, response: dict[str, Any], **attrs: Any) -> None:
        self.recorder.record_span(
            name=f"serve.{op}", category="serve", rank=None,
            start_virtual=0.0, end_virtual=0.0,
            start_wall=t0, end_wall=self.recorder.wall_now(),
            attrs={"ok": bool(response.get("ok")), **attrs},
        )

    # -- append --------------------------------------------------------------

    def _refuse_append(self, code: int, message: str) -> dict[str, Any]:
        record_serve_request(self.recorder, "append", rejected=True)
        return protocol.error(code, message, op="append")

    async def _handle_append(
        self, records: np.ndarray, t0: float, encoding: str
    ) -> dict[str, Any]:
        """The one append path: decoded JSON rows and frames both land here."""
        if self._draining:
            response = self._refuse_append(protocol.DRAINING, "daemon is draining")
        elif self._queue.qsize() >= self.config.max_pending:
            response = self._refuse_append(
                protocol.OVERLOADED,
                f"append queue at --max-pending={self.config.max_pending}",
            )
        else:
            future: asyncio.Future = asyncio.get_running_loop().create_future()
            self._queue.put_nowait((records, future))
            self.recorder.gauge("serve.queue_depth", self._queue.qsize())
            try:
                generation = await future
            except ServeError as exc:
                response = self._refuse_append(protocol.BAD_REQUEST, str(exc))
            else:
                record_serve_request(
                    self.recorder, "append", records=len(records), encoding=encoding,
                    latency_ms=(self.recorder.wall_now() - t0) * 1e3,
                )
                response = protocol.ok(
                    "append",
                    records=len(records),
                    generation=generation,
                    total_records=self.state.log_records,
                )
        self._span("append", t0, response, encoding=encoding)
        return response

    async def _append_worker(self) -> None:
        """Drain the append queue, coalescing bursts into one routed pass."""
        while True:
            items = [await self._queue.get()]
            while True:
                try:
                    items.append(self._queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            try:
                self._process_appends(items)
            finally:
                for _ in items:
                    self._queue.task_done()
            self.recorder.gauge("serve.queue_depth", self._queue.qsize())
            self._check_balance()

    def _process_appends(self, items: list[tuple[np.ndarray, asyncio.Future]]) -> None:
        """Route a coalesced batch through the vectorized fast path."""
        assert self.router is not None and self.state.current is not None
        if len(items) > 1:
            self.recorder.count("serve.coalesced_batches", len(items) - 1)
        batches = [records for records, _ in items]
        merged = np.concatenate(batches) if len(batches) > 1 else batches[0]
        try:
            generation = self.state.current
            generation.deal(merged, self.router.route(merged))
            for records, _ in items:
                self.state.append_log(records)
        except Exception as exc:
            for _, future in items:
                if not future.done():
                    future.set_exception(
                        exc if isinstance(exc, ServeError) else ServeError(str(exc))
                    )
            return
        for _, future in items:
            if not future.done():
                future.set_result(generation.generation)

    # -- rebalance -----------------------------------------------------------

    def _check_balance(self) -> None:
        decision = self.monitor.check(self.state)
        self.recorder.gauge("serve.skew", decision.skew)
        self.recorder.gauge("serve.drift", decision.drift)
        if decision.due and (
            self._rebalance_task is None or self._rebalance_task.done()
        ):
            self._rebalance_task = asyncio.get_running_loop().create_task(
                self._rebalance(decision.reason or "skew")
            )

    async def _rebalance(self, reason: str) -> None:
        """Rebuild from the frozen log off-loop, swap in atomically on-loop."""
        t0 = time.perf_counter()
        frozen, frozen_records = self.state.freeze_log()
        loop = asyncio.get_running_loop()
        try:
            partitions = await loop.run_in_executor(None, self._rebuild, frozen)
        except Exception as exc:
            self.recorder.instant(
                f"rebalance failed: {exc}", category="serve",
                attrs={"reason": reason},
            )
            return
        # back on the event loop: everything below is one synchronous block,
        # so no request can interleave between tail re-route and swap
        assert self.state.current is not None
        # seeded with what the rebuild covered: the tail is routed through
        # the new router just below, which is what advances a positional
        # router's index past it
        router = build_router(
            self.plan, self.input_schema, self.state.log, frozen_records
        )
        new_generation = PartitionGeneration.from_partitions(
            self.state.current.generation + 1, partitions, frozen_records,
            router.key_field,
        )
        tail = self.state.log[len(frozen):]
        if tail:
            # one deal for the whole tail: owners depend on the record (its
            # key, or its arrival index), not on which batch carried it
            merged = np.concatenate(tail)
            new_generation.deal(merged, router.route(merged))
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

    def _rebuild(self, frozen: list[np.ndarray]) -> list[np.ndarray]:
        """Cold-run the workflow over the frozen log (executor thread)."""
        merged = np.concatenate(frozen) if len(frozen) > 1 else frozen[0]
        data = Dataset.from_array(self.input_schema, merged)
        result = self.papar.run(
            self.plan,
            self.args,
            data=data,
            backend=self.config.backend,
            num_ranks=self.config.num_ranks,
        )
        return [np.asarray(p.to_flat().records) for p in result.partitions]

    # -- query / snapshot / drain --------------------------------------------

    def _handle_query(self, request: dict[str, Any]) -> dict[str, Any]:
        generation = self.state.current
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
            "pending": self._queue.qsize(),
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
        if self.snapshots is None:
            raise ServeError("daemon started without --snapshot-dir")
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

        The log and every chunk list only ever grow at the end, and a swap
        replaces the generation object rather than touching it, so noting
        their lengths here — O(partitions) on the loop — is enough: slicing
        those prefixes later yields the state as of this call no matter what
        has been appended since.
        """
        generation = self.state.current
        log, log_len = self.state.log, len(self.state.log)
        log_records = self.state.log_records
        chunk_lens = [len(c) for c in generation.chunks]
        counts = generation.counts.copy()

        def freeze() -> ServeState:
            frozen = ServeState(log=log[:log_len], log_records=log_records)
            frozen.current = PartitionGeneration(
                generation=generation.generation,
                chunks=[c[:n] for c, n in zip(generation.chunks, chunk_lens)],
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
        generation = self.state.current
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
    workflow: Union[WorkflowSpec, str],
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

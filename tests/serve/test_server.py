"""The daemon end to end: admission control, drain semantics, atomic
generation swaps, warm restart, the TCP socket path, and the metrics doc."""

import asyncio
import contextlib
import json
import socket
import threading

import numpy as np
import pytest

from repro.config.examples import BLAST_WORKFLOW_XML
from repro.formats import BLAST_INDEX_SCHEMA
from repro.ooc.runfile import FRAME, pack_frame_header
from repro.serve import ServeClient, ServeConfig, protocol, run_server

from tests.serve._driver import dispatch, fold_tail, run_scenario, settle
from tests.serve.conftest import rows_of


def blast_args(blast_file, tmp_path, parts=4):
    path, _ = blast_file
    return {"input_path": path, "output_path": str(tmp_path / "out"),
            "num_partitions": parts}


class TestVerbs:
    def test_append_then_query(self, papar, blast_file, blast_index, tmp_path):
        extra = rows_of(blast_index[100:120])

        async def scenario(server):
            r = await dispatch(server, {"op": "append", "rows": extra})
            assert r["ok"] and r["records"] == 20
            assert r["total_records"] == 120
            await settle(server)
            q = await dispatch(server, {"op": "query"})
            assert q["ok"]
            assert q["total_records"] == sum(
                p["records"] for p in q["partitions"]
            )
            assert q["log_records"] == 120
            assert q["router"]["kind"] == "range"
            return q

        server, q = run_scenario(
            papar, BLAST_WORKFLOW_XML, blast_args(blast_file, tmp_path),
            scenario,
        )
        assert not server.restored

    def test_query_routes_a_key(self, papar, blast_file, tmp_path):
        async def scenario(server):
            q = await dispatch(server, {"op": "query", "key": 45})
            assert q["key_partition"] in range(4)

        run_scenario(papar, BLAST_WORKFLOW_XML,
                     blast_args(blast_file, tmp_path), scenario)

    def test_unknown_op_and_bad_rows_are_400(self, papar, blast_file, tmp_path):
        async def scenario(server):
            bad_verb = await dispatch(server, {"op": "restart"})
            assert (bad_verb["ok"], bad_verb["code"]) == (False, 400)
            bad_rows = await dispatch(
                server, {"op": "append", "rows": [["x"]]}
            )
            assert (bad_rows["ok"], bad_rows["code"]) == (False, 400)
            assert "schema" in bad_rows["error"]

        run_scenario(papar, BLAST_WORKFLOW_XML,
                     blast_args(blast_file, tmp_path), scenario)


class TestAdmissionControl:
    def test_full_queue_rejects_429(self, papar, blast_file, blast_index,
                                    tmp_path):
        rows = rows_of(blast_index[100:105])

        async def scenario(server):
            r = await dispatch(server, {"op": "append", "rows": rows})
            assert (r["ok"], r["code"]) == (False, 429)
            assert server.metrics_doc()["rejected"] == 1

        run_scenario(papar, BLAST_WORKFLOW_XML,
                     blast_args(blast_file, tmp_path), scenario,
                     max_pending=0)

    def test_draining_rejects_503(self, papar, blast_file, blast_index,
                                  tmp_path):
        rows = rows_of(blast_index[100:105])

        async def scenario(server):
            server._draining = True
            r = await dispatch(server, {"op": "append", "rows": rows})
            assert (r["ok"], r["code"]) == (False, 503)

        run_scenario(papar, BLAST_WORKFLOW_XML,
                     blast_args(blast_file, tmp_path), scenario)


class TestAtomicSwap:
    def test_queries_never_observe_a_torn_generation(
        self, papar, blast_file, blast_index, tmp_path
    ):
        """Interleave appends (with a hair-trigger rebalance threshold) and
        queries: every response must be internally consistent and the
        generation counter must only move forward."""
        batches = [rows_of(blast_index[i:i + 10])
                   for i in range(100, 160, 10)]

        async def scenario(server):
            seen = []
            for rows in batches:
                r = await dispatch(server, {"op": "append", "rows": rows})
                assert r["ok"]
                q = await dispatch(server, {"op": "query"})
                assert q["total_records"] == sum(
                    p["records"] for p in q["partitions"]
                )
                seen.append(q["generation"])
            await settle(server)
            return seen

        server, generations = run_scenario(
            papar, BLAST_WORKFLOW_XML, blast_args(blast_file, tmp_path),
            scenario, rebalance_threshold=0.01,
        )
        assert generations == sorted(generations)
        assert server.rebalance_events  # the hair trigger actually fired
        assert server.state.current.generation >= 1

    def test_rebalanced_generation_covers_the_whole_log(
        self, papar, blast_file, blast_index, tmp_path
    ):
        rows = rows_of(blast_index[100:140])

        async def scenario(server):
            await dispatch(server, {"op": "append", "rows": rows})
            await fold_tail(server)
            assert server.state.drift_fraction == 0.0
            q = await dispatch(server, {"op": "query"})
            assert q["drift"] == 0.0
            assert q["total_records"] == q["log_records"] == 140

        run_scenario(papar, BLAST_WORKFLOW_XML,
                     blast_args(blast_file, tmp_path), scenario,
                     rebalance_threshold=1e9)


class TestPositionalRebuild:
    def test_appends_during_a_rebuild_are_counted_once(
        self, papar, blast_file, blast_index, tmp_path
    ):
        """A bare cyclic deal routes by arrival index.  Records appended
        while a rebuild is in flight are re-routed through the new router
        after it; if that router was also seeded past them, every later
        append lands shifted until the next rebuild.  Placement must equal
        the cold batch deal of the whole log."""
        from repro.core.dataset import Dataset

        from tests.serve.test_router import DEAL_ONLY_XML

        _, initial = blast_file
        during, after = blast_index[100:107], blast_index[107:118]
        started, release = threading.Event(), threading.Event()

        async def scenario(server):
            rebuild = server._rebuild

            def held_rebuild(frozen):
                started.set()
                assert release.wait(timeout=30.0)
                return rebuild(frozen)

            server._rebuild = held_rebuild
            task = asyncio.get_running_loop().create_task(server._rebalance("test"))
            while not started.is_set():
                await asyncio.sleep(0.001)
            r = await dispatch(server, {"op": "append", "rows": rows_of(during)})
            assert r["ok"], r
            server._process_appends()
            release.set()
            await asyncio.wait_for(task, timeout=30.0)
            r = await dispatch(server, {"op": "append", "rows": rows_of(after)})
            assert r["ok"], r
            await settle(server)
            gen = server.state.current
            return [gen.partition_records(p) for p in range(gen.num_partitions)]

        args = blast_args(blast_file, tmp_path, parts=3)
        server, streamed = run_scenario(
            papar, DEAL_ONLY_XML, args, scenario, rebalance_threshold=1e9
        )
        assert len(server.rebalance_events) == 1
        whole = np.concatenate([initial, during, after])
        cold = papar.run(
            DEAL_ONLY_XML, args, data=Dataset.from_array(BLAST_INDEX_SCHEMA, whole)
        )
        for ours, theirs in zip(streamed, cold.partitions):
            np.testing.assert_array_equal(ours, theirs.to_flat().records)
        assert server.router.next_index == len(whole)


class TestSnapshotAndRestart:
    def test_snapshot_verb_requires_a_store(self, papar, blast_file, tmp_path):
        async def scenario(server):
            r = await dispatch(server, {"op": "snapshot"})
            assert (r["ok"], r["code"]) == (False, 400)
            assert "--snapshot-dir" in r["error"]

        run_scenario(papar, BLAST_WORKFLOW_XML,
                     blast_args(blast_file, tmp_path), scenario)

    def test_warm_restart_restores_the_published_state(
        self, papar, blast_file, blast_index, tmp_path
    ):
        args = blast_args(blast_file, tmp_path)
        snap_dir = str(tmp_path / "snaps")
        rows = rows_of(blast_index[100:130])

        async def first(server):
            await dispatch(server, {"op": "append", "rows": rows})
            await fold_tail(server)
            r = await dispatch(server, {"op": "snapshot"})
            assert r["ok"]
            return (r["snapshot"], server.state.log_records,
                    [server.state.current.partition_records(p)
                     for p in range(4)])

        _, (sid, log_records, parts) = run_scenario(
            papar, BLAST_WORKFLOW_XML, args, first,
            snapshot_dir=snap_dir, rebalance_threshold=1e9,
        )

        async def second(server):
            q = await dispatch(server, {"op": "query"})
            assert q["snapshot"] == sid
            return [server.state.current.partition_records(p)
                    for p in range(4)]

        server, restored = run_scenario(
            papar, BLAST_WORKFLOW_XML, args, second,
            snapshot_dir=snap_dir, rebalance_threshold=1e9,
        )
        assert server.restored
        assert server.state.log_records == log_records
        for ours, theirs in zip(restored, parts):
            np.testing.assert_array_equal(ours, theirs)

    def test_drain_flushes_a_final_snapshot(self, papar, blast_file, tmp_path):
        snap_dir = str(tmp_path / "snaps")

        async def scenario(server):
            assert server.snapshots.current_generation() is None
            r = await dispatch(server, {"op": "drain"})
            assert r["ok"] and r["generation"] == 0

        server, _ = run_scenario(
            papar, BLAST_WORKFLOW_XML, blast_args(blast_file, tmp_path),
            scenario, snapshot_dir=snap_dir,
        )
        assert server.snapshots.current_generation() == 0


@contextlib.contextmanager
def tcp_daemon(papar, args, drain=True, **config_kw):
    """A daemon on its own thread; yields ``(address, holder)``.

    On exit a fresh connection drains it (``drain=False``: the test already
    did), the thread must end, and ``holder["server"]`` is the drained
    server for post-mortem assertions.
    """
    addr, ready, holder = {}, threading.Event(), {}

    def serve():
        holder["server"] = asyncio.run(run_server(
            papar, BLAST_WORKFLOW_XML, args,
            config=ServeConfig(**config_kw),
            ready=lambda h, p: (addr.update(hp=(h, p)), ready.set()),
        ))

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    assert ready.wait(60), "daemon never came up"
    try:
        yield addr["hp"], holder
    finally:
        if drain:
            with ServeClient(*addr["hp"]) as client:
                client.drain()
        thread.join(60)
    assert not thread.is_alive()


class RawConnection:
    """A client that is nothing but a socket: bytes out, JSON lines back."""

    def __init__(self, address):
        self.sock = socket.create_connection(address, timeout=30)
        self.file = self.sock.makefile("rb")

    def send(self, data: bytes) -> None:
        self.sock.sendall(data)

    def reply(self) -> dict:
        return json.loads(self.file.readline())

    def ask(self, payload: dict) -> dict:
        self.send((json.dumps(payload) + "\n").encode())
        return self.reply()

    def closed_by_server(self) -> bool:
        try:
            return self.file.readline() == b""
        except ConnectionResetError:  # closed with bytes of ours still unread
            return True

    def close(self) -> None:
        self.file.close()
        self.sock.close()


def frame_of(records: np.ndarray) -> bytes:
    return protocol.encode_frame(np.ascontiguousarray(records))


class TestSocketLifecycle:
    def test_tcp_roundtrip_with_the_blocking_client(
        self, papar, blast_file, blast_index, tmp_path
    ):
        """The real wire path: server on a thread, ServeClient over TCP."""
        args = blast_args(blast_file, tmp_path)
        with tcp_daemon(papar, args, drain=False) as (address, holder):
            with ServeClient(*address) as client:
                r = client.append_ok(rows_of(blast_index[100:110]))
                assert r["records"] == 10
                assert client.query()["log_records"] == 110
                d = client.drain()
                assert d["ok"]
        assert holder["server"].state.log_records == 110


class TestWireEncodings:
    """Frames by default, JSON rows for whoever never says ``hello`` — one
    append path behind both."""

    def test_the_client_negotiates_frames_and_takes_rows_or_arrays(
        self, papar, blast_file, blast_index, tmp_path
    ):
        with tcp_daemon(papar, blast_args(blast_file, tmp_path)) as (addr, holder):
            with ServeClient(*addr) as client:
                assert client._frame_dtype == BLAST_INDEX_SCHEMA.dtype
                # list-of-lists rows (numpy would read them as an extra axis)
                client.append_ok(rows_of(blast_index[100:110]))
                client.append_ok(blast_index[110:120].tolist())   # tuples
                client.append_ok(np.asarray(blast_index[120:130]))  # array
        server = holder["server"]
        np.testing.assert_array_equal(
            server.state.freeze_log()[100:], blast_index[100:130])
        doc = server.metrics_doc()
        assert (doc["append_frames"], doc["append_json"]) == (3, 0)
        assert doc["requests"]["hello"] == 2  # this client + the draining one
        assert doc["rejected"] == 0

    def test_a_line_json_client_that_never_says_hello_still_appends(
        self, papar, blast_file, blast_index, tmp_path
    ):
        """Both encodings interleaved on one raw connection."""
        with tcp_daemon(papar, blast_args(blast_file, tmp_path)) as (addr, holder):
            raw = RawConnection(addr)
            r = raw.ask({"op": "append", "rows": rows_of(blast_index[100:105])})
            assert r["ok"] and r["total_records"] == 105
            raw.send(frame_of(blast_index[105:112]))
            r = raw.reply()
            assert (r["ok"], r["records"], r["total_records"]) == (True, 7, 112)
            r = raw.ask({"op": "append", "rows": rows_of(blast_index[112:115])})
            assert r["ok"] and r["total_records"] == 115
            assert raw.ask({"op": "query"})["log_records"] == 115
            raw.close()
        server = holder["server"]
        np.testing.assert_array_equal(
            server.state.freeze_log()[100:], blast_index[100:115])
        doc = server.metrics_doc()
        assert (doc["append_frames"], doc["append_json"]) == (1, 2)
        assert doc["appended_records"] == 15
        spans = [s for s in server.recorder.spans if s.name == "serve.append"]
        assert [s.attrs["encoding"] for s in spans] == ["json", "frames", "json"]

    def test_misfit_rows_come_back_as_the_servers_400(
        self, papar, blast_file, tmp_path
    ):
        """Rows the client cannot pack go out as JSON, so the daemon — not a
        client-side numpy exception — says what is wrong with them."""
        with tcp_daemon(papar, blast_args(blast_file, tmp_path)) as (addr, holder):
            with ServeClient(*addr) as client:
                for bad in ([["x", 1, 2, 3]], [[1, 2]], [[1, 2, 3, 2 ** 40]]):
                    r = client.append(bad)
                    assert (r["ok"], r["code"]) == (False, 400), bad
                    assert "schema" in r["error"]
                assert client.append([[1, 2, 3, 4]])["ok"]  # still in business
        assert holder["server"].metrics_doc()["rejected"] == 3

    def test_an_old_daemon_gets_rows(self, blast_index):
        """A peer that answers ``hello`` with 400 unknown op (any daemon from
        before frames) is spoken to in line-JSON only."""
        received = []
        listener = socket.create_server(("127.0.0.1", 0))

        def old_daemon():
            conn, _ = listener.accept()
            with conn, conn.makefile("rwb") as stream:
                for line in stream:
                    received.append(line)
                    request = json.loads(line)
                    if request["op"] == "append":
                        answer = protocol.ok("append", records=len(request["rows"]))
                    else:
                        answer = protocol.error(
                            protocol.BAD_REQUEST, f"unknown op {request['op']!r}")
                    stream.write(protocol.encode_response(answer))
                    stream.flush()

        thread = threading.Thread(target=old_daemon, daemon=True)
        thread.start()
        with ServeClient(*listener.getsockname()[:2]) as client:
            assert client._frame_dtype is None
            assert client.append_ok(blast_index[100:103].tolist())["records"] == 3
            assert client.append_ok(np.asarray(blast_index[103:105]))["records"] == 2
        thread.join(30)
        listener.close()
        assert not thread.is_alive()
        assert [json.loads(line)["op"] for line in received] == [
            "hello", "append", "append"]
        assert json.loads(received[1])["rows"] == rows_of(blast_index[100:103])


class TestMalformedFrames:
    """A frame is never trusted: every broken one ends in a 400 or a closed
    connection, is counted, and leaves the daemon serving everyone else."""

    def good_payload(self, blast_index):
        return np.ascontiguousarray(blast_index[100:104]).tobytes()

    def test_checks_that_keep_the_connection(
        self, papar, blast_file, blast_index, tmp_path
    ):
        """The announced payload was consumed in full, so the stream is still
        in sync: a 400, then business as usual on the same connection."""
        payload = self.good_payload(blast_index)
        flipped = bytes([payload[0] ^ 0x40]) + payload[1:]
        ragged = payload + b"\x00\x00\x00"
        cases = {
            "crc mismatch": pack_frame_header(4, payload) + flipped,
            "non-empty": pack_frame_header(0, b""),
            "payload holds": pack_frame_header(4, ragged) + ragged,
            "declares 3 records": pack_frame_header(3, payload) + payload,
        }
        with tcp_daemon(papar, blast_args(blast_file, tmp_path)) as (addr, holder):
            raw = RawConnection(addr)
            for expected, body in cases.items():
                raw.send(protocol.FRAME_MARKER + body)
                r = raw.reply()
                assert (r["ok"], r["code"], r["op"]) == (False, 400, "append")
                assert expected in r["error"]
            raw.send(frame_of(blast_index[100:104]))
            assert raw.reply()["total_records"] == 104
            raw.close()
        server = holder["server"]
        assert server.state.log_records == 104
        doc = server.metrics_doc()
        assert doc["rejected"] == len(cases)
        assert (doc["append_frames"], doc["requests"]["append"]) == (1, 5)

    @pytest.mark.parametrize("case", ["header", "payload", "oversize"])
    def test_breaks_that_close_the_connection(
        self, papar, blast_file, blast_index, tmp_path, case
    ):
        """The byte stream cannot be resynchronised — the payload is cut
        short or was never read — so the daemon answers 400 and hangs up,
        and keeps serving other connections."""
        payload = self.good_payload(blast_index)
        whole = pack_frame_header(4, payload) + payload
        body = {
            "header": whole[:FRAME.size - 5],
            "payload": whole[:-7],
            "oversize": FRAME.pack(0, 1, 0, 0, protocol.MAX_LINE + 1) + payload,
        }[case]
        with tcp_daemon(papar, blast_args(blast_file, tmp_path)) as (addr, holder):
            bystander = RawConnection(addr)
            raw = RawConnection(addr)
            raw.send(protocol.FRAME_MARKER + body)
            if case != "oversize":
                raw.sock.shutdown(socket.SHUT_WR)  # the frame just stops
            r = raw.reply()
            assert (r["ok"], r["code"]) == (False, 400)
            assert ("exceeds" if case == "oversize" else "truncated") in r["error"]
            assert raw.closed_by_server()
            raw.close()
            r = bystander.ask(
                {"op": "append", "rows": rows_of(blast_index[100:102])})
            assert r["ok"] and r["total_records"] == 102
            bystander.close()
        doc = holder["server"].metrics_doc()
        assert doc["rejected"] == 1 and doc["appended_records"] == 2


class TestMetricsDoc:
    def test_server_block_and_counters(self, papar, blast_file, blast_index,
                                       tmp_path):
        rows = rows_of(blast_index[100:110])

        async def scenario(server):
            await dispatch(server, {"op": "append", "rows": rows})
            await dispatch(server, {"op": "query"})
            await settle(server)

        server, _ = run_scenario(
            papar, BLAST_WORKFLOW_XML, blast_args(blast_file, tmp_path),
            scenario,
        )
        doc = server.metrics_doc()
        assert doc["schema"] == "papar.serve"
        assert doc["requests"]["append"] == 1
        assert doc["requests"]["query"] == 1
        assert doc["appended_records"] == 10
        assert doc["append_latency_ms"]["count"] == 1
        assert doc["server"]["log_records"] == 110
        assert doc["server"]["max_pending"] == 64

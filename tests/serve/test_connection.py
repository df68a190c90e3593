"""The connection protocol: where TCP cuts the byte stream must not matter,
and a peer that misbehaves — never reads, stops mid-frame — costs a bounded
buffer while everyone else is served."""

import asyncio
import contextlib
import json
import os
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.examples import BLAST_WORKFLOW_XML
from repro.formats import BLAST_INDEX_SCHEMA, write_binary
from repro.ooc.runfile import FRAME, pack_frame_header
from repro.serve import ServeClient, ServeConfig, protocol
from repro.serve.server import PartitionServer, _Connection

from tests.serve._driver import request_line
from tests.serve.conftest import rows_of
from tests.serve.test_server import RawConnection, blast_args, frame_of


class FakeTransport:
    """What a connection needs of a transport; the writes are the transcript."""

    def __init__(self):
        self.written = []
        self.closed = False

    def write(self, data):
        self.written.append(bytes(data))

    def close(self):
        self.closed = True

    def is_closing(self):
        return self.closed

    def pause_reading(self):
        pass

    def resume_reading(self):
        pass


def transcript(papar, args, segments):
    """Every response line a fresh daemon writes when fed ``segments``."""

    async def go():
        server = PartitionServer(papar, BLAST_WORKFLOW_XML, args,
                                 config=ServeConfig(rebalance_threshold=1e9))
        await server.start()
        try:
            conn, transport = _Connection(server), FakeTransport()
            conn.connection_made(transport)
            for segment in segments:
                if transport.closed:  # a closed socket delivers nothing more
                    break
                conn.data_received(segment)
                await asyncio.sleep(0)
            if not transport.closed:
                conn.eof_received()
            return b"".join(transport.written).splitlines(), transport.closed
        finally:
            await server._drain_and_stop()

    return asyncio.run(go())


def requests_of(blast_index):
    """Name -> wire bytes of one request of every kind the parser tells apart."""
    payload = np.ascontiguousarray(blast_index[100:104]).tobytes()
    flipped = bytes([payload[0] ^ 0x40]) + payload[1:]
    ragged = payload + b"\x00\x00\x00"
    marker = protocol.FRAME_MARKER
    return {
        "frame": frame_of(blast_index[104:111]),
        "frame-of-one": frame_of(blast_index[111:112]),
        "json-append": request_line({"op": "append", "rows": rows_of(blast_index[112:115])}),
        "query": request_line({"op": "query"}),
        "hello": request_line({"op": "hello"}),
        "key-query": request_line({"op": "query", "key": 45}),
        "not-json": b"{nope\n",
        "unknown-op": request_line({"op": "restart"}),
        "misfit-rows": request_line({"op": "append", "rows": [["x"]]}),
        "snapshot-without-store": request_line({"op": "snapshot"}),
        # the four frames that fail a check but leave the stream in sync
        "bad-crc": marker + pack_frame_header(4, payload) + flipped,
        "empty": marker + pack_frame_header(0, b""),
        "ragged": marker + pack_frame_header(4, ragged) + ragged,
        "miscounted": marker + pack_frame_header(3, payload) + payload,
    }


#: what may end a session: nothing (EOF), a blank line, or a stream that
#: cannot be resynchronised (each is followed by bytes that must be ignored)
ENDINGS = {
    "eof": b"",
    "blank": b"\n" + b'{"op":"query"}\n',
    "oversize-frame": protocol.FRAME_MARKER
    + FRAME.pack(0, 1, 0, 0, protocol.MAX_LINE + 1) + b'{"op":"query"}\n',
    "half-a-frame": protocol.FRAME_MARKER + FRAME.pack(0, 4, 0, 0, 64) + b"\x01" * 10,
}


@pytest.fixture(scope="module")
def shared_args(tmp_path_factory, blast_index):
    """One warm-start file for every Hypothesis example (they only read it)."""
    tmp = tmp_path_factory.mktemp("segments")
    write_binary(tmp / "db.index", blast_index[:100], BLAST_INDEX_SCHEMA,
                 header=b"\x00" * 32)
    return blast_args((str(tmp / "db.index"), None), tmp)


class TestSegmentation:
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_where_tcp_cuts_the_stream_does_not_matter(
        self, papar, blast_index, shared_args, data
    ):
        """Any sequence of requests, cut into segments at arbitrary offsets —
        one byte at a time and all at once included — is answered exactly as
        when each request arrives as its own segment."""
        args = shared_args
        kinds = requests_of(blast_index)
        names = data.draw(st.lists(st.sampled_from(sorted(kinds)), min_size=1, max_size=8))
        ending = data.draw(st.sampled_from(sorted(ENDINGS)))
        whole = [kinds[name] for name in names] + [ENDINGS[ending]]
        stream = b"".join(whole)
        cuts = data.draw(st.one_of(
            st.just(list(range(1, len(stream)))),  # one byte at a time
            st.just([]),                           # everything in one segment
            st.lists(st.integers(1, max(1, len(stream) - 1)), max_size=12),
        ))
        edges = [0, *sorted(set(cuts)), len(stream)]
        segments = [stream[a:b] for a, b in zip(edges, edges[1:])]

        expected = transcript(papar, args, [s for s in whole if s])
        assert transcript(papar, args, [s for s in segments if s]) == expected
        lines, closed = expected
        assert closed
        # one answer per request, plus the 400 an unsyncable ending earns
        assert len(lines) == len(names) + (ending in ("oversize-frame", "half-a-frame"))

    def test_a_request_is_not_started_before_its_last_byte(self, papar, blast_file,
                                                           blast_index, tmp_path):
        frame = frame_of(blast_index[100:104])
        lines, _ = transcript(papar, blast_args(blast_file, tmp_path),
                              [frame[:-1], frame[-1:] + b'{"op":"que', b'ry"}\n'])
        answers = [json.loads(line) for line in lines]
        assert [a["op"] for a in answers] == ["append", "query"]
        assert answers[1]["total_records"] == answers[1]["log_records"] == 104


@contextlib.contextmanager
def live_daemon(papar, args, **config_kw):
    """A daemon on its own thread whose server object the test can look at."""
    box, ready = {}, threading.Event()

    async def main():
        box["server"] = PartitionServer(papar, BLAST_WORKFLOW_XML, args,
                                        config=ServeConfig(**config_kw))
        box["address"] = await box["server"].start()
        ready.set()
        await box["server"].serve_forever()

    thread = threading.Thread(target=lambda: asyncio.run(main()), daemon=True)
    thread.start()
    assert ready.wait(60), "daemon never came up"
    try:
        yield box["address"], box["server"]
    finally:
        with ServeClient(*box["address"]) as client:
            client.drain()
        thread.join(60)
    assert not thread.is_alive()


def connection_of(server, raw, timeout=10.0):
    """The daemon-side connection object serving the client socket ``raw``."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        for conn in list(server._connections):
            if conn.transport.get_extra_info("peername") == raw.sock.getsockname():
                return conn
        time.sleep(0.01)
    raise AssertionError("the daemon never saw the connection")


def wait_until(condition, timeout=20.0):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.01)


def rss_mb():
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


class TestMisbehavingPeers:
    def test_a_peer_that_never_reads_costs_a_buffer(self, papar, blast_file, tmp_path):
        """10 000 pipelined queries and not one byte read back: the daemon
        answers until the peer's buffers are full, then stops — reading too —
        and a bystander is served all along."""
        args = blast_args(blast_file, tmp_path, parts=64)  # ~4 KB per answer
        with live_daemon(papar, args) as (address, server):
            bystander = RawConnection(address)
            one_answer = len(json.dumps(bystander.ask({"op": "query"})))
            before = rss_mb()
            flood = RawConnection(address)
            conn = connection_of(server, flood)
            flood.send(b'{"op":"query"}\n' * 10_000)
            wait_until(lambda: not conn.writable and not conn.reading)
            high_water = conn.transport.get_write_buffer_limits()[1]
            assert conn.transport.get_write_buffer_size() <= high_water + 2 * one_answer
            assert len(conn.buf) <= 10_000 * len(b'{"op":"query"}\n')
            answered = server.recorder.counter_total("serve.requests.query")
            assert answered < 10_000  # it stopped; it did not just finish
            assert rss_mb() - before < 16  # 10 000 answers would be ~40 MB
            assert bystander.ask({"op": "query"})["ok"]
            flood.close()
            bystander.close()

    def test_a_peer_that_resumes_reading_gets_every_answer(self, papar, blast_file, tmp_path):
        args = blast_args(blast_file, tmp_path, parts=64)
        with live_daemon(papar, args) as (address, server):
            raw = RawConnection(address)
            conn = connection_of(server, raw)
            raw.send(b'{"op":"query"}\n' * 3_000)
            wait_until(lambda: not conn.writable)
            assert all(raw.reply()["ok"] for _ in range(3_000))
            assert raw.ask({"op": "hello"})["ok"]
            raw.close()

    def test_half_a_frame_holds_its_bytes_and_no_more(self, papar, blast_file,
                                                      blast_index, tmp_path):
        """The marker and 20 bytes of header, then silence: 21 bytes held.
        The rest of a header announcing 8 MiB, then silence: the header held,
        nothing set aside for the payload that never comes."""
        header = FRAME.pack(0, 1, 0, 0, protocol.MAX_LINE)
        with live_daemon(papar, blast_args(blast_file, tmp_path)) as (address, server):
            idle = RawConnection(address)
            conn = connection_of(server, idle)
            idle.send(protocol.FRAME_MARKER + header[:20])
            wait_until(lambda: len(conn.buf) == 21)
            idle.send(header[20:])
            wait_until(lambda: len(conn.buf) == 1 + FRAME.size)
            assert conn.ready is None and conn.reading
            bystander = RawConnection(address)
            r = bystander.ask({"op": "append", "rows": rows_of(blast_index[100:102])})
            assert r["ok"] and r["total_records"] == 102
            bystander.close()
            idle.close()
            wait_until(lambda: conn not in server._connections)

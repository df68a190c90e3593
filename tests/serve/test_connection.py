"""The connection protocol: where TCP cuts the byte stream must not matter,
and a peer that misbehaves — never reads, stops mid-frame — costs a bounded
buffer while everyone else is served."""

import asyncio
import contextlib
import json
import os
import sys
import threading
import time
from pathlib import Path

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

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks"))
try:
    from apps.blast import generate_index
finally:
    sys.path.pop(0)


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


class TestReceiveBuffer:
    """The transport reads into the connection's own buffer: requests are
    consumed where they lie, the next read starts over at 0 once everything
    is consumed, held bytes move to the front only when a read needs the
    room, and a request larger than the buffer grows it."""

    @staticmethod
    def fed(papar, args, reads, check=None):
        """The answers a fresh connection writes when the transport hands it
        ``reads``, one ``get_buffer`` / ``buffer_updated`` each; ``check``
        looks at the connection after every read."""
        from repro.serve.server import RECV_BUFFER

        async def go():
            server = PartitionServer(papar, BLAST_WORKFLOW_XML, args,
                                     config=ServeConfig(rebalance_threshold=1e9))
            await server.start()
            try:
                conn, transport = _Connection(server), FakeTransport()
                conn.connection_made(transport)
                assert len(conn.store) == RECV_BUFFER
                for data in reads:
                    into = conn.get_buffer(-1)
                    assert len(into) >= len(data), "a read gets the room it asks for"
                    into[:len(data)] = data
                    del into
                    conn.buffer_updated(len(data))
                    if check is not None:
                        check(conn)
                answers = [json.loads(line) for line in b"".join(transport.written).splitlines()]
                server._process_appends()
                return answers, server.state.freeze_log()[100:].copy()
            finally:
                await server._drain_and_stop()

        return asyncio.run(go())

    def test_a_frame_larger_than_the_starting_buffer(self, papar, shared_args):
        from repro.serve.server import MIN_READ, RECV_BUFFER

        big = np.asarray(generate_index("env_nr", num_sequences=3 * RECV_BUFFER // 16, seed=3))
        frame = frame_of(big)
        assert len(frame) > 2 * RECV_BUFFER
        sizes = []
        reads = [frame[i:i + MIN_READ] for i in range(0, len(frame), MIN_READ)]
        answers, logged = self.fed(papar, shared_args, reads + [b'{"op":"query"}\n'],
                                   check=lambda conn: sizes.append(len(conn.store)))
        assert [a["op"] for a in answers] == ["append", "query"]
        assert answers[0]["records"] == len(big)
        assert answers[1]["total_records"] == 100 + len(big)
        np.testing.assert_array_equal(logged, big)
        assert max(sizes) >= len(frame)  # it grew to hold the whole frame ...
        assert sizes[-1] == RECV_BUFFER  # ... and went back once it was consumed

    def test_pipelined_requests_across_the_point_where_bytes_are_reclaimed(
        self, papar, blast_index, shared_args
    ):
        """One read leaves a request cut short near the end of the buffer;
        the next must move it to the front — and carries the rest of it
        plus more pipelined requests, frames and lines."""
        from repro.serve.server import MIN_READ, RECV_BUFFER

        query = request_line({"op": "query"})
        frame = frame_of(blast_index[100:110])
        queries = (RECV_BUFFER - MIN_READ // 2) // len(query)
        first = query * queries + frame[:20]
        second = frame[20:] + query + frame_of(blast_index[110:113]) + request_line(
            {"op": "append", "rows": rows_of(blast_index[113:115])}) + query
        moves = []

        def check(conn):
            moves.append((conn.start, conn.end, id(conn.store)))

        answers, logged = self.fed(papar, shared_args, [first, second], check=check)
        assert len(first) > RECV_BUFFER - MIN_READ  # the second read needs the room
        (start1, end1, store1), (start2, end2, store2) = moves
        assert (end1 - start1, store1) == (20, store1)  # only the cut frame held
        assert (start2, end2, store2) == (0, 0, store1)  # moved, not regrown; all consumed
        ops = [a["op"] for a in answers]
        assert ops == ["query"] * queries + ["append", "query", "append", "append", "query"]
        assert [a["total_records"] for a in answers[-5:]] == [110, 110, 113, 115, 115]
        np.testing.assert_array_equal(logged, blast_index[100:115])

    def test_a_json_line_and_a_frame_in_one_read(self, papar, blast_index, shared_args):
        both = request_line({"op": "append", "rows": rows_of(blast_index[100:103])}) + \
            frame_of(blast_index[103:108])
        answers, logged = self.fed(papar, shared_args, [both + frame_of(blast_index[108:109])
                                                        + request_line({"op": "query"})])
        assert [(a["op"], a["records"]) for a in answers[:3]] == [
            ("append", 3), ("append", 5), ("append", 1)]
        assert answers[3]["total_records"] == answers[3]["log_records"] == 109
        np.testing.assert_array_equal(logged, blast_index[100:109])

    def test_a_frame_larger_than_the_buffer_over_tcp(self, papar, shared_args):
        """The real transport reads in ``get_buffer(-1)`` slices of whatever
        room there is: a 400 KiB frame arrives over many reads."""
        big = np.asarray(generate_index("env_nr", num_sequences=25_000, seed=4))
        with live_daemon(papar, shared_args) as (address, server):
            with ServeClient(*address) as client:
                assert client.append_ok(big)["total_records"] == 100 + len(big)
                assert client.append_ok(big[:3])["total_records"] == 103 + len(big)
                q = client.query()
        assert q["total_records"] == q["log_records"] == 103 + len(big)

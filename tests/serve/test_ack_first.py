"""The ack goes out first: before an append's ``ok`` the daemon checks it
and copies it into the log, and nothing else — its span, latency sample
and tallies are a stamp the next pass folds in, and the pass that drift
makes due runs behind the written ack.  The ``papar.serve`` document reads
as it did: exact counts, exact latency count/min/max/mean, the same spans
in the window in the order the requests were answered."""

import asyncio

import numpy as np

from repro.config.examples import BLAST_WORKFLOW_XML
from repro.serve.server import PartitionServer, _Connection
from repro.serve.state import PartitionGeneration

from tests.serve._driver import request_line, run_scenario
from tests.serve.conftest import rows_of
from tests.serve.test_connection import FakeTransport
from tests.serve.test_server import blast_args, frame_of


def connected(server: PartitionServer):
    conn, transport = _Connection(server), FakeTransport()
    conn.connection_made(transport)
    return conn, transport


class TestAccountingFollowsTheAck:
    def test_an_append_leaves_a_stamp_until_the_pass(self, papar, blast_file,
                                                     blast_index, tmp_path):
        async def scenario(server):
            recorder = server.recorder
            conn, transport = connected(server)
            conn.data_received(frame_of(blast_index[100:104]))
            assert transport.written[-1].startswith(b'{"ok":true,"op":"append"')
            assert not [s for s in recorder.spans if s.name == "serve.append"]
            assert "serve.append_latency_ms" not in recorder.histograms
            assert recorder.counter_total("serve.requests.append") == 0
            conn.data_received(request_line({"op": "hello"}))
            conn.data_received(request_line({"op": "append",
                                             "rows": rows_of(blast_index[104:106])}))
            server._process_appends()
            names = [(s.name, s.attrs) for s in recorder.spans]
            assert names == [
                ("serve.append", {"ok": True, "encoding": "frames"}),
                ("serve.hello", {"ok": True}),
                ("serve.append", {"ok": True, "encoding": "json"}),
            ]
            doc = server.metrics_doc()
            assert doc["requests"]["append"] == 2
            assert (doc["append_frames"], doc["append_json"], doc["appended_records"]) == (1, 1, 6)
            latency = doc["append_latency_ms"]
            spans = [s for s in recorder.spans if s.name == "serve.append"]
            walls = [(s.end_wall - s.start_wall) * 1e3 for s in spans]
            assert latency["count"] == 2
            assert (latency["min"], latency["max"]) == (min(walls), max(walls))
            assert latency["mean"] == sum(walls) / 2
            assert server._stamps == []

        run_scenario(papar, BLAST_WORKFLOW_XML, blast_args(blast_file, tmp_path),
                     scenario, rebalance_threshold=1e9)

    def test_a_refusal_is_recorded_after_the_stamps_before_it(self, papar, blast_file,
                                                              blast_index, tmp_path):
        async def scenario(server):
            conn, _ = connected(server)
            conn.data_received(frame_of(blast_index[100:101]))
            conn.data_received(frame_of(blast_index[101:102]))
            conn.data_received(frame_of(blast_index[102:103]))  # over --max-pending
            server._process_appends()
            oks = [s.attrs["ok"] for s in server.recorder.spans if s.name == "serve.append"]
            assert oks == [True, True, False]
            assert server.metrics_doc()["rejected"] == 1

        run_scenario(papar, BLAST_WORKFLOW_XML, blast_args(blast_file, tmp_path),
                     scenario, max_pending=2, rebalance_threshold=1e9)

    def test_the_drift_pass_runs_behind_the_written_ack(self, papar, blast_file,
                                                        blast_index, tmp_path):
        async def scenario(server):
            conn, transport = connected(server)
            seen = []
            process = server._process_appends

            def recording():
                seen.append(len(transport.written))
                process()

            server._process_appends = recording
            conn.data_received(frame_of(blast_index[100:140]))  # drift 40/140
            assert seen == [1]  # the pass ran once, with the ack already written
            assert server.state.pending == 0
            assert server._rebalance_task is not None
            await server._rebalance_task
            assert server.rebalance_events[0]["records"] == 140

        run_scenario(papar, BLAST_WORKFLOW_XML, blast_args(blast_file, tmp_path),
                     scenario, rebalance_threshold=0.05)

    def test_each_pass_records_its_wall(self, papar, blast_file, blast_index, tmp_path):
        async def scenario(server):
            conn, _ = connected(server)
            for lo in range(100, 132, 2):
                conn.data_received(frame_of(blast_index[lo:lo + 2]))
            await asyncio.sleep(0)  # the pass scheduled at 16 pending
            server._process_appends()  # nothing left: no pass to record
            histogram = server.metrics_doc()["metrics"]["histograms"]["serve.pass_ms"]
            assert histogram["count"] == 1 and histogram["min"] > 0

        run_scenario(papar, BLAST_WORKFLOW_XML, blast_args(blast_file, tmp_path),
                     scenario, rebalance_threshold=1e9)


class TestDealtMeansCounted:
    def test_a_deal_is_counted_now_and_gathered_when_read(self, blast_index):
        base = blast_index[:10]
        gen = PartitionGeneration.from_partitions(0, [base[:5], base[5:]], 10, "seq_size")
        batch = blast_index[10:16]
        gen.deal(batch, np.array([1, 0, 1, 1, 0, 1], dtype=np.uint8))
        assert gen.counts.tolist() == [7, 9] and gen.total_records == 16
        assert [len(c) for c in gen._chunks] == [1, 1]  # nothing gathered yet
        assert [len(c) for c in gen.chunks] == [2, 2]
        np.testing.assert_array_equal(gen.chunks[1][-1], batch[[0, 2, 3, 5]])
        keys = np.concatenate([base[5:], batch[[0, 2, 3, 5]]])["seq_size"]
        assert gen.key_ranges[1] == (int(keys.min()), int(keys.max()))

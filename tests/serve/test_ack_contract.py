"""What an ``ok`` stands for: the append passed every check and is in the
log.  Routing and dealing follow in coalesced passes, which every reader of
the generation runs first — so no request ever sees an acknowledged record
undealt — and which create no Task, Future or queue entry per append."""

import asyncio
import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.examples import BLAST_WORKFLOW_XML, HYBRID_CUT_WORKFLOW_XML
from repro.formats import BLAST_INDEX_SCHEMA
from repro.mapreduce.partitioner import RangePartitioner
from repro.ops.distribute import Distribute
from repro.serve import ServeClient
from repro.serve.router import KeyedRouter, PositionalRouter
from repro.serve.server import _Connection
from repro.serve.state import PartitionGeneration

from tests.serve._driver import dispatch, fold_tail, request_line, run_scenario, settle
from tests.serve.conftest import rows_of
from tests.serve.test_connection import FakeTransport
from tests.serve.test_server import RawConnection, blast_args, frame_of, tcp_daemon


def append_line(records):
    return request_line({"op": "append", "rows": rows_of(records)})


class TestAcknowledgedMeansLogged:
    def test_the_ack_precedes_the_deal_and_no_reader_can_tell(
        self, papar, blast_file, blast_index, tmp_path
    ):
        batch = blast_index[100:120]

        async def scenario(server):
            r = server._request(append_line(batch))
            assert r["ok"] and r["total_records"] == 120
            # acknowledged: in the log, not yet in the partitions
            np.testing.assert_array_equal(server.state.log[-1], batch)
            assert len(server.state.undealt) == 1
            assert server.state.current.total_records == 100
            # any reader runs the pass first
            q = server._request(request_line({"op": "query"}))
            assert q["total_records"] == q["log_records"] == 120
            assert q["pending"] == 0 and not server.state.undealt
            assert sum(p["records"] for p in q["partitions"]) == 120

        run_scenario(papar, BLAST_WORKFLOW_XML, blast_args(blast_file, tmp_path),
                     scenario, rebalance_threshold=1e9)

    def test_another_connection_sees_it_dealt(
        self, papar, blast_file, blast_index, tmp_path
    ):
        """Over real sockets: the moment one client has its ``ok``, a query
        or a snapshot from any connection covers the record."""
        args = blast_args(blast_file, tmp_path)
        snaps = str(tmp_path / "snaps")
        with tcp_daemon(papar, args, snapshot_dir=snaps,
                        rebalance_threshold=1e9) as (addr, holder):
            writer, reader = RawConnection(addr), RawConnection(addr)
            for i, lo in enumerate(range(100, 160, 10), start=1):
                writer.send(frame_of(blast_index[lo:lo + 10]))
                assert writer.reply()["total_records"] == 100 + 10 * i
                q = (reader if i % 2 else writer).ask({"op": "query"})
                assert q["total_records"] == q["log_records"] == 100 + 10 * i
            writer.send(frame_of(blast_index[100:101]))
            assert writer.reply()["ok"]
            assert reader.ask({"op": "snapshot"})["ok"]
            writer.close()
            reader.close()
        server = holder["server"]
        restored, _meta = server.snapshots.load_latest()
        assert restored.log_records == restored.current.total_records == 161
        # and each record sits in the partition its key routes to
        generation, key = server.state.current, server.router.key_field
        for pid in range(generation.num_partitions):
            for chunk in generation.chunks[pid][1:]:
                assert (server.router.route(chunk) == pid).all()
        held = np.concatenate([c for chunks in generation.chunks for c in chunks[1:]])
        assert sorted(held[key].tolist()) == sorted(
            np.concatenate(server.state.log[1:])[key].tolist())


class TestCoalescedPass:
    """One deal over the concatenation is the sequence of per-batch deals."""

    @staticmethod
    def routers(kind, parts, start):
        if kind == "range":
            bounds = np.linspace(0, 1000, parts + 1)[1:-1].astype(np.int64).tolist()
            make = lambda: KeyedRouter(RangePartitioner(bounds, parts), "seq_size", "range")
        else:
            op = Distribute(policy="cyclic", num_partitions=parts)
            make = lambda: PositionalRouter(op, start_index=start)
        return make(), make()

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["range", "positional"]),
        parts=st.integers(1, 7),
        sizes=st.lists(st.integers(1, 40), min_size=1, max_size=12),
        seed=st.integers(0, 2**16),
    )
    def test_deal_of_concat_equals_deals_of_batches(self, kind, parts, sizes, seed):
        rng = np.random.default_rng(seed)
        base = np.zeros(parts * 2, dtype=BLAST_INDEX_SCHEMA.dtype)
        base["seq_size"] = rng.integers(0, 1000, len(base))
        batches = []
        for n in sizes:
            batch = np.zeros(n, dtype=BLAST_INDEX_SCHEMA.dtype)
            batch["seq_size"] = rng.integers(0, 1000, n)
            batch["seq_start"] = rng.integers(0, 2**31 - 1, n)
            batches.append(batch)

        def generation():
            return PartitionGeneration.from_partitions(
                0, [base[p::parts] for p in range(parts)], len(base), "seq_size")

        one_by_one, coalesced = generation(), generation()
        each, merged = self.routers(kind, parts, start=len(base))
        for batch in batches:
            one_by_one.deal(batch, each.route(batch))
        whole = np.concatenate(batches)
        coalesced.deal(whole, merged.route(whole))

        np.testing.assert_array_equal(coalesced.counts, one_by_one.counts)
        assert coalesced.key_ranges == one_by_one.key_ranges
        for pid in range(parts):
            np.testing.assert_array_equal(
                coalesced.partition_records(pid), one_by_one.partition_records(pid))


class TestFailedPass:
    def test_a_pass_that_raises_keeps_the_records_for_the_next_rebuild(
        self, papar, blast_file, blast_index, tmp_path
    ):
        """``route`` / ``deal`` cannot refuse a dtype-valid record, so a pass
        that raises is the daemon's bug: the appends stay acknowledged and
        logged, nothing counts as rejected, and a rebuild places them."""

        async def scenario(server):
            route = server.router.route

            def broken(records):
                raise RuntimeError("router bug")

            server.router.route = broken
            for lo in (100, 110):
                r = await server._dispatch(append_line(blast_index[lo:lo + 10]))
                assert r["ok"] and r["total_records"] == lo + 10
            q = await dispatch(server, {"op": "query"})
            assert (q["log_records"], q["total_records"]) == (120, 100)
            doc = server.metrics_doc()
            assert (doc["rejected"], doc["appended_records"]) == (0, 20)
            assert server.recorder.counter_total("serve.failed_passes") >= 1
            assert any("append pass failed" in i.name and "router bug" in i.name
                       for i in server.recorder.instants)
            server.router.route = route
            await fold_tail(server)
            q = await dispatch(server, {"op": "query"})
            assert q["log_records"] == q["total_records"] == 120
            return [server.state.current.partition_records(p) for p in range(4)]

        from repro.core.dataset import Dataset

        args = blast_args(blast_file, tmp_path)
        _, parts = run_scenario(papar, BLAST_WORKFLOW_XML, args, scenario,
                                rebalance_threshold=1e9)
        cold = papar.run(BLAST_WORKFLOW_XML, args,
                         data=Dataset.from_array(BLAST_INDEX_SCHEMA, blast_index[:120]))
        for ours, theirs in zip(parts, cold.partitions):
            np.testing.assert_array_equal(ours, theirs.to_flat().records)


class TestAdmission:
    def test_more_than_max_pending_before_the_pass_runs_is_429(
        self, papar, blast_file, blast_index, tmp_path
    ):
        """``--max-pending`` bounds the acknowledged-but-undealt queue: the
        pass is scheduled at a quarter of it, and appends admitted faster
        than the loop gets to run it are refused past the bound."""
        line = append_line(blast_index[100:101])

        async def scenario(server):
            answers = [server._request(line) for _ in range(10)]  # never yields
            assert [a["ok"] for a in answers] == [True] * 8 + [False] * 2
            assert {a["code"] for a in answers[8:]} == {429}
            assert len(server.state.undealt) == 8
            await asyncio.sleep(0)  # the pass scheduled at 8 // 4 gets its turn
            assert not server.state.undealt
            assert server._request(line)["ok"]
            doc = server.metrics_doc()
            assert (doc["rejected"], doc["appended_records"]) == (2, 9)
            assert doc["coalesced_batches"] == 7 and doc["queue_depth"] == 0
            assert doc["server"]["total_records"] == doc["server"]["log_records"] == 109

        run_scenario(papar, BLAST_WORKFLOW_XML, blast_args(blast_file, tmp_path),
                     scenario, max_pending=8, rebalance_threshold=1e9)

    def test_frames_landing_in_one_loop_iteration(self, papar, blast_file,
                                                  blast_index, tmp_path):
        """Several connections' frames delivered before the loop runs
        anything else: the same bound, the same refusal."""
        frame = frame_of(blast_index[100:103])

        async def scenario(server):
            transports = []
            for _ in range(6):
                conn, transport = _Connection(server), FakeTransport()
                conn.connection_made(transport)
                conn.data_received(frame)
                transports.append(transport)
            codes = [json.loads(t.written[0]).get("code") for t in transports]
            assert codes == [None] * 4 + [429] * 2
            await settle(server)
            assert server.state.current.total_records == server.state.log_records == 112

        run_scenario(papar, BLAST_WORKFLOW_XML, blast_args(blast_file, tmp_path),
                     scenario, max_pending=4, rebalance_threshold=1e9)


class TestNoPerRequestMachinery:
    def test_an_append_creates_no_task_and_no_future(
        self, papar, blast_file, blast_index, tmp_path
    ):
        frames = [frame_of(blast_index[100 + i % 50:101 + i % 50]) for i in range(1000)]

        async def scenario(server):
            loop = asyncio.get_running_loop()
            made = {"task": 0, "future": 0}
            create_task, create_future = loop.create_task, loop.create_future

            def counting_task(*a, **kw):
                made["task"] += 1
                return create_task(*a, **kw)

            def counting_future(*a, **kw):
                made["future"] += 1
                return create_future(*a, **kw)

            loop.create_task, loop.create_future = counting_task, counting_future
            try:
                conn, transport = _Connection(server), FakeTransport()
                conn.connection_made(transport)
                for frame in frames:
                    conn.data_received(frame)
                    await asyncio.sleep(0)  # a bare yield: the loop turns, no future
                server._process_appends()
            finally:
                del loop.create_task, loop.create_future
            assert len(transport.written) == 1000
            assert made == {"task": 0, "future": 0}
            assert server.state.current.total_records == server.state.log_records == 1100
            assert server.metrics_doc()["coalesced_batches"] > 900

        run_scenario(papar, BLAST_WORKFLOW_XML, blast_args(blast_file, tmp_path),
                     scenario, rebalance_threshold=1e9)

    def test_the_real_socket_path_too(self, papar, blast_file, blast_index, tmp_path):
        """1000 appends from the blocking client: every one coalesces with
        its neighbours and every record ends up dealt."""
        with tcp_daemon(papar, blast_args(blast_file, tmp_path),
                        rebalance_threshold=1e9) as (addr, holder):
            with ServeClient(*addr) as client:
                for i in range(1000):
                    client.append_ok(blast_index[100 + i % 50:102 + i % 50].tolist())
                q = client.query()
        assert q["total_records"] == q["log_records"] == 2100
        doc = holder["server"].metrics_doc()
        assert doc["append_frames"] == 1000 and doc["coalesced_batches"] >= 900


class TestRebuildDecisions:
    """The stream of ``test_incremental_equivalence.py`` trips the same
    rebuilds as before the ack moved: the first fires on the first append
    (its freeze covers exactly that append), the second folds the rest.
    Whether the second is the monitor's or ``fold_tail``'s depends on how
    long the first rebuild runs — as it always did."""

    @staticmethod
    def decisions(papar, workflow, args, batches):
        async def scenario(server):
            for rows in batches:
                r = await dispatch(server, {"op": "append", "rows": rows})
                assert r["ok"], r
            await fold_tail(server)

        server, _ = run_scenario(papar, workflow, args, scenario, backend="mpi",
                                 num_ranks=4, rebalance_threshold=0.05)
        return [(e["generation"], e["reason"], e["records"])
                for e in server.rebalance_events]

    def test_blast(self, papar, blast_file, blast_index, tmp_path):
        path, _ = blast_file
        args = {"input_path": path, "output_path": str(tmp_path / "out"),
                "num_partitions": 8}
        batches = [rows_of(blast_index[i:i + 20]) for i in range(100, 160, 20)]
        first, second = self.decisions(papar, BLAST_WORKFLOW_XML, args, batches)
        assert first == (1, "skew", 120)
        assert second in [(2, "skew", 160), (2, "final", 160)]

    def test_hybrid_cut(self, papar, edges_file, graph_edges, tmp_path):
        path, initial = edges_file
        args = {"input_file": path, "output_path": str(tmp_path / "out"),
                "num_partitions": 4, "threshold": 30}
        appended = graph_edges[len(initial):]
        third = max(1, len(appended) // 3)
        batches = [rows_of(appended[i:i + third]) for i in range(0, len(appended), third)]
        first, second = self.decisions(papar, HYBRID_CUT_WORKFLOW_XML, args, batches)
        assert first == (1, "skew", len(initial) + third)
        assert second in [(2, "skew", len(graph_edges)), (2, "final", len(graph_edges))]


class TestBoundedTelemetry:
    def test_fifty_thousand_appends_leave_a_window_not_a_history(
        self, papar, blast_file, blast_index, tmp_path
    ):
        """A long-lived daemon keeps the newest request spans and a latency
        sample of fixed size; the counts stay exact."""
        from repro.obs.span import SERVICE_WINDOW

        line = append_line(blast_index[100:101])

        async def scenario(server):
            for i in range(50_000):
                assert server._request(line)["ok"]
                if i % 8 == 7:
                    await asyncio.sleep(0)

        server, _ = run_scenario(papar, BLAST_WORKFLOW_XML,
                                 blast_args(blast_file, tmp_path), scenario,
                                 rebalance_threshold=1e9)
        recorder = server.recorder
        assert len(recorder.spans) == SERVICE_WINDOW
        assert len(recorder.histograms["serve.append_latency_ms"]) == SERVICE_WINDOW
        doc = server.metrics_doc()
        latency = doc["append_latency_ms"]
        assert latency["count"] == 50_000 == doc["requests"]["append"]
        assert latency["min"] <= latency["p50"] <= latency["p99"] <= latency["max"]
        spans = doc["metrics"]["spans"]
        assert spans["count"] == SERVICE_WINDOW
        assert spans["count"] + spans["dropped"] >= 50_000
        assert doc["server"]["total_records"] == doc["server"]["log_records"] == 50_100

"""Recorder threading through the runtimes: span trees, counters, faults."""

import numpy as np
import pytest

from repro import PaPar
from repro.cluster import INFINIBAND_QDR, ClusterModel
from repro.config import BLAST_INPUT_XML
from repro.config.examples import BLAST_WORKFLOW_XML
from repro.core.dataset import Dataset
from repro.fault import MemoryCheckpointStore, RetryPolicy
from repro.formats import BLAST_INDEX_SCHEMA
from repro.obs import Recorder

ARGS = {"input_path": "/in", "output_path": "/out", "num_partitions": 4}


@pytest.fixture
def papar():
    p = PaPar()
    p.register_input(BLAST_INPUT_XML)
    return p


def blast_data(n=300):
    rng = np.random.default_rng(17)
    rows = [(i, int(s), i, 40) for i, s in enumerate(rng.integers(10, 800, size=n))]
    return Dataset.from_rows(BLAST_INDEX_SCHEMA, rows)


def cluster(ranks):
    return ClusterModel(num_nodes=ranks // 2, ranks_per_node=2,
                        network=INFINIBAND_QDR)


class TestSpanTree:
    @pytest.mark.parametrize("backend", ["mpi", "mapreduce", "process"])
    def test_plan_root_with_per_rank_job_children(self, papar, backend):
        rec = Recorder()
        result = papar.run(BLAST_WORKFLOW_XML, ARGS, data=blast_data(),
                           backend=backend, num_ranks=4, cluster=cluster(4),
                           recorder=rec)
        assert result.observability is rec
        roots = [s for s in rec.spans if s.category == "plan"]
        assert len(roots) == 1
        root = roots[0]
        assert root.rank is None
        assert root.attrs == {"backend": backend, "ranks": 4}
        jobs = [s for s in rec.spans if s.category == "job"]
        # 2 jobs (sort, distr) on each of 4 ranks, all children of the root
        assert len(jobs) == 8
        assert {s.parent_id for s in jobs} == {root.span_id}
        assert sorted({s.rank for s in jobs}) == [0, 1, 2, 3]
        assert {s.attrs["operator"] for s in jobs} == {"sort", "distribute"}

    def test_forked_rank_spans_lie_inside_the_plan(self, papar):
        """Forked ranks stamp their jobs on the driver's clock."""
        rec = Recorder()
        papar.run(BLAST_WORKFLOW_XML, ARGS, data=blast_data(), backend="process",
                  num_ranks=2, recorder=rec)
        (root,) = [s for s in rec.spans if s.category == "plan"]
        ranked = [s for s in rec.spans if s.rank is not None]
        assert {s.rank for s in ranked} == {0, 1}
        assert {s.category for s in ranked} == {"job", "shuffle"}
        for s in ranked:
            assert root.start_wall <= s.start_wall <= s.end_wall <= root.end_wall

    def test_job_spans_carry_both_clocks(self, papar):
        """Spans carry wall time; the simulated time is the run's price."""
        rec = Recorder()
        result = papar.run(BLAST_WORKFLOW_XML, ARGS, data=blast_data(), backend="mpi",
                           num_ranks=4, cluster=cluster(4), recorder=rec)
        jobs = [s for s in rec.spans if s.category == "job"]
        assert all(s.wall_duration >= 0.0 for s in jobs)
        assert rec.makespan_wall() > 0.0
        assert result.elapsed > 0.0

    def test_virtual_time_zero_without_cluster_model(self, papar):
        rec = Recorder()
        result = papar.run(BLAST_WORKFLOW_XML, ARGS, data=blast_data(), backend="mpi",
                           num_ranks=2, recorder=rec)
        assert result.elapsed == 0.0
        assert rec.makespan_wall() > 0.0

    def test_shuffle_spans_nest_inside_jobs(self, papar):
        rec = Recorder()
        papar.run(BLAST_WORKFLOW_XML, ARGS, data=blast_data(), backend="mpi",
                  num_ranks=4, cluster=cluster(4), recorder=rec)
        by_id = {s.span_id: s for s in rec.spans}
        shuffles = [s for s in rec.spans if s.category == "shuffle"]
        assert shuffles, "the Distribute job must record shuffle spans"
        for s in shuffles:
            assert by_id[s.parent_id].category == "job"
            assert by_id[s.parent_id].rank == s.rank

    def test_serial_backend_records_driver_side_jobs(self, papar):
        rec = Recorder()
        papar.run(BLAST_WORKFLOW_XML, ARGS, data=blast_data(),
                  backend="serial", recorder=rec)
        jobs = [s for s in rec.spans if s.category == "job"]
        assert [s.name for s in jobs] == ["sort", "distr"]


class TestCountersAndPerf:
    def test_comm_and_idle_counters(self, papar):
        """Traffic is counted; no simulated compute or idle counter is."""
        rec = Recorder()
        papar.run(BLAST_WORKFLOW_XML, ARGS, data=blast_data(), backend="mpi",
                  num_ranks=4, cluster=cluster(4), recorder=rec)
        assert rec.counter_total("comm.sent_bytes") > 0
        assert rec.counter_total("comm.sent_messages") > 0
        names = {n for (n, _r) in rec.counters}
        assert not {"compute.virtual_s", "idle.recv_s"} & names

    @pytest.mark.parametrize("backend", ["mpi", "mapreduce", "process"])
    def test_recv_bytes_counted_without_cluster_model(self, papar, backend):
        """Every byte a rank sends is received."""
        rec = Recorder()
        papar.run(BLAST_WORKFLOW_XML, ARGS, data=blast_data(), backend=backend,
                  num_ranks=2, recorder=rec)
        sent = rec.counter_total("comm.sent_bytes")
        assert sent > 0
        assert rec.counter_total("comm.recv_bytes") == sent

    def test_perf_summary_folded_into_gauges(self, papar):
        rec = Recorder()
        papar.run(BLAST_WORKFLOW_XML, ARGS, data=blast_data(),
                  backend="mapreduce", num_ranks=4, cluster=cluster(4),
                  recorder=rec)
        assert rec.counter_total("shuffle.records_moved") > 0
        names = {n for (n, _r) in rec.gauges}
        assert any(n.startswith("perf.phase.") and n.endswith(".wall_s")
                   for n in names)


class TestDeterminism:
    @pytest.mark.parametrize("backend", ["mpi", "mapreduce"])
    def test_virtual_span_tree_identical_across_runs(self, papar, backend):
        """The shape of the trace and the priced time are reproducible; the
        spans' wall times are not."""
        def one_run():
            rec = Recorder()
            result = papar.run(BLAST_WORKFLOW_XML, ARGS, data=blast_data(),
                               backend=backend, num_ranks=4, cluster=cluster(4),
                               recorder=rec)
            return result.elapsed, sorted((s.name, s.category, s.rank) for s in rec.spans)

        first = one_run()
        assert first == one_run()


class TestFaultIntegration:
    def test_retry_instants_and_fault_counters(self, papar):
        rec = Recorder()
        result = papar.run(
            BLAST_WORKFLOW_XML, ARGS, data=blast_data(), backend="mpi",
            num_ranks=4, cluster=cluster(4), recorder=rec,
            faults="crash:rank=1,job=0,when=before",
            checkpoint=MemoryCheckpointStore(),
            retry=RetryPolicy(max_attempts=4, base_delay_s=0.01),
            deadlock_grace=30.0,
        )
        fault = result.extra["fault"]
        assert fault["attempts"] >= 2
        retries = [i for i in rec.instants if i.category == "retry"]
        assert len(retries) == fault["attempts"] - 1
        assert rec.counter_total("fault.attempts") == fault["attempts"]
        assert rec.counter_total("fault.injected.crash") >= 1
        fired = [i for i in rec.instants if i.category == "fault.injected"]
        assert fired, "injector firings must land as instants"

    def test_checkpoint_restores_recorded(self, papar):
        # single rank, as in the chaos suite: job 0 is guaranteed committed
        # before the crash at job 1, so the retry must restore it
        rec = Recorder()
        papar.run(
            BLAST_WORKFLOW_XML, ARGS, data=blast_data(), backend="mpi",
            num_ranks=1, recorder=rec,
            cluster=ClusterModel(num_nodes=1, ranks_per_node=1,
                                 network=INFINIBAND_QDR),
            faults="crash:rank=0,job=1,when=before",
            checkpoint=MemoryCheckpointStore(),
            retry=RetryPolicy(max_attempts=4, base_delay_s=0.01),
            deadlock_grace=30.0,
        )
        restored = [i for i in rec.instants if i.category == "checkpoint"]
        assert restored, "resume-from-checkpoint must record restore instants"
        assert all(i.name.startswith("restored:") for i in restored)

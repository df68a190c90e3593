"""Simulated time is priced from each job's counts (``repro.cluster.model.price``).

Unit properties of :func:`price` over hand-made :class:`JobCounts`, then
through ``PaPar.run`` on every backend, where ``price`` is the only producer
of ``PartitionResult.elapsed`` (``tests/mpi/test_virtual_time.py`` prices a
generic ``run_mpi`` program as one step of its traffic).
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import PaPar
from repro.cluster import ETHERNET_10G, INFINIBAND_QDR, ClusterModel, price
from repro.config import BLAST_INPUT_XML, EDGE_INPUT_XML
from repro.config.examples import BLAST_WORKFLOW_XML, HYBRID_CUT_WORKFLOW_XML
from repro.core.dataset import Dataset
from repro.core.perf import JobCounts
from repro.formats import BLAST_INDEX_SCHEMA, EDGE_LIST_SCHEMA


def cluster(nodes=2, rpn=2, network=INFINIBAND_QDR):
    return ClusterModel(num_nodes=nodes, ranks_per_node=rpn, network=network)


def sorting(n, **kw):
    return JobCounts(kernels={"sort": n}, **kw)


# -- price itself ------------------------------------------------------------


def test_no_jobs_cost_nothing():
    assert price([], cluster()) == 0.0


def test_an_idle_job_costs_its_overhead():
    c = cluster()
    assert price([[JobCounts() for _ in range(c.size)]], c) == c.cost.job_overhead


def test_a_job_costs_its_slowest_rank():
    c = cluster()
    fast = price([[sorting(10)] + [JobCounts()] * 3], c)
    slow = price([[sorting(10_000)] + [JobCounts()] * 3], c)
    both = price([[sorting(10), sorting(10_000), JobCounts(), JobCounts()]], c)
    assert fast < slow == both


@given(st.lists(st.integers(min_value=0, max_value=10**7), max_size=12))
def test_jobs_add_up(records):
    c = cluster(nodes=1, rpn=1)
    jobs = [[sorting(n)] for n in records]
    assert price(jobs, c) == pytest.approx(sum(price([job], c) for job in jobs))
    # a job never makes the run cheaper
    assert price(jobs + [[sorting(5)]], c) > price(jobs, c)


def test_a_float_is_a_line_item():
    c = cluster(nodes=1, rpn=1)
    jobs = [[sorting(1000)]]
    assert price(jobs + [0.25], c) == price(jobs, c) + 0.25


def test_a_straggler_scales_only_its_ranks_compute():
    c = cluster()
    sent = {3: [1 << 20, 4]}

    def seconds(factor):
        slow = sorting(50_000, sent=dict(sent), packed=4096, slowdown=factor)
        return price([[slow, sorting(50_000), JobCounts(), JobCounts()]], c)

    compute = c.compute(c.cost.sort(50_000))
    # rank 0 is the slowest either way: only its compute grows, by the factor
    assert seconds(4.0) - seconds(1.0) == pytest.approx(3 * compute)
    # the same factor on a rank with no compute changes nothing
    idle = JobCounts(slowdown=4.0)
    assert price([[sorting(10), idle]], cluster(nodes=1)) == price(
        [[sorting(10), JobCounts()]], cluster(nodes=1))


def test_cross_node_costs_more_than_intra_node():
    c = cluster()
    intra = JobCounts(sent={1: [1_000_000, 1]})  # ranks 0 and 1 share node 0
    cross = JobCounts(sent={2: [1_000_000, 1]})  # node 0 -> node 1
    idle = [JobCounts()] * 3
    assert price([[cross] + idle], c) > price([[intra] + idle], c)


def test_infiniband_faster_than_ethernet():
    job = [JobCounts(sent={2: [4_000_000, 1]})] + [JobCounts()] * 3
    assert price([job], cluster(network=INFINIBAND_QDR)) < price(
        [job], cluster(network=ETHERNET_10G))


# -- PaPar.run: price is the only producer of elapsed --------------------------


def blast_data():
    rng = np.random.default_rng(17)
    arr = np.zeros(3000, dtype=BLAST_INDEX_SCHEMA.dtype)
    arr["seq_start"] = np.arange(3000)
    arr["seq_size"] = rng.integers(10, 2000, 3000)
    arr["desc_start"] = np.arange(3000)
    arr["desc_size"] = 40
    return Dataset.from_array(BLAST_INDEX_SCHEMA, arr)


def hybrid_data():
    rng = np.random.default_rng(19)
    pairs = zip(rng.integers(0, 2000, 4000), rng.zipf(1.8, size=4000) % 300)
    return Dataset.from_rows(EDGE_LIST_SCHEMA, sorted({(int(s), int(t)) for s, t in pairs}))


CASES = {
    "blast": (BLAST_WORKFLOW_XML,
              {"input_path": "/in", "output_path": "/out", "num_partitions": 6}, blast_data),
    "hybrid": (HYBRID_CUT_WORKFLOW_XML,
               {"input_file": "/in", "output_path": "/out", "num_partitions": 5,
                "threshold": 8}, hybrid_data),
}


def run(case, backend, ranks=1, **kw):
    workflow, args, data = CASES[case]
    papar = PaPar()
    papar.register_input(BLAST_INPUT_XML)
    papar.register_input(EDGE_INPUT_XML)
    return papar.run(workflow, args, data=data(), backend=backend, num_ranks=ranks, **kw)


@pytest.mark.parametrize("backend,ranks", [("serial", 1), ("mpi", 4), ("mapreduce", 4),
                                           ("process", 2)])
def test_no_model_gives_zero_elapsed(backend, ranks):
    assert run("blast", backend, ranks).elapsed == 0.0


@pytest.mark.parametrize("backend,ranks", [("mpi", 4), ("process", 2)])
def test_every_backend_prices_a_model(backend, ranks):
    nodes = ranks // 2
    result = run("hybrid", backend, ranks, cluster=cluster(nodes=nodes))
    assert result.elapsed > 2 * cluster().cost.job_overhead


@pytest.mark.parametrize("case", sorted(CASES))
def test_serial_and_mpi_at_one_rank_price_the_same(case):
    """One rank counts the same kernels over the same records whether it
    runs inline or on the MPI runtime, and sends nothing either way."""
    one = cluster(nodes=1, rpn=1)
    serial = run(case, "serial", cluster=one)
    mpi = run(case, "mpi", cluster=one)
    assert serial.elapsed > 0.0
    assert serial.elapsed == mpi.elapsed


def test_serial_refuses_a_model_of_more_ranks():
    from repro.errors import WorkflowError

    with pytest.raises(WorkflowError, match="cluster model has 4 ranks"):
        run("blast", "serial", cluster=cluster())


def test_mapreduce_prices_no_kernel():
    one = cluster(nodes=1, rpn=1)
    result = run("blast", "mapreduce", cluster=one)
    assert result.elapsed == 2 * one.cost.job_overhead  # sort + distr, nothing sent


def test_a_delay_adds_exactly_its_seconds():
    c = cluster()
    plain = run("blast", "mpi", 4, cluster=c)
    delayed = run("blast", "mpi", 4, cluster=c, faults=["delay:p=1,times=1,seconds=0.25"])
    assert delayed.extra["fault"]["injected"]["counts"] == {"delay": 1}
    assert delayed.elapsed == plain.elapsed + 0.25


def test_a_straggler_slows_the_priced_run():
    c = cluster()
    plain = run("hybrid", "mpi", 4, cluster=c)
    slow = run("hybrid", "mpi", 4, cluster=c, faults=["straggler:rank=1,factor=50"])
    assert slow.elapsed > plain.elapsed
    assert [p.records.tolist() for p in slow.partitions] == [
        p.records.tolist() for p in plain.partitions]


def test_a_resumed_run_prices_to_the_fault_free_run_plus_backoff():
    """Crash after job 0 committed: job 0's counts come back from the
    checkpoint, job 1 is counted again, and the backoff is one line item."""
    from repro.fault import MemoryCheckpointStore, RetryPolicy

    c = cluster()
    plain = run("blast", "mpi", 4, cluster=c)
    resumed = run(
        "blast", "mpi", 4, cluster=c, faults=["crash:rank=1,job=1,when=before"],
        checkpoint=MemoryCheckpointStore(), retry=RetryPolicy(max_attempts=3),
    )
    report = resumed.extra["fault"]
    assert report["attempts"] == 2 and report["recovered_jobs"] == ["sort"]
    assert report["backoff_s"] > 0.0
    assert resumed.elapsed == plain.elapsed + report["backoff_s"]

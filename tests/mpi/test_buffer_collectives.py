"""Buffer-path (capitalized) collectives on numpy arrays."""

import numpy as np
import pytest

from repro.mpi import MAX, SUM, run_mpi

SIZES = [1, 2, 3, 4, 7]


@pytest.mark.parametrize("size", SIZES)
def test_Bcast(size):
    def prog(comm):
        buf = np.arange(50, dtype=np.float64) if comm.rank == 0 else np.zeros(50)
        comm.Bcast(buf)
        return buf

    run = run_mpi(prog, size)
    for r in run.results:
        np.testing.assert_array_equal(r, np.arange(50, dtype=np.float64))


@pytest.mark.parametrize("size", SIZES)
def test_Reduce_sum(size):
    def prog(comm):
        return comm.Reduce(np.full(10, comm.rank + 1, dtype=np.int64), SUM)

    run = run_mpi(prog, size)
    expected = size * (size + 1) // 2
    np.testing.assert_array_equal(run.results[0], np.full(10, expected))
    assert all(r is None for r in run.results[1:])


@pytest.mark.parametrize("size", SIZES)
def test_Allreduce(size):
    def prog(comm):
        return comm.Allreduce(np.array([comm.rank, -comm.rank], dtype=np.float64), MAX)

    run = run_mpi(prog, size)
    for r in run.results:
        np.testing.assert_array_equal(r, [size - 1, 0])


def test_Reduce_does_not_mutate_input():
    def prog(comm):
        buf = np.full(5, comm.rank + 1, dtype=np.int64)
        comm.Reduce(buf, SUM)
        return buf

    run = run_mpi(prog, 4)
    for rank, buf in enumerate(run.results):
        np.testing.assert_array_equal(buf, np.full(5, rank + 1))


def test_buffer_collectives_charge_virtual_time():
    """Buffer collectives are tallied like the object path, and priced."""
    from repro.cluster import ClusterModel, INFINIBAND_QDR, price
    from repro.core.perf import JobCounts

    cluster = ClusterModel(num_nodes=2, ranks_per_node=2, network=INFINIBAND_QDR)

    def prog(comm):
        comm.Allreduce(np.ones(100_000), SUM)
        return comm.sent, comm.packed

    run = run_mpi(prog, 4)
    assert all(sent and packed == 0 for sent, packed in run.results)
    step = [JobCounts(sent=sent, packed=packed) for sent, packed in run.results]
    assert price([step], cluster) > cluster.cost.job_overhead

"""Collective operations across a range of communicator sizes."""

import numpy as np
import pytest

from repro.errors import MPIError
from repro.mpi import MAX, SUM, ReduceOp, run_mpi

SIZES = [1, 2, 3, 4, 5, 8]


@pytest.mark.parametrize("size", SIZES)
def test_bcast(size):
    def prog(comm):
        obj = {"payload": list(range(10))} if comm.rank == 0 else None
        return comm.bcast(obj)

    run = run_mpi(prog, size)
    assert all(r == {"payload": list(range(10))} for r in run.results)


@pytest.mark.parametrize("size", SIZES)
def test_reduce_sum(size):
    def prog(comm):
        return comm.reduce(comm.rank + 1, SUM)

    run = run_mpi(prog, size)
    expected = size * (size + 1) // 2
    assert run.results[0] == expected
    assert all(r is None for r in run.results[1:])


@pytest.mark.parametrize("size", SIZES)
def test_reduce_respects_rank_order_for_noncommutative_op(size):
    """String concatenation is associative but not commutative."""
    concat = ReduceOp("CONCAT", lambda a, b: a + b)

    def prog(comm):
        return comm.reduce(str(comm.rank), concat)

    run = run_mpi(prog, size)
    assert run.results[0] == "".join(str(i) for i in range(size))


@pytest.mark.parametrize("size", SIZES)
def test_allreduce(size):
    def prog(comm):
        return comm.allreduce(comm.rank + 1, SUM)

    run = run_mpi(prog, size)
    assert run.results == [size * (size + 1) // 2] * size


def test_allreduce_numpy_arrays():
    def prog(comm):
        return comm.allreduce(np.full(5, comm.rank, dtype=np.int64), SUM)

    run = run_mpi(prog, 4)
    for r in run.results:
        np.testing.assert_array_equal(r, np.full(5, 6))


@pytest.mark.parametrize("op,expected", [(MAX, 3), (ReduceOp("MIN", min), 0)])
def test_reduce_other_ops(op, expected):
    def prog(comm):
        return comm.reduce(comm.rank, op)

    run = run_mpi(prog, 4)
    assert run.results[0] == expected


@pytest.mark.parametrize("size", SIZES)
def test_gather(size):
    def prog(comm):
        return comm.gather((comm.rank + 1) ** 2)

    run = run_mpi(prog, size)
    assert run.results[0] == [(i + 1) ** 2 for i in range(size)]
    assert all(r is None for r in run.results[1:])


@pytest.mark.parametrize("size", SIZES)
def test_allgather(size):
    def prog(comm):
        return comm.allgather(comm.rank * 2)

    run = run_mpi(prog, size)
    assert run.results == [[2 * i for i in range(size)]] * size


@pytest.mark.parametrize("size", SIZES)
def test_alltoall(size):
    def prog(comm):
        return comm.alltoall([f"{comm.rank}->{d}" for d in range(size)])

    run = run_mpi(prog, size)
    for rank, got in enumerate(run.results):
        assert got == [f"{s}->{rank}" for s in range(size)]


@pytest.mark.parametrize("size", SIZES)
def test_scan(size):
    def prog(comm):
        return comm.scan(comm.rank + 1, SUM)

    run = run_mpi(prog, size)
    assert run.results == [sum(range(1, i + 2)) for i in range(size)]


@pytest.mark.parametrize("size", SIZES)
def test_exscan(size):
    def prog(comm):
        return comm.exscan(comm.rank + 1, SUM, identity=0)

    run = run_mpi(prog, size)
    assert run.results == [sum(range(1, i + 1)) for i in range(size)]


@pytest.mark.parametrize("size", [2, 4, 6])
def test_alltoallv_buffers(size):
    def prog(comm):
        # rank r sends (d+1) copies of value 100*r+d to destination d
        chunks = [np.full(d + 1, 100 * comm.rank + d, dtype=np.int64) for d in range(size)]
        sendbuf = np.concatenate(chunks)
        counts = [d + 1 for d in range(size)]
        recvbuf, recvcounts = comm.Alltoallv(sendbuf, counts)
        return recvbuf, recvcounts

    run = run_mpi(prog, size)
    for rank, (recvbuf, recvcounts) in enumerate(run.results):
        np.testing.assert_array_equal(recvcounts, np.full(size, rank + 1))
        expected = np.concatenate(
            [np.full(rank + 1, 100 * s + rank, dtype=np.int64) for s in range(size)]
        )
        np.testing.assert_array_equal(recvbuf, expected)


def test_alltoallv_count_mismatch_raises():
    def prog(comm):
        comm.Alltoallv(np.arange(3), [1, 1])  # sums to 2, buffer has 3

    with pytest.raises(MPIError, match="sendcounts"):
        run_mpi(prog, 2)

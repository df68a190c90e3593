"""Kernel timings of the simulated MPI runtime itself.

Not a paper figure — infrastructure health: wall-clock throughput of the
thread-backed runtime's primitives, so regressions in the substrate that
every experiment runs on are visible.
"""

import numpy as np
import pytest

from repro.mpi import SUM, run_mpi


def test_point_to_point_throughput(benchmark):
    payload = np.zeros(1 << 16, dtype=np.int64)

    def prog(comm):
        if comm.rank == 0:
            for _ in range(20):
                comm.Send(payload, dest=1)
        else:
            buf = np.empty_like(payload)
            for _ in range(20):
                comm.Recv(buf, source=0)
        return comm.take_traffic()

    result = benchmark(run_mpi, prog, 2)
    sent, _packed = result.results[0]
    assert sent == {1: [20 * payload.nbytes, 20]}


def test_alltoall_objects(benchmark):
    def prog(comm):
        chunks = [list(range(200)) for _ in range(comm.size)]
        return comm.alltoall(chunks)

    result = benchmark(run_mpi, prog, 8)
    assert len(result.results) == 8


def test_allreduce_array(benchmark):
    def prog(comm):
        return comm.Allreduce(np.ones(1 << 14), SUM)

    result = benchmark(run_mpi, prog, 8)
    np.testing.assert_array_equal(result.results[0], np.full(1 << 14, 8.0))


def test_allgather_rounds(benchmark):
    def prog(comm):
        for _ in range(10):
            got = comm.allgather(comm.rank)
        return got

    result = benchmark(run_mpi, prog, 8)
    assert result.results == [list(range(8))] * 8


def test_launcher_overhead(benchmark):
    """Cost of spinning an SPMD world up and down."""
    result = benchmark(run_mpi, lambda comm: comm.rank, 8)
    assert result.results == list(range(8))

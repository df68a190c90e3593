"""MPI runtime stress and property tests."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.mpi import SUM, run_mpi

FAST = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestCollectiveProperties:
    @FAST
    @given(
        size=st.integers(1, 7),
        values=st.lists(st.integers(-1000, 1000), min_size=7, max_size=7),
    )
    def test_reduce_equals_python_sum(self, size, values):
        def prog(comm):
            return comm.reduce(values[comm.rank], SUM)

        run = run_mpi(prog, size)
        assert run.results[0] == sum(values[:size])

    @FAST
    @given(size=st.integers(1, 6), data=st.binary(max_size=2000))
    def test_bcast_arbitrary_payload(self, size, data):
        def prog(comm):
            return comm.bcast(data if comm.rank == 0 else None)

        run = run_mpi(prog, size)
        assert all(r == data for r in run.results)

    @FAST
    @given(size=st.integers(2, 6), seed=st.integers(0, 100))
    def test_alltoall_numpy_payloads(self, size, seed):
        def prog(comm):
            rng = np.random.default_rng(seed * 100 + comm.rank)
            chunks = [rng.integers(0, 100, size=d + 1) for d in range(comm.size)]
            received = comm.alltoall(chunks)
            return [c.sum() for c in received]

        run = run_mpi(prog, size)
        # recompute expected sums
        for rank in range(size):
            expected = []
            for src in range(size):
                rng = np.random.default_rng(seed * 100 + src)
                chunks = [rng.integers(0, 100, size=d + 1) for d in range(size)]
                expected.append(chunks[rank].sum())
            assert run.results[rank] == expected

    @FAST
    @given(size=st.integers(1, 6))
    def test_scan_exscan_relation(self, size):
        def prog(comm):
            inc = comm.scan(comm.rank + 1, SUM)
            exc = comm.exscan(comm.rank + 1, SUM, identity=0)
            return inc - exc == comm.rank + 1

        run = run_mpi(prog, size)
        assert all(run.results)


class TestMessageStress:
    def test_many_small_messages(self):
        def prog(comm):
            if comm.rank == 0:
                for i in range(500):
                    comm.send(i, dest=1, tag=i % 7)
                return None
            out = []
            for i in range(500):
                out.append(comm.recv(source=0, tag=i % 7))
            return out

        run = run_mpi(prog, 2)
        # FIFO holds per (source, tag) stream
        received = run.results[1]
        by_tag = {}
        for v in received:
            by_tag.setdefault(v % 7, []).append(v)
        for tag, values in by_tag.items():
            assert values == sorted(values)

    def test_ring_pipeline(self):
        """Token circulates the ring many times without deadlock."""

        def prog(comm):
            token = 0
            nxt = (comm.rank + 1) % comm.size
            prev = (comm.rank - 1) % comm.size
            for _ in range(50):
                if comm.rank == 0:
                    comm.send(token + 1, dest=nxt)
                    token = comm.recv(source=prev)
                else:
                    token = comm.recv(source=prev)
                    comm.send(token + 1, dest=nxt)
            return token

        run = run_mpi(prog, 5)
        assert run.results[0] == 50 * 5

    def test_all_pairs_concurrent_exchange(self):
        def prog(comm):
            for peer in range(comm.size):
                if peer != comm.rank:
                    comm.send((comm.rank, peer), dest=peer, tag=99)
            peers = [p for p in range(comm.size) if p != comm.rank]
            got = [comm.recv(source=peer, tag=99) for peer in peers]
            return sorted(got)

        run = run_mpi(prog, 6)
        for rank, got in enumerate(run.results):
            assert got == sorted((s, rank) for s in range(6) if s != rank)

    def test_large_buffer_alltoallv(self):
        def prog(comm):
            n = 200_000
            counts = [n // comm.size] * comm.size
            counts[-1] += n - sum(counts)
            sendbuf = np.full(n, comm.rank, dtype=np.int64)
            recvbuf, recvcounts = comm.Alltoallv(sendbuf, counts)
            return int(recvbuf.sum()), int(recvcounts.sum())

        run = run_mpi(prog, 4)
        for rank, (total, count) in enumerate(run.results):
            assert count > 0
            # received chunks are constant arrays from each source
            assert total == sum(
                src * (200_000 // 4 + (200_000 - 4 * (200_000 // 4) if src == 3 else 0))
                for src in range(4)
            )

"""Point-to-point semantics of the simulated MPI runtime."""

import numpy as np
import pytest

from repro.errors import MPIError
from repro.mpi import run_mpi


def test_send_recv_object():
    def prog(comm):
        if comm.rank == 0:
            comm.send({"a": 7, "b": 3.14}, dest=1, tag=11)
            return None
        return comm.recv(source=0, tag=11)

    run = run_mpi(prog, 2)
    assert run.results[1] == {"a": 7, "b": 3.14}


def test_send_recv_roundtrip_many_types():
    payloads = [42, "text", (1, 2), [None, {"k": b"v"}], frozenset({3})]

    def prog(comm):
        if comm.rank == 0:
            for i, p in enumerate(payloads):
                comm.send(p, dest=1, tag=i)
            return None
        return [comm.recv(source=0, tag=i) for i in range(len(payloads))]

    run = run_mpi(prog, 2)
    assert run.results[1] == payloads


def test_messages_are_isolated_copies():
    """Mutating a received object must not affect the sender's copy."""

    def prog(comm):
        data = [1, 2, 3]
        if comm.rank == 0:
            comm.send(data, dest=1)
            comm.recv(source=1)  # sync
            return data
        got = comm.recv(source=0)
        got.append(99)
        comm.send(None, dest=0)
        return got

    run = run_mpi(prog, 2)
    assert run.results[0] == [1, 2, 3]
    assert run.results[1] == [1, 2, 3, 99]


def test_fifo_per_source():
    def prog(comm):
        if comm.rank == 0:
            for i in range(50):
                comm.send(i, dest=1, tag=7)
            return None
        return [comm.recv(source=0, tag=7) for _ in range(50)]

    run = run_mpi(prog, 2)
    assert run.results[1] == list(range(50))


def test_tag_matching_out_of_order():
    """A receiver may pick a later-sent message by tag."""

    def prog(comm):
        if comm.rank == 0:
            comm.send("first", dest=1, tag=1)
            comm.send("second", dest=1, tag=2)
            return None
        second = comm.recv(source=0, tag=2)
        first = comm.recv(source=0, tag=1)
        return (first, second)

    run = run_mpi(prog, 2)
    assert run.results[1] == ("first", "second")


def test_buffer_send_recv():
    def prog(comm):
        if comm.rank == 0:
            comm.Send(np.arange(100, dtype=np.int64), dest=1, tag=77)
            return None
        buf = np.empty(100, dtype=np.int64)
        comm.Recv(buf, source=0, tag=77)
        return buf

    run = run_mpi(prog, 2)
    np.testing.assert_array_equal(run.results[1], np.arange(100))


def test_buffer_recv_too_small_raises():
    def prog(comm):
        if comm.rank == 0:
            comm.Send(np.arange(10, dtype=np.int64), dest=1)
            return None
        buf = np.empty(5, dtype=np.int64)
        comm.Recv(buf, source=0)

    with pytest.raises(MPIError, match="too small"):
        run_mpi(prog, 2)


def test_rank_exception_propagates_and_does_not_hang():
    def prog(comm):
        if comm.rank == 0:
            raise ValueError("boom on rank 0")
        # rank 1 would deadlock here without fabric abort
        return comm.recv(source=0)

    with pytest.raises((ValueError, MPIError)):
        run_mpi(prog, 2)


def test_traffic_stats_counted():
    def prog(comm):
        if comm.rank == 0:
            comm.send(b"0" * 1000, dest=1)
        else:
            comm.recv(source=0)
        return comm.take_traffic()

    (sent0, packed0), (sent1, packed1) = run_mpi(prog, 2).results
    # the sender's communicator tallies [bytes, messages] per destination
    assert list(sent0) == [1]
    nbytes, messages = sent0[1]
    assert messages == 1 and nbytes >= 1000
    assert sent1 == {}
    # both ends count the pickled bytes
    assert packed0 == packed1 == nbytes

"""Process-backed SPMD execution (true parallelism)."""

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.errors import MPIError
from repro.mpi import SUM, run_mpi
from repro.mpi.process_backend import run_mpi_processes


# rank programs must be module-level (picklable) for the process backend
def _rank_id(comm):
    return (comm.rank, comm.size, os.getpid())


def _allreduce_prog(comm):
    return comm.allreduce(comm.rank + 1, SUM)


def _buffer_prog(comm):
    return comm.Allreduce(np.full(100, comm.rank, dtype=np.float64), SUM)


def _alltoall_prog(comm):
    return comm.alltoall([f"{comm.rank}->{d}" for d in range(comm.size)])


def _alltoall_traffic_prog(comm):
    _alltoall_prog(comm)
    return comm.take_traffic()


def _sort_prog(comm, data):
    """Distributed sample-sort matching the thread backend's semantics."""
    from repro.mapreduce.sampling import sample_key_ranges

    local = np.array_split(data, comm.size)[comm.rank]
    boundaries = sample_key_ranges(comm, local, num_reducers=comm.size)
    owners = np.searchsorted(np.asarray(boundaries), local, side="left")
    chunks = comm.alltoall([local[owners == d] for d in range(comm.size)])
    merged = np.sort(np.concatenate(chunks), kind="stable")
    return merged


def _failing_prog(comm):
    if comm.rank == 1:
        raise ValueError("rank 1 exploded")
    return comm.rank


class TestProcessBackend:
    def test_distinct_processes(self):
        run = run_mpi_processes(_rank_id, 3)
        pids = {pid for _, _, pid in run.results}
        assert len(pids) == 3  # genuinely separate processes
        assert [(r, s) for r, s, _ in run.results] == [(0, 3), (1, 3), (2, 3)]

    def test_allreduce_matches_thread_backend(self):
        proc = run_mpi_processes(_allreduce_prog, 4)
        thread = run_mpi(_allreduce_prog, 4)
        assert proc.results == thread.results == [10, 10, 10, 10]

    def test_buffer_collectives(self):
        run = run_mpi_processes(_buffer_prog, 3)
        for r in run.results:
            np.testing.assert_array_equal(r, np.full(100, 3.0))

    def test_alltoall(self):
        run = run_mpi_processes(_alltoall_prog, 4)
        for rank, got in enumerate(run.results):
            assert got == [f"{s}->{rank}" for s in range(4)]

    def test_distributed_sort(self):
        rng = np.random.default_rng(0)
        data = rng.integers(0, 10_000, size=5_000)
        run = run_mpi_processes(_sort_prog, 4, args=(data,))
        merged = np.concatenate(run.results)
        np.testing.assert_array_equal(merged, np.sort(data, kind="stable"))

    def test_traffic_counted(self):
        # each rank's communicator tallies what it sent, per destination,
        # and the tally crosses the fork like any result
        run = run_mpi_processes(_alltoall_traffic_prog, 3)
        for rank, (sent, packed) in enumerate(run.results):
            assert set(sent) == {0, 1, 2} - {rank}
            assert all(nbytes > 0 and messages == 1 for nbytes, messages in sent.values())
            assert packed > 0

    def test_rank_failure_propagates(self):
        with pytest.raises(ValueError, match="exploded"):
            run_mpi_processes(_failing_prog, 3)

    def test_size_validation(self):
        with pytest.raises(MPIError):
            run_mpi_processes(_rank_id, 0)


QUIET_RUNS = textwrap.dedent(
    """
    import multiprocessing

    import numpy as np

    from repro.mpi.process_backend import run_mpi_processes
    from repro.mpi.shm import scan_segments

    def noop(comm):
        return comm.rank

    def shuffle(comm):
        got = comm.alltoall([np.arange(5000) + comm.rank for _ in range(comm.size)])
        return int(sum(c.sum() for c in got))

    for prog in (noop, noop, noop, shuffle):
        run = run_mpi_processes(prog, 2)
        assert len(run.results) == 2
        assert scan_segments(run.extra["transport"]["shm_prefix"]) == []
    assert multiprocessing.active_children() == []
    print("DONE")
    """
)


def test_successful_runs_are_silent_and_leave_nothing_behind():
    """Ranks that reported success are joined, not SIGTERMed mid-shutdown:
    that race used to print a ShutdownRequested traceback per rank."""
    proc = subprocess.run(
        [sys.executable, "-c", QUIET_RUNS], capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip() == "DONE"
    assert proc.stderr == ""


def _numpy_shuffle_prog(comm):
    """Alltoall of numpy columns: everything should ride shared memory."""
    rng = np.random.default_rng(comm.rank)
    chunks = [rng.integers(0, 100, size=1000) for _ in range(comm.size)]
    got = comm.alltoall(chunks)
    return int(sum(c.sum() for c in got))


def _live_segments_per_round_prog(comm):
    """20 alltoall rounds; the most ``pp*`` names alive at a round boundary.

    The run's segment prefix starts with ``pp`` + the spawner's pid in hex.
    """
    from repro.mpi.shm import scan_segments

    prefix = f"pp{os.getppid():x}"
    most = 0
    for round_no in range(20):
        rng = np.random.default_rng(100 * comm.rank + round_no)
        comm.alltoall([rng.integers(0, 50, size=2000) for _ in range(comm.size)])
        most = max(most, len(scan_segments(prefix)))
    return most


def _crashing_shuffle_prog(comm):
    """Crash one rank mid-shuffle, after segments are already in flight."""
    comm.alltoall([np.arange(500) for _ in range(comm.size)])
    if comm.rank == 1:
        raise ValueError("rank 1 died mid-shuffle")
    comm.alltoall([np.arange(500) for _ in range(comm.size)])
    return comm.rank


class TestTransportAccounting:
    def test_transport_summary_in_extra(self):
        run = run_mpi_processes(_numpy_shuffle_prog, 3)
        t = run.extra["transport"]
        assert t["kind"] == "shm"
        assert t["shm_bytes"] > 0
        assert t["segments_created"] > 0
        assert t["segments_unlinked"] >= 0
        assert set(t["per_rank"]) == {0, 1, 2}

    def test_numpy_payloads_never_pickle(self):
        # the zero-copy guarantee: array bytes travel via shared memory,
        # the pickle lane stays at exactly zero
        run = run_mpi_processes(_numpy_shuffle_prog, 4)
        t = run.extra["transport"]
        assert t["pickle_bytes"] == 0
        assert all(r["pickle_bytes"] == 0 for r in t["per_rank"].values())
        assert t["shm_bytes"] >= 4 * 4 * 1000  # every column out-of-band

    def test_receivers_unlink_what_they_decode(self):
        size = 3
        run = run_mpi_processes(_live_segments_per_round_prog, size)
        t = run.extra["transport"]
        assert max(run.results) <= size * (size - 1)
        assert t["segments_created"] >= 20 * size * (size - 1)
        assert t["segments_unlinked"] == 0  # nothing was left for the sweep

    def test_thread_backend_leaves_shm_lanes_at_zero(self):
        run = run_mpi(_numpy_shuffle_prog, 3)
        assert "transport" not in run.extra


class TestShmCleanup:
    def test_no_leaked_segments_on_clean_exit(self):
        from repro.mpi.shm import scan_segments

        run = run_mpi_processes(_numpy_shuffle_prog, 3)
        prefix = run.extra["transport"]["shm_prefix"]
        assert scan_segments(prefix) == []

    def test_no_leaked_segments_after_crash(self):
        from repro.mpi.shm import scan_segments

        before = set(scan_segments("pp"))
        with pytest.raises(ValueError, match="mid-shuffle"):
            run_mpi_processes(_crashing_shuffle_prog, 3)
        assert set(scan_segments("pp")) - before == set()

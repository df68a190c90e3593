"""Abort and deadlock-diagnosis paths of the fabric.

Companion to test_failure_injection.py: these tests pin down the *prompt*
wakeup guarantees (abort must not wait out the deadlock grace), the pending
``(source, tag)`` state carried by :class:`~repro.errors.DeadlockError`, and
the perf-counter merge over dead ranks' ``None`` slots.
"""

import threading
import time

import pytest

from repro.errors import DeadlockError, MPIError
from repro.mapreduce.columnar import PerfCounters
from repro.mpi import run_mpi
from repro.mpi.fabric import Fabric


class TestAbortWakesWaiters:
    def test_mid_collective_abort_ends_run_promptly(self):
        def prog(comm):
            if comm.rank == 1:
                raise RuntimeError("dies mid-collective")
            comm.alltoall([comm.rank] * comm.size)

        t0 = time.perf_counter()
        with pytest.raises((RuntimeError, MPIError)):
            run_mpi(prog, 4, deadlock_grace=60.0)
        assert time.perf_counter() - t0 < 5.0

    def test_first_abort_wins(self):
        fabric = Fabric(2)
        root = RuntimeError("root cause")
        fabric.abort(root)
        fabric.abort(MPIError("follow-on from a sibling rank"))
        assert fabric.aborted is root


class TestDeadlockDiagnosis:
    def test_deadlock_error_carries_pending_state(self):
        fabric = Fabric(2, deadlock_grace=0.1)
        with pytest.raises(DeadlockError) as err:
            fabric.collect(0, source=1, tag=7)
        assert err.value.rank == 0
        assert err.value.pending == {0: (1, 7)}
        assert "(source=1, tag=7)" in str(err.value)

    def test_deadlock_error_names_all_blocked_ranks(self):
        fabric = Fabric(3, deadlock_grace=0.3)
        caught = []

        def blocked_receiver():
            try:
                fabric.collect(1, source=2, tag=4)
            except MPIError as exc:
                caught.append(exc)

        t = threading.Thread(target=blocked_receiver, daemon=True)
        t.start()
        time.sleep(0.05)
        with pytest.raises(DeadlockError) as err:
            fabric.collect(0, source=2, tag=3)
        t.join(timeout=5)
        # the background receiver blocked first, so its grace expires first,
        # while rank 0 is still registered: its error must name both ranks
        assert caught and isinstance(caught[0], DeadlockError)
        assert caught[0].pending == {0: (2, 3), 1: (2, 4)}
        # rank 0 expires after rank 1 already gave up and deregistered
        assert err.value.pending == {0: (2, 3)}

    def test_grace_must_be_positive(self):
        with pytest.raises(MPIError):
            Fabric(2, deadlock_grace=0.0)


class TestPerfCounterMerge:
    def test_merge_ranks_tolerates_none_slots(self):
        """A failed attempt leaves dead ranks' slots as None; the merge must
        survive and sum the live ones."""
        a = PerfCounters()
        with a.job("sort"):  # a rank counts its moves in the job it runs
            a.count_move(10, 100)
        b = PerfCounters()
        with b.job("sort"):
            b.count_move(5, 50)
        total = PerfCounters.merge_ranks([None, a, None, b])
        assert total.records_moved == 15
        assert total.bytes_moved == 150

    def test_merge_ranks_all_none(self):
        total = PerfCounters.merge_ranks([None, None])
        assert total.summary() == {
            "records_moved": 0, "bytes_moved": 0, "phases": {}
        }

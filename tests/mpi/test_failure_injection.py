"""Failure injection: dead ranks must not hang the world."""

import pytest

from repro.errors import MPIError
from repro.mpi import SUM, run_mpi
from repro.mpi.fabric import Fabric, Message


class TestRankFailures:
    @pytest.mark.parametrize("failing_rank", [0, 1, 3])
    def test_failure_during_collective_aborts_everyone(self, failing_rank):
        def prog(comm):
            if comm.rank == failing_rank:
                raise RuntimeError(f"rank {failing_rank} dies")
            # everyone else blocks in a collective involving the dead rank
            return comm.allreduce(comm.rank, SUM)

        with pytest.raises((RuntimeError, MPIError)):
            run_mpi(prog, 4)

    def test_failure_during_barrier(self):
        """Rank 0 waits in gather, the synchronization point, for a dead rank."""

        def prog(comm):
            if comm.rank == 2:
                raise ValueError("boom")
            comm.gather(comm.rank)

        with pytest.raises((ValueError, MPIError)):
            run_mpi(prog, 4)

    def test_failure_before_scatter(self):
        """The root dies before it can hand anything out; receivers must not hang."""

        def prog(comm):
            if comm.rank == 0:
                raise OSError("root died before broadcasting")
            return comm.bcast(None)

        with pytest.raises((OSError, MPIError)):
            run_mpi(prog, 3)

    def test_first_error_reported(self):
        """The original exception (not a follow-on MPIError) is surfaced."""

        def prog(comm):
            if comm.rank == 1:
                raise KeyError("original failure")
            return comm.recv(source=1)

        with pytest.raises((KeyError, MPIError)) as excinfo:
            run_mpi(prog, 2)
        # the root cause is visible either directly or via the cause chain
        exc = excinfo.value
        assert isinstance(exc, KeyError) or "original failure" in repr(exc.__cause__)


class TestFabricDirect:
    def test_abort_wakes_blocked_receiver(self):
        import threading
        import time

        fabric = Fabric(2)
        errors = []

        def receiver():
            try:
                fabric.collect(0, source=1, tag=0)
            except MPIError as exc:
                errors.append(exc)

        t = threading.Thread(target=receiver, daemon=True)
        t.start()
        time.sleep(0.05)
        fabric.abort(RuntimeError("injected"))
        t.join(timeout=5)
        assert not t.is_alive()
        assert errors and "aborted" in str(errors[0])

    def test_deliver_after_abort_raises(self):
        fabric = Fabric(2)
        fabric.abort(RuntimeError("dead"))
        with pytest.raises(MPIError, match="aborted"):
            fabric.deliver(0, Message(source=1, tag=0, payload=b"", nbytes=0))

    def test_deliver_out_of_range(self):
        fabric = Fabric(2)
        with pytest.raises(MPIError, match="out of range"):
            fabric.deliver(5, Message(source=0, tag=0, payload=b"", nbytes=0))

    def test_invalid_size(self):
        with pytest.raises(MPIError):
            Fabric(0)

"""FaultInjector decisions and their effect at the fabric level."""

import pytest

from repro.errors import CorruptMessageError, DeadlockError, InjectedFault, MPIError
from repro.fault import FaultInjector, FaultSchedule
from repro.mpi import run_mpi
from repro.mpi.fabric import Fabric, Message


def make_injector(*specs, seed=0):
    return FaultInjector(FaultSchedule.parse(specs), seed=seed)


def msg(payload=b"hello world", source=0, tag=0):
    return Message(source=source, tag=tag, payload=payload, nbytes=len(payload))


class TestDecisions:
    def test_same_seed_same_decisions(self):
        decisions = []
        for _ in range(2):
            inj = make_injector("drop:p=0.5,times=0", seed=13)
            inj.begin_attempt()
            decisions.append(
                [len(inj.on_deliver(0, 1, msg())) for _ in range(40)]
            )
        assert decisions[0] == decisions[1]
        assert 0 in decisions[0] and 1 in decisions[0]

    def test_decisions_rekeyed_per_attempt(self):
        inj = make_injector("drop:p=0.5,times=0", seed=13)
        inj.begin_attempt()
        first = [len(inj.on_deliver(0, 1, msg())) for _ in range(40)]
        inj.begin_attempt()
        second = [len(inj.on_deliver(0, 1, msg())) for _ in range(40)]
        assert first != second, "a retried attempt must not replay the same draws"

    def test_firing_cap_persists_across_attempts(self):
        inj = make_injector("drop:p=1.0,times=2")
        inj.begin_attempt()
        assert inj.on_deliver(0, 1, msg()) == []
        inj.begin_attempt()
        assert inj.on_deliver(0, 1, msg()) == []
        inj.begin_attempt()
        assert len(inj.on_deliver(0, 1, msg())) == 1, "cap of 2 reached"
        assert inj.counts["drop"] == 2

    def test_link_filter(self):
        inj = make_injector("drop:src=0,dst=1")
        inj.begin_attempt()
        assert len(inj.on_deliver(1, 0, msg(source=1))) == 1
        assert inj.on_deliver(0, 1, msg()) == []


class TestMessageFaultsAtFabricLevel:
    def test_drop_surfaces_as_deadlock_with_pending_state(self):
        inj = make_injector("drop:src=0,dst=1")
        inj.begin_attempt()
        fabric = Fabric(2, deadlock_grace=0.1, injector=inj)
        fabric.deliver(1, msg())
        with pytest.raises(DeadlockError) as err:
            fabric.collect(dest=1, source=0, tag=0)
        assert err.value.rank == 1
        assert err.value.pending == {1: (0, 0)}

    def test_duplicate_suppressed_by_seq_dedup(self):
        inj = make_injector("duplicate:src=0")
        inj.begin_attempt()
        fabric = Fabric(2, deadlock_grace=0.1, injector=inj)
        fabric.deliver(1, msg())
        got = fabric.collect(dest=1, source=0, tag=0)
        assert got.payload == b"hello world"
        # the duplicated copy never reaches the mailbox: a second collect
        # finds nothing and gives up after the grace
        with pytest.raises(DeadlockError):
            fabric.collect(dest=1, source=0, tag=0)
        assert inj.counts == {"duplicate": 1, "duplicates_suppressed": 1}

    def test_delay_slips_virtual_timestamp_only(self):
        """A delay is tallied for pricing; the message arrives unchanged."""
        inj = make_injector("delay:seconds=0.25,times=2")
        inj.begin_attempt()
        fabric = Fabric(2, deadlock_grace=0.1, injector=inj)
        fabric.deliver(1, msg())
        fabric.deliver(1, msg())
        got = fabric.collect(dest=1, source=0, tag=0)
        assert got.payload == b"hello world"
        assert inj.delayed_s == pytest.approx(0.5)
        assert inj.summary()["delayed_s"] == pytest.approx(0.5)

    def test_corrupt_detected_by_transport_checksum(self):
        inj = make_injector("corrupt:src=0")
        inj.begin_attempt()
        fabric = Fabric(2, deadlock_grace=0.1, injector=inj)
        fabric.deliver(1, msg())
        with pytest.raises(CorruptMessageError):
            fabric.collect(dest=1, source=0, tag=0)

    def test_untouched_messages_skip_verification(self):
        inj = make_injector("corrupt:src=0,times=1")
        inj.begin_attempt()
        fabric = Fabric(2, deadlock_grace=0.1, injector=inj)
        fabric.deliver(1, msg())  # corrupted (fires the cap)
        fabric.deliver(1, msg(payload=b"second"))
        with pytest.raises(CorruptMessageError):
            fabric.collect(dest=1, source=0, tag=0)
        fabric2 = Fabric(2, deadlock_grace=0.1, injector=inj)
        fabric2.deliver(1, msg(payload=b"third"))
        assert fabric2.collect(dest=1, source=0, tag=0).payload == b"third"


class TestCrashAndStraggler:
    def test_crash_fires_once_at_its_boundary(self):
        inj = make_injector("crash:rank=1,job=0,when=after")
        inj.begin_attempt()
        inj.check_crash(0, 0, "after")  # wrong rank: no fire
        inj.check_crash(1, 0, "before")  # wrong boundary: no fire
        with pytest.raises(InjectedFault):
            inj.check_crash(1, 0, "after")
        inj.begin_attempt()
        inj.check_crash(1, 0, "after")  # firing cap reached: survives
        assert inj.counts == {"crash": 1}

    def test_straggler_scales_compute(self):
        """The slowdown the driver prices a straggler's compute at."""
        inj = make_injector("straggler:rank=2,factor=4", "straggler:rank=2,factor=1.5",
                            "straggler:rank=0,factor=2")
        assert inj.schedule.slowdowns == {2: 6.0, 0: 2.0}

    def test_summary_reports_counters(self):
        inj = make_injector("drop:p=1.0")
        inj.begin_attempt()
        inj.on_deliver(0, 1, msg())
        s = inj.summary()
        assert s["seed"] == 0
        assert s["attempts"] == 1
        assert s["counts"] == {"drop": 1}
        assert any("drop" in line for line in s["fired"])


class TestEndToEnd:
    def test_duplicate_fault_is_transparent_to_mpi_programs(self):
        def program(comm):
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            comm.send(comm.rank * 10, dest=right, tag=7)
            return comm.recv(source=left, tag=7)

        inj = make_injector("duplicate:times=0")
        inj.begin_attempt()
        run = run_mpi(program, 4, fault_injector=inj)
        assert run.results == [30, 0, 10, 20]
        assert inj.counts["duplicate"] == inj.counts["duplicates_suppressed"]
        assert inj.counts["duplicate"] >= 4

    def test_drop_aborts_the_whole_run(self):
        def program(comm):
            if comm.rank == 0:
                comm.send("ping", dest=1, tag=3)
                return "sent"
            return comm.recv(source=0, tag=3)

        inj = make_injector("drop:src=0,dst=1")
        inj.begin_attempt()
        with pytest.raises(MPIError):
            run_mpi(program, 2, fault_injector=inj, deadlock_grace=0.15)

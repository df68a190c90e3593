"""Worker supervision: crash classification, fast detection, gang teardown.

The acceptance bar for the supervision layer: a SIGKILLed / hung /
silently-exited rank surfaces as a classified WorkerCrash within seconds —
never the 600s run timeout — the whole gang is torn down (kill escalation
included), and the failure path still accounts for every rank that managed
to report.
"""

import multiprocessing as mp
import os
import signal
import time

import numpy as np
import pytest

from repro.errors import MPIError, WorkerCrash
from repro.mpi import process_backend
from repro.mpi.process_backend import run_mpi_processes
from repro.mpi.supervisor import CrashAgent, classify_exit

#: well under the run timeout; detection should beat this by a wide margin
DETECTION_DEADLINE_S = 10.0


# rank programs must be module-level (picklable) for the process backend
def _boundary_prog(comm):
    """One job boundary (where a CrashAgent fires), then return the rank."""
    comm.check_fault(0, "before")
    return comm.rank


def _shuffle_then_boundary_prog(comm):
    """Put real segments in flight before the armed boundary."""
    comm.alltoall([np.arange(500) for _ in range(comm.size)])
    comm.check_fault(0, "before")
    comm.alltoall([np.arange(500) for _ in range(comm.size)])
    return comm.rank


def _stubborn_prog(comm):
    """Ignore SIGTERM, then hit the armed boundary (hang agent)."""
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    comm.check_fault(0, "before")
    return comm.rank


def _all_error_prog(comm):
    raise ValueError(f"rank {comm.rank} boom")


def _assert_no_children():
    # join_thread-ed queues spawn no processes; anything alive is a leak
    deadline = time.monotonic() + 5.0
    while mp.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    assert mp.active_children() == []


class TestClassifyExit:
    def test_sigkill_names_signal_and_hints_oom(self):
        crash = classify_exit(2, -signal.SIGKILL)
        assert isinstance(crash, WorkerCrash)
        assert crash.rank == 2 and crash.kind == "signal"
        assert crash.signal_name == "SIGKILL"
        assert "SIGKILL" in str(crash) and "OOM" in str(crash)

    def test_sigsegv_named_without_oom_hint(self):
        crash = classify_exit(0, -signal.SIGSEGV)
        assert crash.signal_name == "SIGSEGV"
        assert "OOM" not in str(crash)

    def test_nonzero_exit(self):
        crash = classify_exit(1, 23)
        assert crash.kind == "exit" and crash.exitcode == 23
        assert "code 23" in str(crash)

    def test_silent_zero_exit(self):
        crash = classify_exit(3, 0)
        assert crash.kind == "silent"

    def test_as_report_is_plain_data(self):
        report = classify_exit(1, -9).as_report()
        assert report == {
            "rank": 1, "kind": "signal", "exitcode": -9,
            "signal": "SIGKILL", "detail": report["detail"],
        }


class TestCrashAgentSpec:
    def test_full_spec_round_trip(self):
        a = CrashAgent.from_spec("exit:rank=2,job=1,when=after,code=7,marker=/tmp/m")
        assert (a.mode, a.rank, a.job, a.when, a.exit_code, a.marker) == (
            "exit", 2, 1, "after", 7, "/tmp/m"
        )

    def test_defaults(self):
        a = CrashAgent.from_spec("kill:rank=0")
        assert (a.job, a.when, a.marker) == (0, "before", None)

    @pytest.mark.parametrize("spec", [
        "explode:rank=1",          # unknown mode
        "kill:job=0",              # no rank
        "kill:rank=1,blast=2",     # unknown field
        "kill:rank=1,when=during",  # bad boundary
        "kill:rank",               # not key=value
    ])
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            CrashAgent.from_spec(spec)

    def test_from_env(self, monkeypatch):
        monkeypatch.delenv("PAPAR_CRASH_AGENT", raising=False)
        assert CrashAgent.from_env() is None
        monkeypatch.setenv("PAPAR_CRASH_AGENT", "hang:rank=3")
        agent = CrashAgent.from_env()
        assert agent.mode == "hang" and agent.rank == 3

    def test_marker_makes_it_fire_once(self, tmp_path):
        marker = str(tmp_path / "fired")
        agent = CrashAgent("kill", rank=0, marker=marker)
        assert agent._arm_once() is True
        assert os.path.exists(marker)
        assert agent._arm_once() is False  # second attempt: already fired

    def test_off_target_boundaries_do_nothing(self):
        agent = CrashAgent("exit", rank=1, job=2, when="after")
        agent.check_crash(0, 2, "after")    # wrong rank
        agent.check_crash(1, 1, "after")    # wrong job
        agent.check_crash(1, 2, "before")   # wrong boundary


class TestCrashDetection:
    """Real faults surface as classified WorkerCrash, fast."""

    def test_sigkill_detected_quickly_with_rank_and_signal(self):
        agent = CrashAgent("kill", rank=1)
        start = time.monotonic()
        with pytest.raises(WorkerCrash) as excinfo:
            run_mpi_processes(_boundary_prog, 3, timeout=600.0, crash_agent=agent)
        elapsed = time.monotonic() - start
        assert elapsed < DETECTION_DEADLINE_S, f"detection took {elapsed:.1f}s"
        crash = excinfo.value
        assert crash.rank == 1 and crash.kind == "signal"
        assert crash.signal_name == "SIGKILL"
        assert "rank 1" in str(crash) and "SIGKILL" in str(crash)
        _assert_no_children()

    def test_nonzero_exit_detected_and_classified(self):
        agent = CrashAgent("exit", rank=2, exit_code=23)
        with pytest.raises(WorkerCrash) as excinfo:
            run_mpi_processes(_boundary_prog, 3, timeout=600.0, crash_agent=agent)
        assert excinfo.value.rank == 2
        assert excinfo.value.kind == "exit"
        assert excinfo.value.exitcode == 23
        _assert_no_children()

    def test_hang_detected_via_heartbeat_loss(self):
        agent = CrashAgent("hang", rank=1)
        start = time.monotonic()
        with pytest.raises(WorkerCrash) as excinfo:
            run_mpi_processes(
                _boundary_prog, 3, timeout=600.0, hang_timeout=1.5, crash_agent=agent
            )
        elapsed = time.monotonic() - start
        assert elapsed < DETECTION_DEADLINE_S
        assert excinfo.value.rank == 1 and excinfo.value.kind == "hang"
        assert "heartbeat" in str(excinfo.value)
        _assert_no_children()

    def test_no_shm_segments_leak_after_kill(self):
        from repro.mpi.shm import scan_segments

        before = set(scan_segments("pp"))
        agent = CrashAgent("kill", rank=1)
        with pytest.raises(WorkerCrash):
            run_mpi_processes(
                _shuffle_then_boundary_prog, 3, timeout=600.0, crash_agent=agent
            )
        assert set(scan_segments("pp")) - before == set()
        _assert_no_children()

    def test_env_var_arms_the_agent(self, monkeypatch):
        monkeypatch.setenv("PAPAR_CRASH_AGENT", "exit:rank=0,code=11")
        with pytest.raises(WorkerCrash) as excinfo:
            run_mpi_processes(_boundary_prog, 2, timeout=600.0)
        assert excinfo.value.rank == 0 and excinfo.value.exitcode == 11


class TestTeardownEscalation:
    def test_sigterm_immune_worker_is_killed_not_leaked(self, monkeypatch):
        # a SIGTERM-blind hung worker must fall through to kill() instead of
        # surviving the old terminate+join teardown
        monkeypatch.setattr(process_backend, "TERM_GRACE", 0.5)
        agent = CrashAgent("hang", rank=1)
        with pytest.raises(WorkerCrash) as excinfo:
            run_mpi_processes(
                _stubborn_prog, 3, timeout=600.0, hang_timeout=1.0, crash_agent=agent
            )
        assert excinfo.value.kind == "hang"
        _assert_no_children()


class TestFailureAccounting:
    def test_error_path_drains_all_exit_messages(self):
        with pytest.raises(ValueError, match="boom") as excinfo:
            run_mpi_processes(_all_error_prog, 3)
        transport = excinfo.value.papar_transport
        # every rank errored near-simultaneously; the drain must still fold
        # all three exit messages into the accounting
        assert set(transport["per_rank"]) == {0, 1, 2}
        assert transport["kind"] == "shm"
        _assert_no_children()

    def test_crash_error_carries_partial_transport(self):
        agent = CrashAgent("kill", rank=1)
        with pytest.raises(WorkerCrash) as excinfo:
            run_mpi_processes(
                _shuffle_then_boundary_prog, 3, timeout=600.0, crash_agent=agent
            )
        transport = excinfo.value.papar_transport
        assert transport["kind"] == "shm"  # summary exists even on crash

    def test_timeout_names_pending_ranks(self):
        agent = CrashAgent("hang", rank=1)
        with pytest.raises(MPIError, match="pending ranks \\[1\\]"):
            # hang detection off: only the (short) global timeout can fire
            run_mpi_processes(
                _boundary_prog, 3, timeout=2.0, hang_timeout=None, crash_agent=agent
            )
        _assert_no_children()

"""Real-fault chaos: the process backend's checkpointed gang-restart.

Unlike :mod:`tests.fault.test_chaos` (simulated faults on the threaded
fabric), these faults are *real*: a :class:`~repro.mpi.supervisor.CrashAgent`
SIGKILLs, hangs, or exit(N)s a forked rank at a job boundary.  For each
case-study workflow × {kill, hang, exit} × {4, 8} ranks the retried,
checkpoint-resumed gang must produce partitions bit-identical to a
fault-free process run — with no shared-memory segments or child processes
left behind.
"""

import multiprocessing as mp
import time

import numpy as np
import pytest

from repro import PaPar
from repro.config import BLAST_INPUT_XML, EDGE_INPUT_XML
from repro.config.examples import BLAST_WORKFLOW_XML, HYBRID_CUT_WORKFLOW_XML
from repro.core.process_runtime import ProcessRuntime
from repro.errors import ConfigError, FaultToleranceError
from repro.fault import DiskCheckpointStore, MemoryCheckpointStore, RetryPolicy
from repro.mpi.shm import scan_segments
from repro.obs import Recorder

#: quick real sleeps between attempts — this backoff is wall-clock
RETRY = RetryPolicy(max_attempts=3, base_delay_s=0.01, jitter=0.0)
#: heartbeat-silence budget for the hang cases (keeps detection fast)
HANG_TIMEOUT = 2.0
RANK_COUNTS = (4, 8)
MODES = ("kill", "hang", "exit")


def blast_data(n=200):
    rng = np.random.default_rng(71)
    from repro.core.dataset import Dataset
    from repro.formats import BLAST_INDEX_SCHEMA

    rows = [(i, int(s), i, 40) for i, s in enumerate(rng.integers(10, 800, size=n))]
    return Dataset.from_rows(BLAST_INDEX_SCHEMA, rows)


def hybrid_data(n=200):
    rng = np.random.default_rng(5)
    from repro.core.dataset import Dataset
    from repro.formats import EDGE_LIST_SCHEMA

    targets = rng.zipf(1.8, size=n) % 30
    sources = rng.integers(30, 150, size=n)
    edges = sorted({(int(s), int(t)) for s, t in zip(sources, targets)})
    return Dataset.from_rows(EDGE_LIST_SCHEMA, edges)


CASES = {
    "blast": dict(
        workflow=BLAST_WORKFLOW_XML,
        args={"input_path": "/in", "output_path": "/out", "num_partitions": 6},
        data=blast_data,
    ),
    "hybrid": dict(
        workflow=HYBRID_CUT_WORKFLOW_XML,
        args={"input_file": "/in", "output_path": "/out",
              "num_partitions": 5, "threshold": 6},
        data=hybrid_data,
    ),
}

#: fault-free process-backend reference partitions, cached per (case, ranks)
_BASELINES: dict = {}
_DATA: dict = {}


def make_papar():
    p = PaPar()
    p.register_input(BLAST_INPUT_XML)
    p.register_input(EDGE_INPUT_XML)
    return p


def case_data(case):
    if case not in _DATA:
        _DATA[case] = CASES[case]["data"]()
    return _DATA[case]


def baseline_rows(papar, case, ranks):
    key = (case, ranks)
    if key not in _BASELINES:
        result = papar.run(
            CASES[case]["workflow"], CASES[case]["args"], data=case_data(case),
            backend="process", num_ranks=ranks,
        )
        _BASELINES[key] = [p.rows() for p in result.partitions]
    return _BASELINES[key]


def arm(monkeypatch, tmp_path, mode, rank=1, job=1, when="before"):
    """Arm a fire-once CrashAgent for the next gang via the environment."""
    marker = tmp_path / "crash-fired"
    spec = f"{mode}:rank={rank},job={job},when={when},marker={marker}"
    if mode == "exit":
        spec += ",code=9"
    monkeypatch.setenv("PAPAR_CRASH_AGENT", spec)
    return marker


def run_recovering(papar, case, ranks, tmp_path, recorder=None):
    """One FT process run: disk checkpoints, wall-clock retry, fast hang cap."""
    plan = papar.plan(CASES[case]["workflow"], CASES[case]["args"])
    runtime = ProcessRuntime(
        num_ranks=ranks,
        checkpoint=DiskCheckpointStore(tmp_path / "ckpt"),
        retry=RETRY,
        recorder=recorder,
        hang_timeout=HANG_TIMEOUT,
    )
    return plan, runtime.execute(plan, case_data(case))


def _assert_hygiene(shm_before):
    assert set(scan_segments("pp")) - shm_before == set()
    deadline = time.monotonic() + 5.0
    while mp.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    assert mp.active_children() == []


EXPECTED_KIND = {"kill": "signal", "hang": "hang", "exit": "exit"}


class TestGangRestartMatrix:
    @pytest.mark.parametrize("ranks", RANK_COUNTS)
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_real_crash_recovers_bit_identically(
        self, case, mode, ranks, tmp_path, monkeypatch
    ):
        papar = make_papar()
        baseline = baseline_rows(papar, case, ranks)
        shm_before = set(scan_segments("pp"))
        marker = arm(monkeypatch, tmp_path, mode)
        _plan, result = run_recovering(papar, case, ranks, tmp_path)
        assert [p.rows() for p in result.partitions] == baseline
        assert marker.exists(), "the armed fault never fired"
        report = result.extra["fault"]
        assert report["attempts"] == 2
        assert len(report["failures"]) == 1
        assert report["backoff_wall_s"] > 0.0
        assert "backoff_s" not in report  # slept for real, not priced
        (crash,) = report["crashes"]
        assert crash["rank"] == 1
        assert crash["kind"] == EXPECTED_KIND[mode]
        assert crash["attempt"] == 1
        if mode == "kill":
            assert crash["signal"] == "SIGKILL"
        _assert_hygiene(shm_before)

    def test_restart_resumes_from_committed_prefix(self, tmp_path, monkeypatch):
        """Single rank: job 0's checkpoint commits before the kill at job 1,
        so the second gang replays only the uncommitted suffix."""
        papar = make_papar()
        baseline = baseline_rows(papar, "blast", 1)
        arm(monkeypatch, tmp_path, "kill", rank=0, job=1, when="before")
        plan, result = run_recovering(papar, "blast", 1, tmp_path)
        assert [p.rows() for p in result.partitions] == baseline
        report = result.extra["fault"]
        assert report["attempts"] == 2
        assert report["recovered_jobs"] == [plan.jobs[0].op_id]

    def test_crash_and_restart_land_in_observability(self, tmp_path, monkeypatch):
        recorder = Recorder()
        papar = make_papar()
        arm(monkeypatch, tmp_path, "kill")
        _plan, result = run_recovering(
            papar, "blast", 4, tmp_path, recorder=recorder
        )
        assert result.extra["fault"]["attempts"] == 2
        assert recorder.counter_total("fault.restarts") == 1
        assert recorder.counter_total("fault.backoff_wall_s") > 0.0
        categories = {e.category for e in recorder.instants}
        assert {"crash", "restart"} <= categories

    def test_retries_exhausted_raises_with_crash_context(
        self, tmp_path, monkeypatch
    ):
        papar = make_papar()
        arm(monkeypatch, tmp_path, "kill")
        plan = papar.plan(CASES["blast"]["workflow"], CASES["blast"]["args"])
        runtime = ProcessRuntime(
            num_ranks=4,
            checkpoint=DiskCheckpointStore(tmp_path / "ckpt"),
            retry=RetryPolicy(max_attempts=1),
        )
        shm_before = set(scan_segments("pp"))
        with pytest.raises(FaultToleranceError, match="1 attempt"):
            runtime.execute(plan, case_data("blast"))
        _assert_hygiene(shm_before)

    def test_framework_run_wires_gang_restart(self, tmp_path, monkeypatch):
        """The public papar.run(backend='process', checkpoint=, retry=) path."""
        papar = make_papar()
        baseline = baseline_rows(papar, "hybrid", 4)
        arm(monkeypatch, tmp_path, "kill")
        result = papar.run(
            CASES["hybrid"]["workflow"], CASES["hybrid"]["args"],
            data=case_data("hybrid"), backend="process", num_ranks=4,
            checkpoint=DiskCheckpointStore(tmp_path / "ckpt"), retry=RETRY,
        )
        assert [p.rows() for p in result.partitions] == baseline
        assert result.extra["fault"]["attempts"] == 2


class TestFaultFreeGuardedRun:
    def test_configured_but_faultless_run_matches_plain(self, tmp_path):
        papar = make_papar()
        _plan, result = run_recovering(papar, "blast", 4, tmp_path)
        assert [p.rows() for p in result.partitions] == baseline_rows(
            papar, "blast", 4
        )
        report = result.extra["fault"]
        assert report["attempts"] == 1
        assert report["recovered_jobs"] == []
        assert report["backoff_wall_s"] == 0.0
        assert "crashes" not in report


class TestProcessBackendRestrictions:
    def test_faults_still_rejected(self):
        with pytest.raises(ConfigError, match="does not support faults"):
            ProcessRuntime(num_ranks=2, faults="crash:rank=0,job=0")

    def test_faults_rejected_via_framework(self):
        papar = make_papar()
        with pytest.raises(ConfigError, match="backend='mpi'"):
            papar.run(
                CASES["blast"]["workflow"], CASES["blast"]["args"],
                data=case_data("blast"), backend="process", num_ranks=2,
                faults="crash:rank=0,job=0",
            )

    def test_memory_checkpoint_store_rejected(self):
        with pytest.raises(ConfigError, match="process-safe"):
            ProcessRuntime(num_ranks=2, checkpoint=MemoryCheckpointStore())

    def test_disk_store_accepted(self, tmp_path):
        runtime = ProcessRuntime(
            num_ranks=2, checkpoint=DiskCheckpointStore(tmp_path), retry=RETRY
        )
        assert runtime.fault_tolerant

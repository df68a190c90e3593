"""The chaos harness: seeded fault schedules must never change the answer.

For each case-study workflow (BLAST sort-based partitioning, hybrid-cut
graph partitioning) and 20 seeded random fault schedules — spanning rank
crashes, message drops / duplicates / delays / corruption, and stragglers —
the retried, checkpoint-resumed run must complete and produce partitions
bit-identical to a fault-free run at the same rank count.  A fault-free run
with fault tolerance merely *configured* must show zero overhead in its
perf counters and simulated time.
"""

import numpy as np
import pytest

from repro import PaPar
from repro.cluster import ClusterModel, INFINIBAND_QDR
from repro.config import BLAST_INPUT_XML, EDGE_INPUT_XML
from repro.config.examples import BLAST_WORKFLOW_XML, HYBRID_CUT_WORKFLOW_XML
from repro.fault import FaultSchedule, MemoryCheckpointStore, RetryPolicy

NUM_SEEDS = 20
RANK_CYCLE = (1, 4, 8)
#: generous retry budget: every random fault has a finite firing cap, so a
#: handful of attempts always reaches a fault-free execution
RETRY = RetryPolicy(max_attempts=8, base_delay_s=0.01, jitter=0.5)
#: short blocked-wait budget so dropped messages fail fast (wall-clock)
GRACE = 0.5


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

#: fault-free reference partitions, cached per (case, ranks) — 6 combinations
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
            backend="mpi", num_ranks=ranks,
        )
        _BASELINES[key] = [p.rows() for p in result.partitions]
    return _BASELINES[key]


class TestChaosHarness:
    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("seed", range(NUM_SEEDS))
    def test_seeded_fault_schedule_recovers_bit_identically(self, case, seed):
        papar = make_papar()
        ranks = RANK_CYCLE[seed % len(RANK_CYCLE)]
        plan = papar.plan(CASES[case]["workflow"], CASES[case]["args"])
        schedule = FaultSchedule.random(seed, size=ranks, num_jobs=len(plan.jobs))
        result = papar.run(
            plan, data=case_data(case), backend="mpi", num_ranks=ranks,
            faults=schedule, checkpoint=MemoryCheckpointStore(), retry=RETRY,
            chaos_seed=seed, deadlock_grace=GRACE,
        )
        assert [p.rows() for p in result.partitions] == baseline_rows(
            papar, case, ranks
        )
        report = result.extra["fault"]
        assert report["attempts"] >= 1
        assert report["attempts"] <= RETRY.max_attempts
        assert len(report["failures"]) == report["attempts"] - 1
        assert report["backoff_s"] >= 0.0
        assert report["injected"]["seed"] == seed
        if report["attempts"] > 1:
            # every retry was caused by something: a fired fault or a deadlock
            assert report["failures"]

    def test_harness_is_not_vacuous(self):
        """Across the seed range, faults really fire and retries really happen."""
        fired = 0
        retried = 0
        papar = make_papar()
        for seed in range(NUM_SEEDS):
            ranks = RANK_CYCLE[seed % len(RANK_CYCLE)]
            plan = papar.plan(CASES["blast"]["workflow"], CASES["blast"]["args"])
            schedule = FaultSchedule.random(seed, size=ranks, num_jobs=len(plan.jobs))
            result = papar.run(
                plan, data=case_data("blast"), backend="mpi", num_ranks=ranks,
                faults=schedule, checkpoint=MemoryCheckpointStore(), retry=RETRY,
                chaos_seed=seed, deadlock_grace=GRACE,
            )
            report = result.extra["fault"]
            fired += sum(report["injected"]["counts"].values())
            retried += report["attempts"] - 1
        assert fired > 0, "no fault ever fired: the chaos harness tests nothing"
        assert retried > 0, "no run ever needed a retry"


class TestDeterministicRecovery:
    def test_crash_recovers_from_checkpointed_prefix(self):
        """Single rank: job 0 commits, the crash at job 1 resumes past it."""
        papar = make_papar()
        plan = papar.plan(CASES["blast"]["workflow"], CASES["blast"]["args"])
        result = papar.run(
            plan, data=case_data("blast"), backend="mpi", num_ranks=1,
            faults="crash:rank=0,job=1,when=before",
            checkpoint=MemoryCheckpointStore(),
            retry=RETRY, deadlock_grace=GRACE,
        )
        assert [p.rows() for p in result.partitions] == baseline_rows(
            papar, "blast", 1
        )
        report = result.extra["fault"]
        assert report["attempts"] == 2
        assert report["recovered_jobs"] == [plan.jobs[0].op_id]
        assert report["injected"]["counts"] == {"crash": 1}
        assert report["backoff_s"] > 0.0
        # no cluster model: nothing is priced (tests/cluster/test_price.py
        # prices the backoff of a resumed run)
        assert result.elapsed == 0.0

    def test_multirank_crash_recovers(self):
        papar = make_papar()
        result = papar.run(
            CASES["hybrid"]["workflow"], CASES["hybrid"]["args"],
            data=case_data("hybrid"), backend="mpi", num_ranks=4,
            faults="crash:rank=2,job=1,when=after",
            checkpoint=MemoryCheckpointStore(),
            retry=RETRY, deadlock_grace=GRACE,
        )
        assert [p.rows() for p in result.partitions] == baseline_rows(
            papar, "hybrid", 4
        )
        assert result.extra["fault"]["attempts"] == 2

    @pytest.mark.parametrize("seed", [1, 2, 3, 5, 8])
    def test_mapreduce_backend_survives_chaos(self, seed):
        papar = make_papar()
        plan = papar.plan(CASES["blast"]["workflow"], CASES["blast"]["args"])
        schedule = FaultSchedule.random(seed, size=4, num_jobs=len(plan.jobs))
        baseline = papar.run(
            plan, data=case_data("blast"), backend="mapreduce", num_ranks=4,
        )
        result = papar.run(
            plan, data=case_data("blast"), backend="mapreduce", num_ranks=4,
            faults=schedule, checkpoint=MemoryCheckpointStore(), retry=RETRY,
            chaos_seed=seed, deadlock_grace=GRACE,
        )
        assert [p.rows() for p in result.partitions] == [
            p.rows() for p in baseline.partitions
        ]
        assert result.extra["fault"]["attempts"] >= 1


class TestZeroOverheadWhenFaultFree:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_configured_but_faultless_run_matches_plain_run(self, case):
        """Retry + checkpointing with no faults must not change the physics:
        identical traffic, identical perf counters, identical priced time."""
        papar = make_papar()
        cluster = ClusterModel(num_nodes=2, ranks_per_node=2,
                               network=INFINIBAND_QDR)
        kwargs = dict(
            data=case_data(case), backend="mpi", num_ranks=4, cluster=cluster,
        )
        plain = papar.run(CASES[case]["workflow"], CASES[case]["args"], **kwargs)
        guarded = papar.run(
            CASES[case]["workflow"], CASES[case]["args"], **kwargs,
            checkpoint=MemoryCheckpointStore(), retry=RetryPolicy(),
        )
        assert [p.rows() for p in guarded.partitions] == [
            p.rows() for p in plain.partitions
        ]
        assert guarded.bytes_moved == plain.bytes_moved
        assert guarded.messages == plain.messages
        assert guarded.elapsed == pytest.approx(plain.elapsed, rel=1e-12)
        p_perf, g_perf = plain.extra["perf"], guarded.extra["perf"]
        assert g_perf["records_moved"] == p_perf["records_moved"]
        assert g_perf["bytes_moved"] == p_perf["bytes_moved"]
        assert g_perf["phases"].keys() == p_perf["phases"].keys()
        report = guarded.extra["fault"]
        assert report["attempts"] == 1
        assert report["recovered_jobs"] == []
        assert report["backoff_s"] == 0.0
        assert "injected" not in report

    def test_plain_run_has_no_fault_report(self):
        papar = make_papar()
        result = papar.run(
            CASES["blast"]["workflow"], CASES["blast"]["args"],
            data=case_data("blast"), backend="mpi", num_ranks=2,
        )
        assert "fault" not in result.extra

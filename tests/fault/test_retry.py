"""RetryPolicy math and the execute_with_recovery loop."""

from types import SimpleNamespace

import pytest

from repro.errors import FaultToleranceError, MPIError
from repro.fault import (
    MemoryCheckpointStore,
    RetryPolicy,
    execute_with_recovery,
    job_key,
)


def fake_plan(num_jobs=2):
    jobs = [SimpleNamespace(op_id=f"op{i}") for i in range(num_jobs)]
    return SimpleNamespace(workflow_id="wf", jobs=jobs)


class TestRetryPolicy:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"base_delay_s": -1.0},
            {"backoff_factor": 0.5},
            {"jitter": 1.5},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(FaultToleranceError):
            RetryPolicy(**kwargs)

    def test_should_retry_counts_the_first_attempt(self):
        policy = RetryPolicy(max_attempts=3)
        assert policy.should_retry(1) and policy.should_retry(2)
        assert not policy.should_retry(3)
        assert not RetryPolicy(max_attempts=1).should_retry(1)

    def test_backoff_grows_exponentially_and_caps(self):
        policy = RetryPolicy(base_delay_s=1.0, backoff_factor=2.0, jitter=0.0,
                             max_delay_s=5.0)
        delays = [policy.delay_s(a) for a in (1, 2, 3, 4)]
        assert delays == [1.0, 2.0, 4.0, 5.0]

    def test_jitter_is_deterministic_per_seed(self):
        policy = RetryPolicy(base_delay_s=1.0, jitter=0.5)
        assert policy.delay_s(1, seed=9) == policy.delay_s(1, seed=9)
        assert policy.delay_s(1, seed=9) != policy.delay_s(1, seed=10)
        assert 1.0 <= policy.delay_s(1, seed=9) <= 1.5


class TestRecoveryLoop:
    def test_succeeds_first_try(self):
        result, report = execute_with_recovery(
            lambda resume: ("ok", resume),
            plan=fake_plan(), fingerprint="fp", size=2,
        )
        assert result == ("ok", 0)
        assert report["attempts"] == 1
        assert report["recovered_jobs"] == []
        assert report["backoff_s"] == 0.0
        assert report["failures"] == []

    def test_retries_mpi_errors_and_charges_backoff(self):
        calls = []

        def attempt(resume):
            calls.append(resume)
            if len(calls) < 3:
                raise MPIError(f"boom {len(calls)}")
            return "survived"

        result, report = execute_with_recovery(
            attempt, plan=fake_plan(), fingerprint="fp", size=2,
            retry=RetryPolicy(max_attempts=5, base_delay_s=0.5, jitter=0.0),
        )
        assert result == "survived"
        assert report["attempts"] == 3
        assert len(report["failures"]) == 2
        # 0.5 then 1.0 of backoff, one priced line item
        assert calls == [0, 0, 0]
        assert report["backoff_s"] == pytest.approx(1.5)

    def test_exhausted_budget_raises_fault_tolerance_error(self):
        def attempt(resume):
            raise MPIError("always failing")

        with pytest.raises(FaultToleranceError) as err:
            execute_with_recovery(
                attempt, plan=fake_plan(), fingerprint="fp", size=2,
                retry=RetryPolicy(max_attempts=2, base_delay_s=0.0, jitter=0.0),
            )
        assert "2 attempt(s)" in str(err.value)
        assert isinstance(err.value.__cause__, MPIError)

    def test_programming_errors_are_not_retried(self):
        calls = []

        def attempt(resume):
            calls.append(1)
            raise KeyError("bug, not a fault")

        with pytest.raises(KeyError):
            execute_with_recovery(
                attempt, plan=fake_plan(), fingerprint="fp", size=2,
            )
        assert len(calls) == 1

    def test_resume_follows_the_committed_prefix(self):
        plan = fake_plan(2)
        store = MemoryCheckpointStore()
        resumes = []

        def attempt(resume):
            resumes.append(resume)
            if len(resumes) == 1:
                # attempt 1 commits job 0 on both ranks, then dies
                for rank in range(2):
                    store.save(job_key("fp", 0, "op0", rank), {"output": rank})
                raise MPIError("crash after job 0")
            return "done"

        result, report = execute_with_recovery(
            attempt, plan=plan, fingerprint="fp", size=2, store=store,
            retry=RetryPolicy(max_attempts=3, base_delay_s=0.0, jitter=0.0),
        )
        assert result == "done"
        assert resumes == [0, 1]
        assert report["recovered_jobs"] == ["op0"]

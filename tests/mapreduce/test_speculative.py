"""Speculative scheduling simulation (the paper's motivation mechanism):
the motivation bench's ``benchmarks/_speculative.py``, loaded by path."""

import sys
from pathlib import Path

import numpy as np
import pytest

from repro.errors import MapReduceError

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks"))
try:
    from _speculative import balanced_task_durations, simulate_job, skewed_task_durations
finally:
    sys.path.pop(0)


class TestSimulateJob:
    def test_single_slot_serializes(self):
        report = simulate_job(np.array([1.0, 2.0, 3.0]), slots=1)
        assert report.makespan == pytest.approx(6.0)
        assert report.tasks_run == 3

    def test_enough_slots_makespan_is_max(self):
        report = simulate_job(np.array([1.0, 2.0, 3.0]), slots=3)
        assert report.makespan == pytest.approx(3.0)

    def test_two_slots_greedy(self):
        # tasks 1,2 start; 1 finishes at 1 -> task 3 starts, ends 1+3=4
        report = simulate_job(np.array([1.0, 2.0, 3.0]), slots=2)
        assert report.makespan == pytest.approx(4.0)

    def test_empty_job(self):
        report = simulate_job(np.array([]), slots=4)
        assert report.makespan == 0.0

    def test_validation(self):
        with pytest.raises(MapReduceError):
            simulate_job(np.array([1.0]), slots=0)
        with pytest.raises(MapReduceError):
            simulate_job(np.array([-1.0]), slots=1)
        with pytest.raises(MapReduceError):
            simulate_job(np.array([1.0]), slots=1, backup_speedup=0)

    def test_speculation_trims_straggler(self):
        """A straggler backed up on a faster node finishes earlier."""
        durations = np.array([1.0, 1.0, 1.0, 10.0])
        plain = simulate_job(durations, slots=4)
        spec = simulate_job(
            durations, slots=4, speculative=True, speculative_threshold=2,
            backup_speedup=4.0,
        )
        assert plain.makespan == pytest.approx(10.0)
        assert spec.speculative_copies >= 1
        assert spec.makespan < plain.makespan

    def test_backup_that_cannot_win_changes_nothing(self):
        durations = np.array([1.0, 1.0, 10.0])
        spec = simulate_job(
            durations, slots=3, speculative=True, speculative_threshold=2,
            backup_speedup=1.0,
        )
        # the backup starts at t=1 and would finish at 11 > 10
        assert spec.makespan == pytest.approx(10.0)
        assert spec.wasted_work >= 0.0

    def test_speculation_cannot_beat_balance(self):
        """The paper's argument: runtime mechanisms < balanced partitions."""
        skewed = skewed_task_durations(32, seed=3)
        balanced = balanced_task_durations(32, total_work=float(skewed.sum()))
        spec = simulate_job(
            skewed, slots=32, speculative=True, speculative_threshold=4,
            backup_speedup=2.0,
        )
        bal = simulate_job(balanced, slots=32)
        assert bal.makespan < spec.makespan


class TestDurationGenerators:
    def test_skewed_has_heavy_tail(self):
        d = skewed_task_durations(400, seed=1)
        assert d.max() / np.median(d) > 2.0

    def test_balanced_uniform(self):
        d = balanced_task_durations(8, total_work=16.0)
        assert d.tolist() == [2.0] * 8

    def test_deterministic(self):
        np.testing.assert_array_equal(
            skewed_task_durations(50, seed=9), skewed_task_durations(50, seed=9)
        )

    def test_validation(self):
        with pytest.raises(MapReduceError):
            skewed_task_durations(0)
        with pytest.raises(MapReduceError):
            balanced_task_durations(0, 1.0)

"""Dynamic reducer rebalancing (the Related Work extension): the ablation's
``benchmarks/_rebalance.py``, loaded from the benchmarks directory by path."""

import sys
from pathlib import Path

import pytest

from repro.mpi import run_mpi

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks"))
try:
    from _rebalance import imbalance, rebalance
finally:
    sys.path.pop(0)


class TestImbalance:
    def test_balanced(self):
        run = run_mpi(lambda comm: imbalance(comm, 10), 4)
        assert run.results == [1.0] * 4

    def test_skewed(self):
        def prog(comm):
            return imbalance(comm, 100 if comm.rank == 0 else 0)

        run = run_mpi(prog, 4)
        assert run.results[0] == pytest.approx(4.0)

    def test_empty(self):
        run = run_mpi(lambda comm: imbalance(comm, 0), 3)
        assert run.results == [1.0] * 3


class TestRebalance:
    def test_skew_removed(self):
        def prog(comm):
            # rank 0 holds everything
            local = list(range(100)) if comm.rank == 0 else []
            out = rebalance(comm, local)
            return out

        run = run_mpi(prog, 4)
        sizes = [len(r) for r in run.results]
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == 100

    def test_global_order_preserved(self):
        def prog(comm):
            # rank r holds items [100r, 100r + r*10): increasing skew
            local = list(range(100 * comm.rank, 100 * comm.rank + comm.rank * 10))
            return rebalance(comm, local)

        run = run_mpi(prog, 4)
        concatenated = [x for r in run.results for x in r]
        assert concatenated == sorted(concatenated)

    def test_already_balanced_is_stable(self):
        def prog(comm):
            local = [f"{comm.rank}-{i}" for i in range(5)]
            return rebalance(comm, local)

        run = run_mpi(prog, 3)
        assert run.results == [
            [f"{r}-{i}" for i in range(5)] for r in range(3)
        ]

    def test_all_empty(self):
        run = run_mpi(lambda comm: rebalance(comm, []), 3)
        assert run.results == [[], [], []]

    def test_arbitrary_objects(self):
        def prog(comm):
            local = [{"rank": comm.rank, "i": i} for i in range(comm.rank * 4)]
            return rebalance(comm, local)

        run = run_mpi(prog, 3)
        total = sum(len(r) for r in run.results)
        assert total == 0 + 4 + 8
        sizes = [len(r) for r in run.results]
        assert max(sizes) - min(sizes) <= 1

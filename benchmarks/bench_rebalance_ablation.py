"""Dynamic rebalancing ablation (the paper's Related Work extension).

"We can use the PaPar distribution function with the cyclic policy to
rebalance the key-value pairs between reducers."  This bench injects reducer
skew, rebalances with :func:`_rebalance.rebalance`, and records the
before/after imbalance and the priced cost of the redistribution's traffic
on the testbed cluster: the ranks' tallies priced as one step, with no job
overhead (no job was launched).
"""

from dataclasses import replace

import numpy as np
import pytest

from _harness import Experiment, shape
from _rebalance import imbalance, rebalance
from repro.cluster import ClusterModel, INFINIBAND_QDR, price
from repro.core.perf import JobCounts
from repro.mpi import run_mpi

RANKS = 8
TOTAL_ITEMS = 80_000


def skewed_share(rank: int, alpha: float) -> int:
    """Zipf-shaped per-rank load: rank 0 gets the lion's share."""
    weights = np.array([1.0 / (r + 1) ** alpha for r in range(RANKS)])
    share = weights / weights.sum()
    return int(TOTAL_ITEMS * share[rank])


def run_ablation():
    cluster = ClusterModel(num_nodes=4, ranks_per_node=2, network=INFINIBAND_QDR)
    step_cost = replace(cluster, cost=replace(cluster.cost, job_overhead=0.0))
    exp = Experiment(
        "Rebalance ablation", "reducer skew before/after cyclic redistribution"
    )
    outcomes = {}
    for alpha in (0.5, 1.0, 2.0):
        def prog(comm, alpha=alpha):
            n = skewed_share(comm.rank, alpha)
            local = list(range(n))
            before = imbalance(comm, len(local))
            balanced = rebalance(comm, local)
            after = imbalance(comm, len(balanced))
            return before, after, JobCounts(sent=comm.sent, packed=comm.packed)

        run = run_mpi(prog, RANKS)
        before, after, _ = run.results[0]
        outcomes[alpha] = (before, after)
        exp.add(
            skew_alpha=alpha,
            imbalance_before=before,
            imbalance_after=after,
            redistribution_s=price([[r[2] for r in run.results]], step_cost),
            bytes_moved=run.bytes_moved,
        )
    exp.note("imbalance = max/mean reducer load; 1.0 is perfect")
    return exp, outcomes


def test_rebalance_ablation(benchmark, reporter):
    exp, outcomes = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    reporter.record(exp)
    for alpha, (before, after) in outcomes.items():
        shape(after <= 1.01, f"alpha={alpha}: rebalance restores near-perfect balance")
        shape(before > after, f"alpha={alpha}: skew strictly reduced ({before:.2f} -> {after:.2f})")


def test_rebalance_kernel(benchmark):
    """Kernel timing: rebalancing 4 skewed ranks in-process."""

    def run():
        def prog(comm):
            local = list(range(20_000)) if comm.rank == 0 else []
            return len(rebalance(comm, local))

        return run_mpi(prog, 4).results

    sizes = benchmark.pedantic(run, rounds=3, iterations=1)
    assert sum(sizes) == 20_000

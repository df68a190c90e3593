"""Shared fixtures for the table/figure reproduction benchmarks.

Every benchmark runs its figure computation exactly once via
``benchmark.pedantic(..., rounds=1)`` — the interesting output is the
reproduced table (written to ``benchmarks/results/``), not statistical
timing of the experiment driver itself.  Kernel-level timing benchmarks
(sort throughput, permutation forms, search kernel) use normal
``benchmark(...)`` calls.
"""

from __future__ import annotations

import os

import pytest

from _harness import Reporter

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


@pytest.fixture(scope="session")
def reporter() -> Reporter:
    return Reporter(RESULTS_DIR)


@pytest.fixture(scope="session")
def paper_cluster():
    """The Table II testbed: 16 nodes x 2 sockets, QDR InfiniBand."""
    from repro.cluster import ClusterModel, INFINIBAND_QDR

    return ClusterModel(num_nodes=16, ranks_per_node=2, network=INFINIBAND_QDR)

"""Cluster and compute cost models, and :func:`price`.

:class:`ClusterModel` binds together the node spec, the rank-to-node mapping
and the network model.  :class:`CostModel` holds per-record / per-byte
compute constants for local work (sorting, hashing, packing...).  The
defaults approximate vectorized numpy kernels on a ~2.6 GHz core; call
:func:`calibrate` to re-measure them on the current host.

:func:`price` turns what a run counted — per job and per rank, the records
each kernel ran over and the bytes and messages sent to each destination
(:class:`~repro.core.perf.JobCounts`) — into simulated seconds on a
cluster.  Every job on the executor is bulk-synchronous, so its price is
its slowest rank's plus the fixed per-job overhead.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Any, Iterable

import numpy as np

from repro.cluster.machine import NodeSpec
from repro.cluster.network import LOCALHOST, NetworkModel
from repro.errors import ClusterError


@dataclass(frozen=True)
class CostModel:
    """Per-record compute cost constants, in seconds.

    All constants are for a single core; multi-threaded phases are charged
    through :meth:`parallel`, which applies a fixed parallel efficiency.
    """

    #: comparison-sort constant: ``sort_cost(n) = sort_per_cmp * n * log2(n)``
    sort_per_cmp: float = 3e-9
    #: per-record cost for a streaming pass (copy, compare, select)
    stream_per_rec: float = 2e-9
    #: per-record cost for hashing / grouping
    hash_per_rec: float = 12e-9
    #: per-byte cost for (de)serialization and packing (memcpy-class: the
    #: modeled system is C++ MR-MPI moving raw buffers)
    pack_per_byte: float = 0.1e-9
    #: fixed per-job scheduling overhead (mapper/reducer launch)
    job_overhead: float = 250e-6
    #: parallel efficiency of multi-threaded phases (0 < e <= 1)
    parallel_efficiency: float = 0.85

    def __post_init__(self) -> None:
        if not (0.0 < self.parallel_efficiency <= 1.0):
            raise ClusterError("parallel_efficiency must be in (0, 1]")
        for field in ("sort_per_cmp", "stream_per_rec", "hash_per_rec", "pack_per_byte", "job_overhead"):
            if getattr(self, field) < 0:
                raise ClusterError(f"{field} must be non-negative")

    # -- single-core costs -------------------------------------------------

    def sort(self, n: int) -> float:
        """Cost of comparison-sorting ``n`` records on one core."""
        if n <= 1:
            return 0.0
        return self.sort_per_cmp * n * math.log2(n)

    def stream(self, n: int) -> float:
        """Cost of one linear pass over ``n`` records."""
        return self.stream_per_rec * max(n, 0)

    def hash_group(self, n: int) -> float:
        """Cost of hashing ``n`` records into groups."""
        return self.hash_per_rec * max(n, 0)

    def pack(self, nbytes: int) -> float:
        """Cost of serializing / packing ``nbytes``."""
        return self.pack_per_byte * max(nbytes, 0)

    # -- parallel scaling --------------------------------------------------

    def parallel(self, single_core_cost: float, threads: int) -> float:
        """Cost of a phase that uses ``threads`` cores with fixed efficiency."""
        if threads < 1:
            raise ClusterError(f"threads must be >= 1, got {threads!r}")
        if threads == 1:
            return single_core_cost
        return single_core_cost / (threads * self.parallel_efficiency)


def calibrate(sample_size: int = 1 << 20, repeats: int = 3) -> CostModel:
    """Measure compute constants on the current host using numpy kernels.

    Used once to sanity-check the defaults; experiments use the fixed
    defaults so results stay deterministic across hosts.
    """
    rng = np.random.default_rng(42)
    data = rng.integers(0, 1 << 30, size=sample_size, dtype=np.int64)

    def best(fn) -> float:
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return min(times)

    t_sort = best(lambda: np.sort(data, kind="mergesort"))
    t_stream = best(lambda: (data + 1).sum())
    t_pack = best(lambda: data.tobytes())

    return CostModel(
        sort_per_cmp=t_sort / (sample_size * math.log2(sample_size)),
        stream_per_rec=t_stream / sample_size,
        pack_per_byte=t_pack / data.nbytes,
    )


@dataclass(frozen=True)
class ClusterModel:
    """A homogeneous cluster: ``num_nodes`` nodes, ``ranks_per_node`` ranks each.

    The paper's testbed is ``ClusterModel(num_nodes=16, ranks_per_node=2,
    network=INFINIBAND_QDR)`` — one MPI rank per socket, eight OpenMP threads
    per rank (``threads_per_rank=8``).
    """

    num_nodes: int = 16
    ranks_per_node: int = 2
    threads_per_rank: int = 8
    network: NetworkModel = LOCALHOST
    node: NodeSpec = NodeSpec()
    cost: CostModel = CostModel()

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ClusterError(f"num_nodes must be >= 1, got {self.num_nodes!r}")
        if self.ranks_per_node < 1:
            raise ClusterError(f"ranks_per_node must be >= 1, got {self.ranks_per_node!r}")
        if self.threads_per_rank < 1:
            raise ClusterError(f"threads_per_rank must be >= 1, got {self.threads_per_rank!r}")
        if self.ranks_per_node * self.threads_per_rank > self.node.cores:
            raise ClusterError(
                f"{self.ranks_per_node} ranks x {self.threads_per_rank} threads "
                f"oversubscribe a {self.node.cores}-core node"
            )

    @property
    def size(self) -> int:
        """Total number of MPI ranks."""
        return self.num_nodes * self.ranks_per_node

    def node_of(self, rank: int) -> int:
        """Node index hosting ``rank`` (ranks are packed node by node)."""
        if not (0 <= rank < self.size):
            raise ClusterError(f"rank {rank} out of range for {self.size} ranks")
        return rank // self.ranks_per_node

    def same_node(self, a: int, b: int) -> bool:
        """True when ranks ``a`` and ``b`` live on the same node."""
        return self.node_of(a) == self.node_of(b)

    def transfer_time(self, nbytes: int, src: int, dst: int) -> float:
        """Seconds to move ``nbytes`` from rank ``src`` to ``dst``."""
        if src == dst:
            return 0.0
        return self.network.transfer_time(nbytes, same_node=self.same_node(src, dst))

    def compute(self, single_core_cost: float) -> float:
        """Seconds of a compute phase that each rank runs on its own threads."""
        return self.cost.parallel(single_core_cost, self.threads_per_rank)


def _rank_seconds(cluster: ClusterModel, rank: int, counts: Any) -> float:
    """One rank's seconds in one job: compute (a straggler's stretched by
    its slowdown), transfer of what it sent and (de)serialization."""
    cost = cluster.cost
    compute = sum(getattr(cost, kernel)(n) for kernel, n in counts.kernels.items())
    transfer = sum(messages * cluster.transfer_time(nbytes / messages, rank, dest)
                   for dest, (nbytes, messages) in counts.sent.items())
    return cluster.compute(compute) * counts.slowdown + transfer + cost.pack(counts.packed)


def price(jobs: Iterable[Any], cluster: ClusterModel) -> float:
    """Simulated seconds of ``jobs`` run one after another on ``cluster``.

    A job is one :class:`~repro.core.perf.JobCounts` per rank, priced as
    the slowest rank's compute, transfer and pack seconds plus the cost
    model's ``job_overhead``; a float is a line item priced as itself
    (retry backoff, fired message delays).
    """
    total = 0.0
    for job in jobs:
        if isinstance(job, float):
            total += job
        else:
            slowest = max(_rank_seconds(cluster, rank, c) for rank, c in enumerate(job))
            total += slowest + cluster.cost.job_overhead
    return total

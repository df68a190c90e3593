"""Dynamic reducer rebalancing (the paper's Related Work extension).

"It is possible to extend PaPar to support the dynamic workload
redistribution.  For example, when repartitioning intermediate data from
Mappers to Reducers is necessary, we can use the PaPar distribution function
with the cyclic policy to rebalance the key-value pairs between reducers."

:func:`rebalance` implements exactly that: given each rank's in-flight
key-value pairs (an arbitrarily skewed reducer assignment), it redistributes
them with the cyclic distribution function so every rank ends up within one
pair of every other — while preserving the global pair order, so downstream
sorted consumers are unaffected.

No workflow runs it; ``bench_rebalance_ablation.py`` measures it.
Benchmarks import this module from their own directory; tests load it by
path (``sys.path.insert(0, <repo>/benchmarks)``).
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.mpi import SUM
from repro.mpi.comm import Communicator

_TAG_REBALANCE = 20_001


def imbalance(comm: Communicator, local_count: int) -> float:
    """Max/mean ratio of per-rank loads across the communicator."""
    counts = comm.allgather(local_count)
    total = sum(counts)
    if total == 0:
        return 1.0
    return max(counts) / (total / len(counts))


def rebalance(comm: Communicator, local_items: Sequence[Any]) -> list[Any]:
    """Redistribute items so ranks hold balanced, order-preserving shares.

    Item with global position ``g`` (by rank order, then local order) moves
    to the rank that owns position ``g`` under a balanced block layout; the
    relative order of any two items is preserved.
    """
    local_items = list(local_items)
    n_local = len(local_items)
    total = comm.allreduce(n_local, SUM)
    offset = comm.exscan(n_local, SUM, identity=0)
    size = comm.size
    base, extra = divmod(total, size)
    # owner of each global position under the balanced layout
    bounds = np.cumsum([base + (1 if r < extra else 0) for r in range(size)])
    global_idx = np.arange(n_local, dtype=np.int64) + offset
    owners = np.searchsorted(bounds, global_idx, side="right")
    outboxes: list[list[tuple[int, Any]]] = [[] for _ in range(size)]
    for g, owner, item in zip(global_idx.tolist(), owners.tolist(), local_items):
        outboxes[owner].append((g, item))
    inboxes = comm.alltoall(outboxes)
    received = [pair for box in inboxes for pair in box]
    received.sort(key=lambda pair: pair[0])
    return [item for _, item in received]

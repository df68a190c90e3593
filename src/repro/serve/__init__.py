"""The streaming partition service (``python -m repro serve``).

Turns batch PaPar into a long-lived daemon: load a workflow once, hold the
partitions hot, route incremental appends through the vectorized shuffle
fast path, repartition online when balance drifts, and publish atomic
versioned snapshots.  See ``docs/streaming-service.md`` for the protocol
reference, lifecycle, and metrics contract.

Module map:

* :mod:`~repro.serve.protocol` — the wire format: line-JSON verbs plus the
  crc-framed binary ``append`` frame;
* :mod:`~repro.serve.state` — append log, partition generations, swaps;
* :mod:`~repro.serve.router` — incremental batch → partition routing;
* :mod:`~repro.serve.balance` — the skew/drift rebalance trigger;
* :mod:`~repro.serve.snapshot` — crc-committed versioned snapshots;
* :mod:`~repro.serve.server` — the asyncio daemon itself;
* :mod:`~repro.serve.client` — a small blocking client.
"""

from repro.serve.balance import BalanceDecision, BalanceMonitor
from repro.serve.client import ServeClient
from repro.serve.router import IncrementalRouter, build_router
from repro.serve.server import PartitionServer, ServeConfig, run_server
from repro.serve.snapshot import SnapshotStore, snapshot_id
from repro.serve.state import PartitionGeneration, ServeError, ServeState

__all__ = [
    "BalanceDecision",
    "BalanceMonitor",
    "IncrementalRouter",
    "PartitionGeneration",
    "PartitionServer",
    "ServeClient",
    "ServeConfig",
    "ServeError",
    "ServeState",
    "SnapshotStore",
    "build_router",
    "run_server",
    "snapshot_id",
]

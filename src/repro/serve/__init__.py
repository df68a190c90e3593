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

from repro._lazy import lazy_exports

# names load on first use: the daemon never loads the client, and a client
# (``from repro.serve import ServeClient``) never loads the daemon
__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "repro.serve.balance": ("BalanceDecision", "BalanceMonitor"),
    "repro.serve.client": ("ServeClient",),
    "repro.serve.router": ("IncrementalRouter", "build_router"),
    "repro.serve.server": ("PartitionServer", "ServeConfig", "run_server"),
    "repro.serve.snapshot": ("SnapshotStore", "snapshot_id"),
    "repro.serve.state": ("PartitionGeneration", "ServeError", "ServeState"),
})

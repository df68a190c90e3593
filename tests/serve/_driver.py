"""Shared helpers for driving a :class:`PartitionServer` under test.

Tests run scenarios directly on the daemon's event loop (deterministic, no
socket timing) via :func:`run_scenario`; the socket path itself is covered
by ``test_server.py``'s TCP lifecycle test and the CI serve-smoke job.
"""

import asyncio
import json

import numpy as np

from repro.serve import ServeConfig
from repro.serve.server import PartitionServer


def partition_records(generation, partition_id: int) -> np.ndarray:
    """One partition of a generation as a single record array."""
    chunks = generation.chunks[partition_id]
    return np.concatenate(chunks) if chunks else np.empty(0)


def request_line(payload: dict) -> bytes:
    """Encode one request dict as its wire line."""
    return (json.dumps(payload) + "\n").encode("utf-8")


async def dispatch(server: PartitionServer, payload: dict) -> dict:
    """Run one request through the server's real dispatch path."""
    return await server._dispatch(request_line(payload))


async def settle(server: PartitionServer) -> None:
    """Wait until the append queue is drained and no rebalance is in flight."""
    server._process_appends()
    if server._rebalance_task is not None:
        await asyncio.gather(server._rebalance_task, return_exceptions=True)


async def fold_tail(server: PartitionServer) -> None:
    """Force a final rebalance so the generation covers the whole log."""
    await settle(server)
    if server.state.drift_fraction > 0:
        await server._rebalance("final")


def run_scenario(papar, workflow, args, scenario, **config_kw):
    """Start a daemon, run ``await scenario(server)``, drain, and return
    ``(server, result)`` for post-mortem assertions."""

    async def go():
        server = PartitionServer(
            papar, workflow, args, config=ServeConfig(**config_kw)
        )
        await server.start()
        try:
            result = await scenario(server)
        finally:
            await server._drain_and_stop()
        return server, result

    return asyncio.run(go())

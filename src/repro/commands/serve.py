"""``repro serve``: the streaming partition daemon (``docs/streaming-service.md``)."""

from __future__ import annotations

import argparse

from repro.cli import _common, _front_end


def arguments(p: argparse.ArgumentParser) -> None:
    """Add ``serve``'s flags: listen address, backend and daemon limits."""
    _common(p)
    p.set_defaults(serve=True)  # turns on the PAP090 lint-gate rules
    p.add_argument("--host", default="127.0.0.1",
                   help="listen address (default: 127.0.0.1)")
    p.add_argument("--port", type=int, default=0,
                   help="listen port; 0 picks a free one and prints it")
    p.add_argument("--backend", default="serial",
                   choices=("serial", "mpi", "mapreduce", "process"),
                   help="backend for the warm start and background "
                        "rebuilds (default: serial)")
    p.add_argument("--ranks", type=int, default=1,
                   help="rank count for warm start and rebuilds")
    p.add_argument("--rebalance-threshold", type=float, default=None,
                   metavar="RATIO",
                   help="skew/drift ratio past which an online "
                        "repartition is scheduled (default 0.5)")
    p.add_argument("--max-pending", type=int, default=64, metavar="N",
                   help="acknowledged appends that may wait to be dealt "
                        "before the next is rejected with 429")
    p.add_argument("--snapshot-dir", metavar="DIR",
                   help="publish versioned snapshots here; also "
                        "enables warm restart from the latest one")
    p.add_argument("--metrics", metavar="FILE",
                   help="write the papar.serve metrics JSON on exit")


def cmd_serve(ns: argparse.Namespace) -> int:
    """Serve the gated plan until drained, then print the final generation."""
    import asyncio
    import json

    from repro.serve import ServeConfig, run_server

    front = _front_end(ns)
    if isinstance(front, int):
        return front
    schemas, plan, args = front
    config = ServeConfig(
        host=ns.host,
        port=ns.port,
        max_pending=ns.max_pending,
        snapshot_dir=ns.snapshot_dir,
        backend=ns.backend,
        num_ranks=ns.ranks,
    )
    if ns.rebalance_threshold is not None:
        config.rebalance_threshold = ns.rebalance_threshold

    def ready(host: str, port: int) -> None:
        # the smoke scripts and tests parse this line to find the port
        print(f"serving on {host}:{port}", flush=True)

    # the server's own recorder: a bounded window, as a daemon's must be
    server = asyncio.run(
        run_server(schemas, plan, args, config=config, ready=ready)
    )
    if ns.metrics:
        with open(ns.metrics, "w", encoding="utf-8") as fh:
            json.dump(server.metrics_doc(), fh, indent=2)
        print(f"wrote metrics {ns.metrics}")
    generation = server.state.current
    print(
        f"drained at generation "
        f"{generation.generation if generation else '<none>'} "
        f"({server.state.log_records} records)"
    )
    return 0

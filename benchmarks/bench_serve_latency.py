"""Append latency and throughput of the streaming partition daemon.

Runs a real daemon (``run_server`` on its own thread, the blocking
:class:`ServeClient` over TCP) against the BLAST case-study workflow,
appends a stream of batches, and measures the client-observed wall time
of every append — including the rebalances a low drift threshold forces
mid-stream.  The stream runs per encoding, each time against a fresh
daemon: as the client speaks today (binary frames) and as a client from
before ``hello`` does (line-JSON rows).  Reports p50/p95/p99 latency and
sustained throughput per encoding, then cross-checks the daemon's own
``papar.serve`` metrics document against the client-side accounting.

Shape gates, per encoding: the final generation covers every appended
record exactly (no loss, no duplication), every append travelled in the
encoding the row claims, the tail latency stays under twice its last
committed reading (an append that waits on a pass or a rebuild trips it),
throughput clears a floor far below any healthy run, and at least one online rebalance actually fired so the numbers
include the swap path.  In full mode frames must also sustain at least
``FRAME_SPEEDUP_FLOOR`` times the records/s of rows — the stream there
has the default rebalance threshold (a handful of rebuilds) and 500-row
appends, so what is compared is the encoding and not the rebuild stalls
and the per-request round trip both sides pay alike.
``PAPAR_BENCH_SMOKE=1`` shrinks the stream for CI, where the ratio is
reported but too noisy to gate.
"""

import asyncio
import os
import threading
import time

from repro.bench import Experiment, shape
from repro.blast import generate_index
from repro.config import BLAST_INPUT_XML
from repro.config.examples import BLAST_WORKFLOW_XML
from repro.formats import BLAST_INDEX_SCHEMA, write_binary
from repro.serve import ServeClient, ServeConfig, run_server

from repro import PaPar

SMOKE = bool(int(os.environ.get("PAPAR_BENCH_SMOKE", "0")))
WARM_RECORDS = 200 if SMOKE else 50_000
APPENDS = 25 if SMOKE else 400
BATCH = 20 if SMOKE else 500
#: low enough that the stream trips several online rebalances, so the
#: latency distribution includes the atomic-swap path
REBALANCE_THRESHOLD = 0.05 if SMOKE else 0.5
#: ceiling on client-observed p99 append latency: twice the 6.1 ms read in
#: full mode when the ack stopped waiting for the deal (the p99 of 400
#: appends is a rebuild's stall: the swap on the loop plus the GIL it shared
#: with the rebuild thread; p50 is 0.17 ms).  Tripping it means an append
#: waited on something it should not — a pass, a rebuild, a blocked loop
P99_CEILING_MS = 12.0
#: floor on sustained append throughput, records per second
THROUGHPUT_FLOOR = 20.0
#: full mode: frames must move at least this many times the records/s of rows
FRAME_SPEEDUP_FLOOR = 1.5
#: streams per encoding, alternating; the fastest one is reported (client
#: and daemon share this process and this host, so one stream is noisy)
ROUNDS = 1 if SMOKE else 3


def percentile(sorted_ms, q):
    """Nearest-rank percentile of an ascending latency list."""
    rank = max(1, round(q / 100.0 * len(sorted_ms)))
    return sorted_ms[rank - 1]


def rows_of(records):
    return [list(r) for r in records.tolist()]


class RowsOnlyClient(ServeClient):
    """A client from before ``hello``: it never learns the frame dtype, so
    every append goes out as line-JSON rows.  Benchmark-local — the product
    has no switch for this; the daemon tells the two apart per request."""

    def connect(self):
        super().connect()
        self._frame_dtype = None
        return self


CLIENTS = {"frames": ServeClient, "json": RowsOnlyClient}


def start_daemon(papar, args, config):
    """Daemon on a thread; returns (host, port, thread, holder)."""
    addr, ready, holder = {}, threading.Event(), {}

    def serve():
        holder["server"] = asyncio.run(run_server(
            papar, BLAST_WORKFLOW_XML, args, config=config,
            ready=lambda h, p: (addr.update(hp=(h, p)), ready.set()),
        ))

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    if not ready.wait(120):
        raise RuntimeError("daemon never came up")
    host, port = addr["hp"]
    return host, port, thread, holder


def test_serve_append_latency(benchmark, reporter, tmp_path):
    exp = Experiment(
        id="serve-latency",
        title="Streaming daemon append latency and throughput (BLAST workflow)",
    )
    index = generate_index("env_nr", num_sequences=WARM_RECORDS + APPENDS * BATCH,
                           seed=11)
    input_path = tmp_path / "db.index"
    write_binary(input_path, index[:WARM_RECORDS], BLAST_INDEX_SCHEMA,
                 header=b"\x00" * 32)
    papar = PaPar()
    papar.register_input(BLAST_INPUT_XML)
    args = {"input_path": str(input_path),
            "output_path": str(tmp_path / "out"), "num_partitions": 8}
    batches = [rows_of(index[WARM_RECORDS + i * BATCH:
                             WARM_RECORDS + (i + 1) * BATCH])
               for i in range(APPENDS)]

    def run():
        rounds = [{encoding: stream(encoding) for encoding in CLIENTS}
                  for _ in range(ROUNDS)]
        return {encoding: min((r[encoding] for r in rounds), key=lambda s: s[1])
                for encoding in CLIENTS}

    def stream(encoding):
        host, port, thread, holder = start_daemon(
            papar, args, ServeConfig(rebalance_threshold=REBALANCE_THRESHOLD))
        latencies_ms = []
        t0 = time.perf_counter()
        with CLIENTS[encoding](host, port) as client:
            for rows in batches:
                t = time.perf_counter()
                client.append_ok(rows)
                latencies_ms.append((time.perf_counter() - t) * 1e3)
            elapsed = time.perf_counter() - t0
            final = client.query()
            client.drain()
        thread.join(120)
        assert not thread.is_alive()
        return latencies_ms, elapsed, final, holder["server"]

    streams = benchmark.pedantic(run, rounds=1, iterations=1)

    appended = APPENDS * BATCH
    throughput = {}
    for encoding, (latencies_ms, elapsed, final, server) in streams.items():
        ordered = sorted(latencies_ms)
        p50, p95, p99 = (percentile(ordered, q) for q in (50, 95, 99))
        throughput[encoding] = appended / elapsed
        doc = server.metrics_doc()

        exp.add(encoding=encoding, appends=APPENDS, batch=BATCH,
                appended_records=appended,
                p50_ms=round(p50, 3), p95_ms=round(p95, 3), p99_ms=round(p99, 3),
                records_per_s=round(throughput[encoding], 1),
                rebalances=doc["rebalances"],
                final_generation=final["generation"])
        exp.note(f"{encoding}: daemon-side append latency p99 "
                 f"{doc['append_latency_ms']['p99']:.3f} ms over "
                 f"{doc['append_latency_ms']['count']} samples")

        shape(final["log_records"] == WARM_RECORDS + appended,
              f"{encoding}: the final log does not account for every "
              "appended record")
        shape(final["total_records"] == sum(p["records"]
                                            for p in final["partitions"]),
              f"{encoding}: published partitions disagree with their own total")
        shape(doc["appended_records"] == appended,
              f"{encoding}: the daemon's appended-record counter drifted "
              "from the client's")
        shape(doc[f"append_{encoding}"] == APPENDS
              and doc["append_frames"] + doc["append_json"] == APPENDS,
              f"{encoding}: appends did not all travel as {encoding}")
        shape(doc["rebalances"] >= 1,
              f"{encoding}: no online rebalance fired; the latency numbers "
              "are vacuous")
        shape(p99 < P99_CEILING_MS,
              f"{encoding}: p99 append latency {p99:.1f} ms breaches the "
              f"{P99_CEILING_MS:.0f} ms stall ceiling")
        shape(throughput[encoding] > THROUGHPUT_FLOOR,
              f"{encoding}: throughput {throughput[encoding]:.1f} records/s "
              f"is below the {THROUGHPUT_FLOOR:.0f}/s floor")

    speedup = throughput["frames"] / throughput["json"]
    exp.note(f"smoke mode: {SMOKE}; warm start {WARM_RECORDS} records, "
             f"then {APPENDS} appends of {BATCH}; fastest of {ROUNDS} "
             "stream(s) per encoding")
    exp.note(f"frames move {speedup:.2f}x the records/s of json rows"
             + ("" if SMOKE else f" (gate: >= {FRAME_SPEEDUP_FLOOR}x)"))
    if not SMOKE:
        shape(speedup >= FRAME_SPEEDUP_FLOOR,
              f"frames sustain only {speedup:.2f}x the records/s of json "
              f"rows, below the {FRAME_SPEEDUP_FLOOR}x floor")
    reporter.record(exp)

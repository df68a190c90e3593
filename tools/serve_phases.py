#!/usr/bin/env python3
"""Where a streamed append spends its time: one closed-loop stream, one table.

Launches ``python -m repro serve`` on the head of a BLAST index generated
by ``benchmarks/e2e/inputs.py``, streams the rest at it from one blocking
:class:`~repro.serve.ServeClient` (the next append goes out when the
previous one is acknowledged — with the defaults this is the benchmark's
``serve-stream`` workload), and prints what the wall clock of that stream
is made of:

* client CPU and daemon user / sys CPU over the append phase (``/proc``
  counters of the daemon, all of its threads, read before the first and
  after the last append), per append;
* the daemon's minor faults over the phase and its RSS at both ends;
* client-seen append latency p50 / p99 / max;
* the rebuilds: at how many log records each fired and its wall.

Wall time on a shared host swings by 2-3x between runs; the CPU columns
do not, which is why they are what ``--max-daemon-us`` gates on (CI's
``serve-smoke`` job runs a short stream against a generous ceiling).

Usage::

    PYTHONPATH=src python tools/serve_phases.py [--appends 4000] [--rows 200]
        [--warm 200000] [--partitions 16] [--seed 1] [--max-daemon-us 400]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")
PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2**20


def daemon_usage(pid: int) -> dict[str, float]:
    """user / sys CPU seconds, minor faults and RSS (MB) of a live process."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        # the command name may hold spaces; the numbered fields follow its ")"
        fields = fh.read().rsplit(")", 1)[1].split()
    return {
        "minor_faults": int(fields[7]),
        "user_s": int(fields[11]) * TICK_S,
        "sys_s": int(fields[12]) * TICK_S,
        "rss_mb": int(fields[21]) * PAGE_MB,
    }


def stream(ns: argparse.Namespace, work: Path) -> dict[str, float]:
    """One daemon lifetime; returns the measured phases."""
    sys.path[:0] = [str(REPO / "src"), str(REPO / "benchmarks" / "e2e")]
    import inputs
    from harness import nearest_rank
    from repro.serve.client import ServeClient

    total = ns.warm + ns.appends * ns.rows
    index = inputs.blast_index(total, ns.seed)
    inputs.write_blast_index(str(work / "warm.index"), index[: ns.warm])
    rows = index[ns.warm:].tolist()
    batches = [rows[i : i + ns.rows] for i in range(0, len(rows), ns.rows)]
    metrics_path = work / "serve-metrics.json"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--workflow", str(REPO / "configs" / "blast_partition.xml"),
         "--input-config", str(REPO / "configs" / "blast_db.xml"),
         "--arg", f"input_path={work / 'warm.index'}",
         "--arg", f"output_path={work / 'out'}",
         "--arg", f"num_partitions={ns.partitions}",
         "--port", "0", "--metrics", str(metrics_path)],
        stdout=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
    )
    try:
        banner = proc.stdout.readline()
        if not banner.startswith("serving on "):
            raise SystemExit(f"daemon never announced its port: {banner!r}")
        host, port = banner.split()[-1].rsplit(":", 1)
        latencies = []
        with ServeClient(host, int(port), timeout=60.0) as client:
            before = daemon_usage(proc.pid)
            cpu0, t_first = time.process_time(), time.perf_counter()
            for batch in batches:
                t0 = time.perf_counter()
                response = client.append(batch)
                latencies.append((time.perf_counter() - t0) * 1e3)
                if not response.get("ok"):
                    raise SystemExit(f"append refused: {response}")
            wall_s = time.perf_counter() - t_first
            client_cpu_s = time.process_time() - cpu0
            after = daemon_usage(proc.pid)
            query = client.query()
            client.drain()
        if proc.wait(60.0) != 0:
            raise SystemExit(f"daemon exit code {proc.returncode}")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if query["total_records"] != total or query["log_records"] != total:
        raise SystemExit(f"daemon holds {query['total_records']} of {total} records")
    doc = json.loads(metrics_path.read_text(encoding="utf-8"))
    return {
        "appends": len(batches),
        "wall_s": wall_s,
        "client_cpu_s": client_cpu_s,
        "daemon_user_s": after["user_s"] - before["user_s"],
        "daemon_sys_s": after["sys_s"] - before["sys_s"],
        "minor_faults": after["minor_faults"] - before["minor_faults"],
        "rss_start_mb": before["rss_mb"],
        "rss_end_mb": after["rss_mb"],
        "p50_ms": nearest_rank(latencies, 50),
        "p99_ms": nearest_rank(latencies, 99),
        "max_ms": max(latencies),
        "coalesced_batches": doc["coalesced_batches"],
        "rebuilds": [(e["records"], e["wall_s"]) for e in doc["server"]["rebalance_events"]],
    }


def report(m: dict) -> str:
    n = m["appends"]
    daemon_s = m["daemon_user_s"] + m["daemon_sys_s"]
    lines = [
        f"{n} appends in {m['wall_s']:.2f} s wall ({m['wall_s'] / n * 1e6:.0f} us each)",
        f"  {'phase':<22}{'total s':>9}{'us/append':>11}",
        f"  {'client cpu':<22}{m['client_cpu_s']:>9.2f}{m['client_cpu_s'] / n * 1e6:>11.0f}",
        f"  {'daemon user':<22}{m['daemon_user_s']:>9.2f}{m['daemon_user_s'] / n * 1e6:>11.0f}",
        f"  {'daemon sys':<22}{m['daemon_sys_s']:>9.2f}{m['daemon_sys_s'] / n * 1e6:>11.0f}",
        f"  {'daemon user + sys':<22}{daemon_s:>9.2f}{daemon_s / n * 1e6:>11.0f}",
        f"  daemon minor faults {m['minor_faults']}, "
        f"rss {m['rss_start_mb']:.1f} -> {m['rss_end_mb']:.1f} MB",
        f"  client-seen append p50 {m['p50_ms']:.3f} ms, p99 {m['p99_ms']:.3f} ms, "
        f"max {m['max_ms']:.1f} ms; {m['coalesced_batches']} batches coalesced",
    ]
    lines += [f"  rebuild at {records} log records: {wall_s:.3f} s"
              for records, wall_s in m["rebuilds"]] or ["  no rebuild"]
    return "\n".join(lines)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--appends", type=int, default=4000)
    parser.add_argument("--rows", type=int, default=200, help="rows per append")
    parser.add_argument("--warm", type=int, default=200_000, help="warm-start records")
    parser.add_argument("--partitions", type=int, default=16)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--max-daemon-us", type=float, default=None,
                        help="fail when daemon user + sys CPU per append exceeds this")
    ns = parser.parse_args()
    with tempfile.TemporaryDirectory(prefix="papar-serve-phases-") as work:
        m = stream(ns, Path(work))
    print(report(m))
    per_append_us = (m["daemon_user_s"] + m["daemon_sys_s"]) / m["appends"] * 1e6
    if ns.max_daemon_us is not None and per_append_us > ns.max_daemon_us:
        print(f"FAIL: daemon CPU {per_append_us:.0f} us per append exceeds the "
              f"ceiling of {ns.max_daemon_us:.0f}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""``repro run``: partition an input file into part files, and render what the run reports."""

from __future__ import annotations

import argparse
import os
import sys

from repro.cli import _common, _front_end


def arguments(p: argparse.ArgumentParser) -> None:
    """Add ``run``'s flags: backend, ranks, faults, observability, budget."""
    _common(p)
    p.add_argument("--backend", default="serial",
                   choices=("serial", "mpi", "mapreduce", "process"))
    p.add_argument("--ranks", type=int, default=1, help="MPI ranks to simulate")
    p.add_argument("--stats", action="store_true",
                   help="print shuffle perf counters (records/bytes moved, "
                        "per-phase wall time)")
    p.add_argument("--faults", action="append", default=[], metavar="SPEC",
                   help="inject a fault (repeatable), e.g. "
                        "'crash:rank=1,job=0', 'drop:src=0,dst=2,p=0.5', "
                        "'delay:p=0.1,seconds=0.25', "
                        "'straggler:rank=3,factor=4'")
    p.add_argument("--chaos-seed", type=int, default=0, metavar="N",
                   help="seed for fault-injection draws and retry jitter")
    p.add_argument("--checkpoint-dir", metavar="DIR",
                   help="checkpoint job outputs here; a failed run "
                        "resumes from the last fully-committed job "
                        "(with --backend process this drives the "
                        "gang-restart after a worker crash)")
    p.add_argument("--max-attempts", type=int, default=None, metavar="N",
                   help="retry budget for faulty runs (default 5 when "
                        "fault tolerance is active)")
    p.add_argument("--crash-agent", default=None, metavar="SPEC",
                   help="chaos harness for --backend process: really "
                        "kill/hang/exit one rank at a job boundary, e.g. "
                        "'kill:rank=1,job=0,when=before,"
                        "marker=/tmp/fired' (the marker file makes it "
                        "fire once, so a checkpointed retry recovers)")
    p.add_argument("--deadlock-grace", type=float, default=None,
                   metavar="SECONDS",
                   help="blocked-wait budget before a DeadlockError "
                        "(default 60)")
    p.add_argument("--trace", metavar="FILE",
                   help="write a Chrome trace-event JSON of the run "
                        "(load in Perfetto or chrome://tracing)")
    p.add_argument("--metrics", metavar="FILE",
                   help="write the versioned metrics JSON "
                        "(counters, gauges, histograms, span stats)")
    p.add_argument("--timeline", action="store_true",
                   help="print a per-rank Gantt chart and the "
                        "critical-path summary")
    p.add_argument("--memory-budget", default=None, metavar="SIZE",
                   help="bound each rank's working set (e.g. 64MB); "
                        "the input streams in chunks and oversized "
                        "shuffles/sorts spill to run files")


def _format_bytes(n: int) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if n < 1024 or unit == "GiB":
            return f"{n:.1f} {unit}" if unit != "B" else f"{n} B"
        n /= 1024
    return f"{n} B"  # pragma: no cover - unreachable


def print_stats(result) -> None:
    """Render the perf-counter summary of a :class:`PartitionResult`."""
    perf = result.extra.get("perf")
    if not perf:
        print("stats: (no perf counters recorded by this backend)")
        return
    # simulated time is printed only for a run a cluster model priced: the
    # CLI attaches none, and a zero measures nothing
    simulated = result.elapsed > 0
    print(
        f"stats: {perf['records_moved']} records moved, "
        f"{_format_bytes(perf['bytes_moved'])} shuffled payload, "
        f"{_format_bytes(result.bytes_moved)} on the wire, "
        f"{result.messages} messages"
        + (f", {result.elapsed:.6f} s simulated" if simulated else "")
    )
    phases = perf.get("phases", {})
    if phases:
        width = max(len(name) for name in phases)
        print(f"  {'phase'.ljust(width)}  {'wall(s)':>10}")
        for name, t in phases.items():
            print(f"  {name.ljust(width)}  {t['wall_s']:>10.4f}")
    paths = perf.get("paths")
    if paths:
        print("  path: " + ", ".join(f"{op}={path}" for op, path in paths.items()))
    spill = perf.get("spill")
    if spill:
        print(
            f"  spill: {spill.get('runs_written', 0)} run(s) written, "
            f"{spill.get('spilled_records', 0)} records / "
            f"{_format_bytes(spill.get('spilled_bytes', 0))} spilled"
            + (" as narrow key + row-id runs" if spill.get("narrow") else "")
            + f", merge fan-in {spill.get('max_merge_fanin', 0)}"
        )
    transport = perf.get("transport")
    if transport:
        print(
            f"  transport: {transport['kind']}, "
            f"{_format_bytes(transport['shm_bytes'])} zero-copy, "
            f"{_format_bytes(transport['pickle_bytes'])} pickled arrays, "
            f"{_format_bytes(transport['inline_bytes'])} inline objects; "
            f"{transport['segments_created']} segment(s) created, "
            f"{transport['segments_unlinked']} swept at teardown"
        )
    output = perf.get("output")
    if output and output["mode"] == "in_place":
        print(
            f"  output: written in place by ranks ({output['parts']} parts, "
            f"{_format_bytes(output['bytes'])})"
        )
    elif output:
        print(f"  output: gathered to the driver ({output['reason']})")


def print_fault_report(result) -> None:
    """Render ``extra['fault']`` (attempts, recovery, crashes, injections)."""
    fault = result.extra.get("fault")
    if not fault:
        return
    recovered = ", ".join(fault["recovered_jobs"]) or "none"
    if "backoff_wall_s" in fault:
        backoff = f"backoff {fault['backoff_wall_s']:.3f} s wall"
    else:
        backoff = f"backoff {fault['backoff_s']:.3f} s priced"
    print(
        f"fault tolerance: {fault['attempts']} attempt(s), "
        f"recovered jobs: {recovered}, {backoff}"
    )
    for crash in fault.get("crashes", []):
        signal_name = f" ({crash['signal']})" if crash.get("signal") else ""
        print(
            f"  crash: attempt {crash['attempt']} rank {crash['rank']} "
            f"{crash['kind']}{signal_name}"
        )
    injected = fault.get("injected")
    if injected and injected.get("counts"):
        fired = ", ".join(f"{k}={v}" for k, v in sorted(injected["counts"].items()))
        print(f"  injected (seed {injected['seed']}): {fired}")
    for line in fault.get("failures", []):
        print(f"  {line}")


def cmd_run(ns: argparse.Namespace) -> int:
    """Partition the input into part files and print what the run reports."""
    front = _front_end(ns)
    if isinstance(front, int):
        return front
    from repro.core.files import partition_files

    schemas, plan, args = front
    fault_tolerance: dict = {"chaos_seed": ns.chaos_seed}
    if ns.faults:
        fault_tolerance["faults"] = ns.faults
    if ns.checkpoint_dir:
        from repro.fault import DiskCheckpointStore

        fault_tolerance["checkpoint"] = DiskCheckpointStore(ns.checkpoint_dir)
    if ns.max_attempts is not None:
        from repro.fault import RetryPolicy

        fault_tolerance["retry"] = RetryPolicy(max_attempts=ns.max_attempts)
    if ns.deadlock_grace is not None:
        fault_tolerance["deadlock_grace"] = ns.deadlock_grace
    recorder = None
    if ns.trace or ns.metrics or ns.timeline:
        from repro.obs import Recorder

        recorder = Recorder()
        fault_tolerance["recorder"] = recorder
    armed = False
    if ns.crash_agent:
        # validate the spec up front, then arm the process backend through
        # its environment channel (read at gang spawn time, every attempt)
        from repro.mpi.supervisor import CrashAgent

        try:
            CrashAgent.from_spec(ns.crash_agent)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        os.environ["PAPAR_CRASH_AGENT"] = ns.crash_agent
        armed = True
    try:
        out = partition_files(
            schemas, plan, args, backend=ns.backend, num_ranks=ns.ranks,
            memory_budget=ns.memory_budget, **fault_tolerance
        )
    finally:
        if armed:
            os.environ.pop("PAPAR_CRASH_AGENT", None)
    print(f"wrote {out.num_partitions} partition(s):")
    for path, part in zip(out.output_paths, out.partitions):
        print(f"  {path}  ({part.num_records} records)")
    print_fault_report(out.result)
    if ns.stats:
        print_stats(out.result)
    if recorder is not None:
        _export_observability(ns, recorder, out)
    return 0


def _export_observability(ns: argparse.Namespace, recorder, out) -> None:
    """Write the --trace/--metrics artifacts and print the --timeline."""
    from repro.obs import print_timeline, write_chrome_trace, write_metrics

    # the run starts with its (first) plan span: the imports and the input
    # read before it are not the run's time
    starts = [s.start_wall for s in recorder.spans if s.category == "plan"]
    if starts:
        recorder.rebase(min(starts))
    if ns.trace:
        write_chrome_trace(ns.trace, recorder)
        print(f"wrote trace {ns.trace}")
    if ns.metrics:
        run_info = {
            "workflow": ns.workflow,
            "backend": ns.backend,
            "ranks": ns.ranks,
            "partitions": out.num_partitions,
        }
        if out.result.elapsed > 0:  # a cluster model priced the run
            run_info["elapsed_s"] = out.result.elapsed
        write_metrics(ns.metrics, recorder, run=run_info)
        print(f"wrote metrics {ns.metrics}")
    if ns.timeline:
        print_timeline(recorder)

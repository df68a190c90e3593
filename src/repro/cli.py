"""Command-line driver: ``python -m repro <command> ...``.

The paper's runtime reads workflow arguments "from the configuration file at
runtime" with overrides from the command line; this CLI is that front end:

* ``lint``     — statically analyze the configs and report every finding;
* ``explain``  — render the plan and how each job runs (serial and SPMD);
* ``plan``     — parse the configs, resolve arguments, print the job table
  (and each job the planner drops: a dead stage, a redundant exchange);
* ``codegen``  — emit the generated partitioner source;
* ``run``      — partition an input file into ``part-NNNNN`` output files;
* ``serve``    — keep the partitions hot in a long-lived daemon that
  accepts incremental appends, rebalances online, and publishes atomic
  snapshots (see ``docs/streaming-service.md``).

``plan``, ``codegen``, ``run`` and ``serve`` share one front end: each
config file is read and parsed once, the workflow is planned once with the
real arguments, and the lint gate refuses configurations with errors
(``--no-lint`` skips the gate; the planner still rejects a key typo).
Then the command executes the plan the gate checked.

Example::

    python -m repro run \\
        --input-config blast_db.xml --workflow blast_partition.xml \\
        --arg input_path=db.index --arg output_path=out/ \\
        --arg num_partitions=16 --backend mpi --ranks 8
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import TYPE_CHECKING, Optional, Sequence

from repro.errors import PaParError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.framework import PaPar
    from repro.core.planner import WorkflowPlan


def _parse_arg_pairs(pairs: list[str]) -> dict[str, str]:
    args = {}
    for pair in pairs:
        if "=" not in pair:
            raise PaParError(f"--arg expects name=value, got {pair!r}")
        name, value = pair.split("=", 1)
        args[name] = value
    return args


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PaPar: generate and run application-specific data partitioners",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--input-config",
            action="append",
            default=[],
            metavar="FILE",
            help="input-data configuration XML (repeatable)",
        )
        p.add_argument("--workflow", required=True, metavar="FILE",
                       help="workflow configuration XML")
        p.add_argument("--arg", action="append", default=[], metavar="NAME=VALUE",
                       help="workflow argument (repeatable)")
        p.add_argument("--no-lint", action="store_true",
                       help="skip the static analysis gate")

    p_lint = sub.add_parser(
        "lint", help="statically analyze configurations without running them"
    )
    p_lint.add_argument("workflow", metavar="WORKFLOW_XML", nargs="?",
                        default=None,
                        help="workflow configuration file (omit with --explain)")
    p_lint.add_argument("--explain", metavar="PAPnnn", default=None,
                        help="print the catalog entry of a rule (description, "
                             "severity, bad/good example) and exit")
    p_lint.add_argument("--input", "--input-config", action="append", default=[],
                        dest="input", metavar="FILE",
                        help="input-data configuration XML (repeatable)")
    p_lint.add_argument("--arg", action="append", default=[], metavar="NAME=VALUE",
                        help="workflow argument (repeatable); improves "
                             "$reference resolution")
    p_lint.add_argument("--format", choices=("text", "json"), default="text",
                        help="report format (default: text)")
    p_lint.add_argument("--strict", action="store_true",
                        help="treat warnings as errors (non-zero exit)")
    p_lint.add_argument("--ranks", type=int, default=None, metavar="N",
                        help="intended rank count (enables cluster-fit rules)")
    p_lint.add_argument("--no-plan", action="store_true",
                        help="skip the resolved-plan rule family (PAP04x)")
    p_lint.add_argument("--memory-budget", default=None, metavar="SIZE",
                        help="declared per-rank memory budget (e.g. 64MB); "
                             "enables the out-of-core rules (PAP06x)")
    p_lint.add_argument("--assume-records", type=int, default=None, metavar="N",
                        help="assumed input record count (budget sizing, "
                             "wire bytes of PAP084)")
    p_lint.add_argument("--backend", default=None,
                        choices=("serial", "mpi", "mapreduce", "process"),
                        help="intended execution backend "
                             "(enables the backend-fit rules, PAP07x)")
    p_lint.add_argument("--faults", action="append", default=[], metavar="SPEC",
                        help="fault-injection spec the run would use "
                             "(repeatable); with --backend process, PAP070 "
                             "warns that the runtime will refuse injection")
    p_lint.add_argument("--checkpoint-dir", metavar="DIR",
                        help="checkpoint directory the run would use; "
                             "silences PAP072 for large process-backend runs")
    p_lint.add_argument("--serve", action="store_true",
                        help="the workflow is destined for the streaming "
                             "daemon (enables the serving-fit rules, PAP090)")

    p_explain = sub.add_parser(
        "explain",
        help="render the plan and the physical choice of each job on the "
             "serial and the SPMD backends, with its wire bytes",
    )
    p_explain.add_argument("workflow", metavar="WORKFLOW_XML",
                           help="workflow configuration file")
    p_explain.add_argument("--input", "--input-config", action="append",
                           default=[], dest="input", metavar="FILE",
                           help="input-data configuration XML (repeatable)")
    p_explain.add_argument("--arg", action="append", default=[],
                           metavar="NAME=VALUE",
                           help="workflow argument (repeatable); binding a "
                                "binary input file prices the wire by its size")
    p_explain.add_argument("--format", choices=("text", "json"), default="text",
                           help="report format (default: text)")
    p_explain.add_argument("--ranks", type=int, default=None, metavar="N",
                           help="intended rank count (enables cluster-fit rules)")
    p_explain.add_argument("--assume-records", type=int, default=None,
                           metavar="N",
                           help="assumed input record count when no real "
                                "input file is bound")

    p_plan = sub.add_parser("plan", help="print the planned job sequence")
    common(p_plan)

    p_gen = sub.add_parser("codegen", help="emit the generated partitioner source")
    common(p_gen)
    p_gen.add_argument("-o", "--output", metavar="FILE",
                       help="write the source here (default: stdout)")

    p_run = sub.add_parser("run", help="partition an input file into part files")
    common(p_run)
    p_run.add_argument("--backend", default="serial",
                       choices=("serial", "mpi", "mapreduce", "process"))
    p_run.add_argument("--ranks", type=int, default=1, help="MPI ranks to simulate")
    p_run.add_argument("--stats", action="store_true",
                       help="print shuffle perf counters (records/bytes moved, "
                            "per-phase wall time)")
    p_run.add_argument("--faults", action="append", default=[], metavar="SPEC",
                       help="inject a fault (repeatable), e.g. "
                            "'crash:rank=1,job=0', 'drop:src=0,dst=2,p=0.5', "
                            "'delay:p=0.1,seconds=0.25', "
                            "'straggler:rank=3,factor=4'")
    p_run.add_argument("--chaos-seed", type=int, default=0, metavar="N",
                       help="seed for fault-injection draws and retry jitter")
    p_run.add_argument("--checkpoint-dir", metavar="DIR",
                       help="checkpoint job outputs here; a failed run "
                            "resumes from the last fully-committed job "
                            "(with --backend process this drives the "
                            "gang-restart after a worker crash)")
    p_run.add_argument("--max-attempts", type=int, default=None, metavar="N",
                       help="retry budget for faulty runs (default 5 when "
                            "fault tolerance is active)")
    p_run.add_argument("--crash-agent", default=None, metavar="SPEC",
                       help="chaos harness for --backend process: really "
                            "kill/hang/exit one rank at a job boundary, e.g. "
                            "'kill:rank=1,job=0,when=before,"
                            "marker=/tmp/fired' (the marker file makes it "
                            "fire once, so a checkpointed retry recovers)")
    p_run.add_argument("--deadlock-grace", type=float, default=None,
                       metavar="SECONDS",
                       help="blocked-wait budget before a DeadlockError "
                            "(default 60)")
    p_run.add_argument("--trace", metavar="FILE",
                       help="write a Chrome trace-event JSON of the run "
                            "(load in Perfetto or chrome://tracing)")
    p_run.add_argument("--metrics", metavar="FILE",
                       help="write the versioned metrics JSON "
                            "(counters, gauges, histograms, span stats)")
    p_run.add_argument("--timeline", action="store_true",
                       help="print a per-rank Gantt chart and the "
                            "critical-path summary")
    p_run.add_argument("--memory-budget", default=None, metavar="SIZE",
                       help="bound each rank's working set (e.g. 64MB); "
                            "the input streams in chunks and oversized "
                            "shuffles/sorts spill to run files")

    p_serve = sub.add_parser(
        "serve",
        help="run the streaming partition daemon: load the workflow once, "
             "hold partitions hot, accept incremental appends",
    )
    common(p_serve)
    p_serve.set_defaults(serve=True)  # turns on the PAP090 lint-gate rules
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="listen address (default: 127.0.0.1)")
    p_serve.add_argument("--port", type=int, default=0,
                         help="listen port; 0 picks a free one and prints it")
    p_serve.add_argument("--backend", default="serial",
                         choices=("serial", "mpi", "mapreduce", "process"),
                         help="backend for the warm start and background "
                              "rebuilds (default: serial)")
    p_serve.add_argument("--ranks", type=int, default=1,
                         help="rank count for warm start and rebuilds")
    p_serve.add_argument("--rebalance-threshold", type=float, default=None,
                         metavar="RATIO",
                         help="skew/drift ratio past which an online "
                              "repartition is scheduled (default 0.5)")
    p_serve.add_argument("--max-pending", type=int, default=64, metavar="N",
                         help="acknowledged appends that may wait to be dealt "
                              "before the next is rejected with 429")
    p_serve.add_argument("--snapshot-dir", metavar="DIR",
                         help="publish versioned snapshots here; also "
                              "enables warm restart from the latest one")
    p_serve.add_argument("--metrics", metavar="FILE",
                         help="write the papar.serve metrics JSON on exit")
    return parser


def _explain_rule(code: str, fmt: str) -> int:
    """Print one catalog entry (``papar lint --explain PAPnnn``)."""
    import json

    from repro.analysis.rules import CATALOG

    normalized = code.strip().upper()
    spec = CATALOG.get(normalized)
    if spec is None:
        from difflib import get_close_matches

        close = get_close_matches(normalized, sorted(CATALOG), n=1)
        hint = f"; did you mean {close[0]}?" if close else ""
        print(f"error: unknown rule {code!r}{hint}", file=sys.stderr)
        return 2
    if fmt == "json":
        print(json.dumps(spec.explain_dict(), indent=2))
        return 0
    print(f"{spec.code} ({spec.name}) — {spec.severity.value}")
    print(f"  {spec.summary}")
    if spec.description:
        print(f"\n  {spec.description}")
    if spec.bad:
        print(f"\n  bad:  {spec.bad}")
    if spec.good:
        print(f"  good: {spec.good}")
    return 0


def _linter(ns: argparse.Namespace, schemas=None, errors_only: bool = False):
    """The analyzer the command's flags describe (the analysis verbs, and
    the gate)."""
    from repro.analysis.engine import Linter

    return Linter(
        schemas=schemas,
        ranks=getattr(ns, "ranks", None),
        memory_budget=getattr(ns, "memory_budget", None),
        assume_records=getattr(ns, "assume_records", None),
        backend=getattr(ns, "backend", None),
        # injection specs only: checkpoint/retry are recovery, legal everywhere
        faults=bool(getattr(ns, "faults", None)),
        checkpoint=bool(getattr(ns, "checkpoint_dir", None)),
        serve=bool(getattr(ns, "serve", False)),
        errors_only=errors_only,
    )


def cmd_lint(ns: argparse.Namespace) -> int:
    if ns.explain is not None:
        return _explain_rule(ns.explain, ns.format)
    if ns.workflow is None:
        print("error: a workflow file is required (or pass --explain PAPnnn)",
              file=sys.stderr)
        return 2
    from repro.analysis.engine import read_configs

    result = _linter(ns).lint(
        **read_configs(ns.workflow, ns.input),
        args=_parse_arg_pairs(ns.arg),
        do_plan=not ns.no_plan,
    )
    if ns.format == "json":
        print(result.render_json())
    else:
        print(result.render_text())
    return result.exit_code(strict=ns.strict)


def cmd_explain(ns: argparse.Namespace) -> int:
    from repro.analysis.engine import read_configs
    from repro.analysis.explain import explain

    report = explain(
        _linter(ns), **read_configs(ns.workflow, ns.input), args=_parse_arg_pairs(ns.arg)
    )
    if ns.format == "json":
        print(report.render_json())
    else:
        print(report.render_text())
    # advisories are INFO; only real configuration errors fail the command
    return report.lint.exit_code()


def _front_end(
    ns: argparse.Namespace,
) -> tuple[PaPar, WorkflowPlan, dict[str, str]] | int:
    """Read and parse each config once, plan once, and gate the plan.

    Returns ``(papar, plan, args)`` — the input schemas are registered on
    ``papar`` and the spec is ``plan.spec`` — or an exit code to bail
    with.  Unless ``--no-lint`` is given, the blocking lint checkers run
    over the plan first; warnings and infos never block.
    """
    # each command imports what it runs, here: ``--help`` loads no numpy
    from repro.core.framework import PaPar

    papar = PaPar()
    schemas = [papar.register_input_file(path) for path in ns.input_config]
    spec = papar.load_workflow_file(ns.workflow)
    args = _parse_arg_pairs(ns.arg)
    if ns.no_lint:
        return papar, papar.plan(spec, args), args

    from repro.analysis.engine import synthesize_arguments

    ctx, result = _linter(
        ns, {schema.id: schema for schema in schemas}, errors_only=True
    ).analyze(spec, filename=ns.workflow, args=args)
    if result.errors:
        for diag in result.errors:
            print(diag.render(), file=sys.stderr)
        print(
            f"lint: {len(result.errors)} error(s) in the configuration; "
            "fix them or pass --no-lint to proceed anyway",
            file=sys.stderr,
        )
        return 2
    if synthesize_arguments(spec, args) != args:
        # the gate planned with placeholders: the real plan names the
        # argument that has no value
        return papar, papar.plan(spec, args), args
    return papar, ctx.plan, args


def cmd_plan(ns: argparse.Namespace) -> int:
    front = _front_end(ns)
    if isinstance(front, int):
        return front
    _papar, plan, _args = front
    print(f"workflow {plan.workflow_id!r}: {len(plan.jobs)} job(s)")
    for i, job in enumerate(plan.jobs):
        src = job.source if job.source else "<workflow input>"
        print(
            f"  [{i}] {job.op_id} ({job.operator_name}) "
            f"<- {src}  -> {', '.join(job.output_paths)}"
        )
    for elided in plan.elided:
        print(f"  elided: {elided.op_id} ({elided.code} {elided.reason})")
    return 0


def cmd_codegen(ns: argparse.Namespace) -> int:
    front = _front_end(ns)
    if isinstance(front, int):
        return front
    papar, plan, _args = front
    source = papar.generate_code(plan)
    if ns.output:
        with open(ns.output, "w", encoding="utf-8") as fh:
            fh.write(source)
        print(f"wrote {ns.output}")
    else:
        print(source)
    return 0


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
    # simulated time is printed only for a run with a cluster model: the
    # CLI attaches none, and a column of zeros measures nothing
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
        virtual = f"  {'virtual(s)':>10}" if simulated else ""
        print(f"  {'phase'.ljust(width)}  {'wall(s)':>10}{virtual}")
        for name, t in phases.items():
            virtual = f"  {t['virtual_s']:>10.4f}" if simulated else ""
            print(f"  {name.ljust(width)}  {t['wall_s']:>10.4f}{virtual}")
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
        backoff = f"backoff {fault['backoff_virtual_s']:.3f} s virtual"
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
    front = _front_end(ns)
    if isinstance(front, int):
        return front
    papar, plan, args = front
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
        out = papar.partition_files(
            plan, args, backend=ns.backend, num_ranks=ns.ranks,
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

    if ns.trace:
        write_chrome_trace(ns.trace, recorder)
        print(f"wrote trace {ns.trace}")
    if ns.metrics:
        run_info = {
            "workflow": ns.workflow,
            "backend": ns.backend,
            "ranks": ns.ranks,
            "partitions": out.num_partitions,
            "elapsed_virtual_s": out.result.elapsed,
        }
        write_metrics(ns.metrics, recorder, run=run_info)
        print(f"wrote metrics {ns.metrics}")
    if ns.timeline:
        print_timeline(recorder)


def cmd_serve(ns: argparse.Namespace) -> int:
    import asyncio
    import json

    from repro.serve import ServeConfig, run_server

    front = _front_end(ns)
    if isinstance(front, int):
        return front
    papar, plan, args = front
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
        run_server(papar, plan, args, config=config, ready=ready)
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


_COMMANDS = {
    "lint": cmd_lint,
    "explain": cmd_explain,
    "plan": cmd_plan,
    "codegen": cmd_codegen,
    "run": cmd_run,
    "serve": cmd_serve,
}


def _stdout_reader_gone() -> bool:
    """Whether stdout is a pipe whose reading end was closed."""
    import select

    try:
        poller = select.poll()
        poller.register(sys.stdout.fileno(), select.POLLOUT)
    except (AttributeError, OSError, ValueError):
        return False  # not a file descriptor (captured, or no poll)
    return any(events & select.POLLERR for _, events in poller.poll(0))


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        code = _COMMANDS[ns.command](ns)
        # a reader that stopped early (``| head``) shows up here, not at exit
        sys.stdout.flush()
        return code
    except PaParError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except BrokenPipeError:
        if not _stdout_reader_gone():
            raise  # a worker's or a socket's pipe: a real failure
        # the Python docs' recipe: point stdout at devnull so the
        # interpreter's own flush at exit cannot raise a second time
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

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
Then the command executes the plan the gate checked.  Each command's flags
and body live in its own module, :mod:`repro.commands.<command>`, which
loads only when that command runs; none loads the :class:`~repro.PaPar`
facade.

Example::

    python -m repro run \\
        --input-config blast_db.xml --workflow blast_partition.xml \\
        --arg input_path=db.index --arg output_path=out/ \\
        --arg num_partitions=16 --backend mpi --ranks 8
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys
from typing import TYPE_CHECKING, Optional, Sequence

from repro.errors import PaParError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.config.schema import Schemas
    from repro.core.planner import WorkflowPlan


def _parse_arg_pairs(pairs: list[str]) -> dict[str, str]:
    args = {}
    for pair in pairs:
        if "=" not in pair:
            raise PaParError(f"--arg expects name=value, got {pair!r}")
        name, value = pair.split("=", 1)
        args[name] = value
    return args


def _common(p: argparse.ArgumentParser) -> None:
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


#: command -> its ``--help`` line, in ``--help`` order; the command's flags
#: (``arguments``) and body (``cmd_<command>``) are in the module
#: ``repro.commands.<command>``, imported by name when the command runs
COMMANDS = {
    "lint": "statically analyze configurations without running them",
    "explain": "render the plan and the physical choice of each job on the "
               "serial and the SPMD backends, with its wire bytes",
    "plan": "print the planned job sequence",
    "codegen": "emit the generated partitioner source",
    "run": "partition an input file into part files",
    "serve": "run the streaming partition daemon: load the workflow once, "
             "hold partitions hot, accept incremental appends",
}


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The CLI's parser: every command's sub-parser, or only ``command``'s.

    Without ``command`` the sub-parsers hold no flags, which is all that
    ``--help`` and a usage error of the top-level parser print; with it,
    only that command's module loads.  A usage error of ``command``'s
    parser is reported by the full one, so it prints the same bytes.
    """
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PaPar: generate and run application-specific data partitioners",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, line in COMMANDS.items():
        if command in (None, name):
            p = sub.add_parser(name, help=line)
        if command == name:
            importlib.import_module(f"repro.commands.{name}").arguments(p)
    if command is not None:
        parser.error = lambda message: build_parser().error(message)
    return parser


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


def _front_end(
    ns: argparse.Namespace,
) -> tuple[Schemas, WorkflowPlan, dict[str, str]] | int:
    """Read and parse each config once, plan once, and gate the plan.

    Returns ``(schemas, plan, args)`` — the input schemas by id, the plan
    (its spec is ``plan.spec``) and the arguments — or an exit code to
    bail with.  Unless ``--no-lint`` is given, the blocking lint checkers
    run over the plan first; warnings and infos never block.
    """
    # each command imports what it runs, here: ``--help`` loads no numpy
    from repro.config.schema import Schemas, load_input_config
    from repro.config.workflow import load_workflow_config
    from repro.core.planner import Planner

    schemas = Schemas()
    for path in ns.input_config:
        schema = load_input_config(path)
        schemas[schema.id] = schema
    spec = load_workflow_config(ns.workflow)
    args = _parse_arg_pairs(ns.arg)
    if ns.no_lint:
        return schemas, Planner().plan(spec, args, schemas), args

    from repro.analysis.engine import synthesize_arguments

    ctx, result = _linter(ns, schemas, errors_only=True).analyze(
        spec, filename=ns.workflow, args=args
    )
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
        return schemas, Planner().plan(spec, args, schemas), args
    return schemas, ctx.plan, args


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
    argv = sys.argv[1:] if argv is None else list(argv)
    ns = build_parser(argv[0] if argv and argv[0] in COMMANDS else None).parse_args(argv)
    try:
        command = importlib.import_module(f"repro.commands.{ns.command}")
        code = getattr(command, f"cmd_{ns.command}")(ns)
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

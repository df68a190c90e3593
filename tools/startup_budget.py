#!/usr/bin/env python3
"""What each CLI command pays before it does its work, and its import budget.

Every ``python -m repro`` child starts a fresh interpreter, and a checkout
run without ``.pyc`` files (``PYTHONDONTWRITEBYTECODE=1``, a fresh clone)
compiles every ``repro`` module it imports from source — so a command's
start-up cost follows the *source lines* it imports, not just the module
count.  This tool runs each command on small generated inputs and prints,
per command:

* the wall time: mean of the faster half of ``--runs`` fresh interpreters
  (launch to exit; ``serve``: launch to its ``serving on`` line);
* the exit time of a one-shot command, same statistic: from the last bytes
  it writes to stdout to the moment its process is reaped — what ending
  costs once the work is written (``python -m repro`` leaves through
  ``os._exit`` instead of tearing the interpreter down);
* the number of ``repro`` modules the command imported and their source
  lines, read from ``sys.modules`` at interpreter exit of one more run;
* whether ``numpy`` was loaded.

``--check`` fails (exit 1) when a command imports a module on its
deny-list, more modules or lines than its ceiling, or takes longer than
its (generous) time or exit ceiling.  ``BUDGETS`` below is the one table of those
ceilings; ``tests/core/test_startup_budget.py`` checks the same table.

Usage::

    python tools/startup_budget.py [--runs 10] [--check] [--only plan-hybrid]
"""

from __future__ import annotations

import argparse
import os
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

REPO = Path(__file__).resolve().parent.parent
CONFIGS = REPO / "configs"
sys.path.insert(0, str(REPO / "src"))
from repro.cli import COMMANDS  # noqa: E402  (loads argparse, no command)

#: runs the CLI in-process and writes ``name<TAB>file`` for every loaded
#: module to ``argv[1]`` at interpreter exit
_BOOT = """\
import atexit, sys
def _dump(path=sys.argv[1]):
    with open(path, "w", encoding="utf-8") as fh:
        for name, mod in sorted(sys.modules.items()):
            fh.write(f"{name}\\t{getattr(mod, '__file__', None) or ''}\\n")
atexit.register(_dump)
sys.argv = ["repro"] + sys.argv[2:]
import runpy
runpy.run_module("repro", run_name="__main__", alter_sys=True)
"""

#: module groups a command loads only when it asks for them
_SPMD = ("repro.mpi", "repro.fault", "repro.cluster")
_ENGINES = ("repro.core.codegen",)
_ON_REQUEST = ("repro.serve", "repro.obs", "repro.config.operators")
_SPILL = ("repro.ooc.runfile", "repro.ooc.extsort", "repro.ooc.spill")
#: what only an exchange of records, a group or a text file runs: a BLAST
#: run, whose sort exchanges nothing and which reads and writes binary
#: records, loads none of it
_UNRUN = ("repro.mapreduce.columnar", "repro.formats.packed", "repro.formats.text")
#: what touches records: the front end (parse, lint, plan, explain) loads
#: none of it, and so no numpy
_RECORDS = ("repro.core.dataset", "repro.order", "repro.formats.packed",
            "repro.policies.permutation")
#: what only ``@dataclass`` (and a JSON report, a did-you-mean) pulls in:
#: the front end defines its records without it, so loads none of it
_CLASS_BUILDING = ("dataclasses", "inspect", "json", "difflib")
#: the ``PaPar`` facade: the Python API over what the commands call
#: directly (``repro.config``, ``Planner``, ``runtime.execute_plan``,
#: ``core.files``), so no command loads it
_FACADE = ("repro.core.framework",)
#: the front end's deny-list
_FRONT = (_SPMD + _ENGINES + _ON_REQUEST + _RECORDS + _CLASS_BUILDING + _FACADE
          + ("repro.ooc", "repro.core.runtime"))
#: operators a BLAST workflow (sort, distribute) never names, so never loads
_UNNAMED_OPS = ("repro.ops.group", "repro.ops.split", "repro.ops.addons",
                "repro.ops.format_ops")
#: rule modules whose checkers only warn or inform: the gate of plan, run
#: and serve never runs them, so never loads them
_ADVISORY_RULES = ("repro.analysis.rules.advisory", "repro.analysis.rules.backend",
                   "repro.analysis.rules.serve")
#: how each job runs: the executors and ``explain`` read it, ``plan`` never
_PHYSICAL = ("repro.core.physical",)
#: what only a process run's segments (``multiprocessing.shared_memory``) or
#: a cluster model use: no communicator keeps a clock, so a run without a
#: model loads no ``repro.cluster`` module at all
_UNUSED_BY_PROCESS = ("secrets", "repro.cluster")


def _others(command: str) -> tuple[str, ...]:
    """The modules of every CLI command but ``command``: each loads by name."""
    return tuple(f"repro.commands.{name}" for name in COMMANDS if name != command)


@dataclass(frozen=True)
class Budget:
    """What one command may import, and how long it may take."""

    #: ceiling on ``repro`` modules imported
    modules: int
    #: ceiling on the source lines of those modules
    lines: int
    #: modules (and their submodules) the command must not import
    deny: tuple[str, ...]
    #: a generous wall-time ceiling (s), so only a gross regression fails
    seconds: float = 3.0
    #: whether the command may load numpy
    numpy: bool = True
    #: a ceiling on the exit (s): the last stdout bytes to the process
    #: reaped; None for ``serve``, which is stopped, not finished
    exit: Optional[float] = 0.015


BUDGETS: dict[str, Budget] = {
    "help": Budget(5, 550, ("repro.core", "repro.config", "repro.analysis", "repro.commands"),
                   seconds=0.5, numpy=False, exit=None),
    # every rule runs; records come from --assume-records or a stat of a
    # binary input, never a scan, so lint loads no repro.ooc
    "lint-hybrid": Budget(41, 5_950, _FRONT + _others("lint") + _PHYSICAL,
                          seconds=1.0, numpy=False),
    "plan-blast": Budget(33, 5_100, _FRONT + _others("plan") + _PHYSICAL + _UNNAMED_OPS
                         + _ADVISORY_RULES, seconds=1.0, numpy=False),
    "plan-hybrid": Budget(38, 5_500, _FRONT + _others("plan") + _PHYSICAL + _ADVISORY_RULES,
                          seconds=1.0, numpy=False),
    "explain-blast": Budget(38, 5_900, _FRONT + _others("explain") + _UNNAMED_OPS,
                            seconds=1.0, numpy=False),
    # a serial run exchanges nothing and reads its input through the
    # configured schema, so it loads no repro.mapreduce module at all
    "run-blast": Budget(40, 7_800, _SPMD + _ENGINES + _ON_REQUEST + _UNRUN + _UNNAMED_OPS
                        + _ADVISORY_RULES + _FACADE + _others("run")
                        + ("repro.ooc", "repro.mapreduce", "dataclasses"), seconds=1.5),
    "run-hybrid": Budget(46, 8_400, _SPMD + _ENGINES + _ON_REQUEST + _ADVISORY_RULES
                         + _FACADE + _others("run")
                         + ("repro.ooc", "repro.mapreduce", "dataclasses"),
                         seconds=1.5),
    # a budget that bounds the read and that the narrow sort fits: nothing spills
    "run-budget": Budget(44, 8_350, _SPMD + _ENGINES + _ON_REQUEST + _UNRUN + _UNNAMED_OPS
                         + _ADVISORY_RULES + _FACADE + _others("run")
                         + ("repro.ooc.runfile", "repro.ooc.extsort", "repro.mapreduce",
                            "dataclasses"),
                         seconds=1.5),
    "run-process": Budget(50, 10_000, ("repro.fault",) + _ENGINES + _ON_REQUEST + _UNRUN
                          + _UNNAMED_OPS + _ADVISORY_RULES + _FACADE + _others("run")
                          + _UNUSED_BY_PROCESS + ("repro.ooc",), seconds=2.0),
    "serve": Budget(58, 11_400, ("repro.mpi", "repro.cluster", "repro.ooc.chunked",
                                 "repro.fault", "repro.serve.client")
                    + _ENGINES + _SPILL[1:] + _UNNAMED_OPS + _ADVISORY_RULES + _FACADE
                    + _others("serve"), seconds=2.0, exit=None),
}


def make_inputs(work: Path) -> dict[str, str]:
    """Write a small BLAST index and an edge list; return the paths."""
    sys.path.insert(0, str(REPO / "benchmarks"))  # the case studies' inputs
    try:
        from apps.blast import generate_index
        from apps.graph import generate_graph
    finally:
        sys.path.pop(0)
    from repro.formats import BLAST_INDEX_SCHEMA, EDGE_LIST_SCHEMA, write_binary, write_text

    index = str(work / "db.index")
    write_binary(index, generate_index("env_nr", num_sequences=20_000, seed=5),
                 BLAST_INDEX_SCHEMA, header=b"\x00" * 32)
    edges = str(work / "edges.txt")
    graph = generate_graph("google", scale=0.002, seed=13)
    write_text(edges, graph.to_dataset().to_flat().records.tolist(), EDGE_LIST_SCHEMA)
    return {"index": index, "edges": edges}


def commands(paths: dict[str, str], work: Path) -> dict[str, list[str]]:
    """The CLI argument list of every budgeted command."""
    blast = ["--workflow", str(CONFIGS / "blast_partition.xml"),
             "--input-config", str(CONFIGS / "blast_db.xml"),
             "--arg", f"input_path={paths['index']}",
             "--arg", f"output_path={work / 'out-blast'}",
             "--arg", "num_partitions=8"]
    hybrid = ["--workflow", str(CONFIGS / "hybrid_cut.xml"),
              "--input-config", str(CONFIGS / "graph_edge.xml"),
              "--arg", f"input_file={paths['edges']}",
              "--arg", f"output_path={work / 'out-hybrid'}",
              "--arg", "num_partitions=8", "--arg", "threshold=30"]
    return {
        "help": ["--help"],
        "lint-hybrid": ["lint", str(CONFIGS / "hybrid_cut.xml"),
                        "--input", str(CONFIGS / "graph_edge.xml"),
                        "--arg", f"input_file={paths['edges']}"],
        "plan-blast": ["plan", *blast],
        "explain-blast": ["explain", str(CONFIGS / "blast_partition.xml"),
                          "--input", str(CONFIGS / "blast_db.xml"),
                          "--arg", f"input_path={paths['index']}"],
        "plan-hybrid": ["plan", *hybrid],
        "run-blast": ["run", *blast],
        "run-hybrid": ["run", *hybrid],
        "run-budget": ["run", *blast, "--memory-budget", "1MB"],
        "run-process": ["run", *blast, "--backend", "process", "--ranks", "2"],
        "serve": ["serve", *blast, "--port", "0"],
    }


def _env() -> dict[str, str]:
    return {**os.environ, "PYTHONPATH": str(REPO / "src")}


def _launch(argv: list[str], serve: bool) -> tuple[float, Optional[float]]:
    """One fresh interpreter: its wall (to ``serving on`` for ``serve``), and
    for a one-shot command the seconds from its last stdout bytes to its
    process reaped (None for ``serve``)."""
    t0 = time.perf_counter()
    if not serve:
        proc = subprocess.Popen(argv, env=_env(), stdout=subprocess.PIPE)
        last = None
        with proc.stdout:
            while proc.stdout.read1(1 << 16):
                last = time.perf_counter()
        code = proc.wait()
        reaped = time.perf_counter()
        if code != 0:
            raise subprocess.CalledProcessError(code, argv)
        return reaped - t0, None if last is None else reaped - last
    proc = subprocess.Popen(argv, env=_env(), stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        wall = time.perf_counter() - t0
        if not line.startswith("serving on "):
            raise RuntimeError(f"serve did not start: {line!r}")
    finally:
        proc.send_signal(signal.SIGTERM)  # SIGTERM drains, then exits 0
        proc.communicate(timeout=60)
    if proc.returncode != 0:
        raise RuntimeError(f"serve exited {proc.returncode}")
    return wall, None


def imported(args: list[str], serve: bool, work: Path) -> dict[str, str]:
    """``{module: file}`` of everything one run of the command loaded."""
    dump = work / "modules.txt"
    _launch([sys.executable, "-c", _BOOT, str(dump), *args], serve)
    with open(dump, encoding="utf-8") as fh:
        return dict(line.rstrip("\n").split("\t", 1) for line in fh)


def source_lines(path: str) -> int:
    """Lines of one module's source file (0 for a module without one)."""
    if not path.endswith(".py"):
        return 0
    with open(path, "rb") as fh:
        return len(fh.read().splitlines())


def is_repro(name: str) -> bool:
    """Whether ``name`` is this package or one of its modules."""
    return name == "repro" or name.startswith("repro.")


def violations(name: str, mods: dict[str, str], wall: Optional[float],
               exit_s: Optional[float] = None) -> list[str]:
    """How one command's measurement breaks its budget (empty: it does not)."""
    budget = BUDGETS[name]
    own = {m: f for m, f in mods.items() if is_repro(m)}
    lines = sum(source_lines(f) for f in own.values())
    found = []
    denied = sorted(m for m in mods
                    if any(m == d or m.startswith(d + ".") for d in budget.deny))
    if denied:
        found.append(f"imports {', '.join(denied)}")
    if len(own) > budget.modules:
        found.append(f"{len(own)} repro modules > {budget.modules}")
    if lines > budget.lines:
        found.append(f"{lines} source lines > {budget.lines}")
    if not budget.numpy and "numpy" in mods:
        found.append("imports numpy")
    if wall is not None and wall > budget.seconds:
        found.append(f"{wall:.3f} s > {budget.seconds} s")
    if exit_s is not None and budget.exit is not None and exit_s > budget.exit:
        found.append(f"exit {exit_s:.4f} s > {budget.exit} s")
    return found


def _stat(values: Sequence[Optional[float]]) -> Optional[float]:
    """The benchmark's statistic over the measured values (None if none)."""
    from harness import faster_half_mean

    got = [v for v in values if v is not None]
    return faster_half_mean(got) if got else None


def _cell(value: Optional[float], width: int, digits: int) -> str:
    return f"{value:>{width}.{digits}f}" if value is not None else f"{'-':>{width}}"


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10,
                        help="fresh interpreters timed per command (default 10)")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 when a command exceeds its budget")
    parser.add_argument("--only", action="append", choices=sorted(BUDGETS),
                        help="measure only this command (repeatable)")
    ns = parser.parse_args(argv)
    sys.path.insert(0, str(REPO / "benchmarks" / "e2e"))  # harness: the statistic

    failed = False
    with tempfile.TemporaryDirectory(prefix="startup-budget-") as tmp:
        work = Path(tmp)
        cmds = commands(make_inputs(work), work)
        print(f"{'command':<13} {'wall(s)':>8} {'exit(s)':>8} {'modules':>8} {'lines':>7} "
              f"{'numpy':>5}  budget")
        for name in ns.only or BUDGETS:
            serve = name == "serve"
            args = cmds[name]
            runs = [_launch([sys.executable, "-m", "repro", *args], serve)
                    for _ in range(ns.runs)]
            wall = _stat([w for w, _ in runs])
            exit_s = _stat([e for _, e in runs])
            mods = imported(args, serve, work)
            own = [f for m, f in mods.items() if is_repro(m)]
            bad = violations(name, mods, wall, exit_s)
            failed |= bool(bad)
            budget = BUDGETS[name]
            print(f"{name:<13} {_cell(wall, 8, 3)} {_cell(exit_s, 8, 4)} "
                  f"{len(own):>8} {sum(map(source_lines, own)):>7} "
                  f"{'yes' if 'numpy' in mods else 'no':>5}  "
                  f"<= {budget.modules} / {budget.lines}"
                  + (f"  OVER: {'; '.join(bad)}" if bad else ""))
    return 1 if failed and ns.check else 0


if __name__ == "__main__":
    sys.exit(main())

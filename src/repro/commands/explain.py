"""``repro explain``: the plan and how each job runs, serial and SPMD."""

from __future__ import annotations

import argparse

from repro.cli import _linter, _parse_arg_pairs


def arguments(p: argparse.ArgumentParser) -> None:
    """Add ``explain``'s flags: the workflow, its inputs and the run it prices."""
    p.add_argument("workflow", metavar="WORKFLOW_XML",
                   help="workflow configuration file")
    p.add_argument("--input", "--input-config", action="append",
                   default=[], dest="input", metavar="FILE",
                   help="input-data configuration XML (repeatable)")
    p.add_argument("--arg", action="append", default=[],
                   metavar="NAME=VALUE",
                   help="workflow argument (repeatable); binding a "
                        "binary input file prices the wire by its size")
    p.add_argument("--format", choices=("text", "json"), default="text",
                   help="report format (default: text)")
    p.add_argument("--ranks", type=int, default=None, metavar="N",
                   help="intended rank count (enables cluster-fit rules)")
    p.add_argument("--assume-records", type=int, default=None,
                   metavar="N",
                   help="assumed input record count when no real "
                        "input file is bound")


def cmd_explain(ns: argparse.Namespace) -> int:
    """Print the plan and each job's physical choice; exit 1 on config errors."""
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

"""``repro lint``: statically analyze configurations without running them."""

from __future__ import annotations

import argparse
import sys

from repro.cli import _linter, _parse_arg_pairs


def arguments(p: argparse.ArgumentParser) -> None:
    """Add ``lint``'s flags: the workflow, its inputs and the run it would make."""
    p.add_argument("workflow", metavar="WORKFLOW_XML", nargs="?",
                   default=None,
                   help="workflow configuration file (omit with --explain)")
    p.add_argument("--explain", metavar="PAPnnn", default=None,
                   help="print the catalog entry of a rule (description, "
                        "severity, bad/good example) and exit")
    p.add_argument("--input", "--input-config", action="append", default=[],
                   dest="input", metavar="FILE",
                   help="input-data configuration XML (repeatable)")
    p.add_argument("--arg", action="append", default=[], metavar="NAME=VALUE",
                   help="workflow argument (repeatable); improves "
                        "$reference resolution")
    p.add_argument("--format", choices=("text", "json"), default="text",
                   help="report format (default: text)")
    p.add_argument("--strict", action="store_true",
                   help="treat warnings as errors (non-zero exit)")
    p.add_argument("--ranks", type=int, default=None, metavar="N",
                   help="intended rank count (enables cluster-fit rules)")
    p.add_argument("--no-plan", action="store_true",
                   help="skip the resolved-plan rule family (PAP04x)")
    p.add_argument("--memory-budget", default=None, metavar="SIZE",
                   help="declared per-rank memory budget (e.g. 64MB); "
                        "enables the out-of-core rules (PAP06x)")
    p.add_argument("--assume-records", type=int, default=None, metavar="N",
                   help="assumed input record count (budget sizing, "
                        "wire bytes of PAP084)")
    p.add_argument("--backend", default=None,
                   choices=("serial", "mpi", "mapreduce", "process"),
                   help="intended execution backend "
                        "(enables the backend-fit rules, PAP07x)")
    p.add_argument("--faults", action="append", default=[], metavar="SPEC",
                   help="fault-injection spec the run would use "
                        "(repeatable); with --backend process, PAP070 "
                        "warns that the runtime will refuse injection")
    p.add_argument("--checkpoint-dir", metavar="DIR",
                   help="checkpoint directory the run would use; "
                        "silences PAP072 for large process-backend runs")
    p.add_argument("--serve", action="store_true",
                   help="the workflow is destined for the streaming "
                        "daemon (enables the serving-fit rules, PAP090)")


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


def cmd_lint(ns: argparse.Namespace) -> int:
    """Lint the configs and print the report; exit 1 on errors (``--strict``: warnings)."""
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

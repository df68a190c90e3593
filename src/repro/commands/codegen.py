"""``repro codegen``: emit the generated partitioner source."""

from __future__ import annotations

import argparse

from repro.cli import _common, _front_end


def arguments(p: argparse.ArgumentParser) -> None:
    """Add ``codegen``'s flags: the front end's and the output file."""
    _common(p)
    p.add_argument("-o", "--output", metavar="FILE",
                   help="write the source here (default: stdout)")


def cmd_codegen(ns: argparse.Namespace) -> int:
    """Print (or write) the generated partitioner of the gated plan."""
    front = _front_end(ns)
    if isinstance(front, int):
        return front
    from repro.core.codegen import generate_partitioner_source

    _schemas, plan, _args = front
    source = generate_partitioner_source(plan)
    if ns.output:
        with open(ns.output, "w", encoding="utf-8") as fh:
            fh.write(source)
        print(f"wrote {ns.output}")
    else:
        print(source)
    return 0

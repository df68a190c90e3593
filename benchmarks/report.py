"""Aggregate recorded experiments into one report.

``python benchmarks/report.py [results_dir]`` prints every table recorded
by the benchmark suite (default: ``benchmarks/results``) in experiment-id
order — the quick way to eyeball the whole reproduction after a
``pytest benchmarks/ --benchmark-only`` run.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Optional

from _harness import Experiment

DEFAULT_DIR = os.path.join("benchmarks", "results")


def load_experiments(results_dir: str) -> list[Experiment]:
    """Parse every recorded ``.json`` artifact back into Experiments."""
    out = []
    if not os.path.isdir(results_dir):
        return out
    for name in sorted(os.listdir(results_dir)):
        if not name.endswith(".json"):
            continue
        with open(os.path.join(results_dir, name)) as fh:
            payload = json.load(fh)
        exp = Experiment(id=payload["id"], title=payload["title"], rows=payload["rows"])
        exp.notes = payload.get("notes", [])
        out.append(exp)
    return out


def render_report(results_dir: str = DEFAULT_DIR) -> str:
    """One text document with every recorded experiment table."""
    experiments = load_experiments(results_dir)
    if not experiments:
        return f"(no recorded experiments under {results_dir!r} — run pytest benchmarks/ first)"
    parts = [f"# PaPar reproduction report — {len(experiments)} experiments\n"]
    parts += [exp.render() for exp in experiments]
    return "\n".join(parts)


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    results_dir = argv[0] if argv else DEFAULT_DIR
    print(render_report(results_dir))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

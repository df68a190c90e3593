"""Experiment harness shared by the ``benchmarks/`` suite.

Each table/figure benchmark produces rows (dicts), renders them as an
aligned text table, asserts the paper's *shape* (who wins, roughly by how
much), and records the table under ``benchmarks/results/`` so EXPERIMENTS.md
can cite actual artifacts.  Benchmarks import this module from their own
directory; tests load it by path (``sys.path.insert(0, <repo>/benchmarks)``).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional, Sequence

from repro.errors import PaParError


def format_table(rows: Sequence[Mapping[str, Any]], columns: Optional[Sequence[str]] = None) -> str:
    """Render rows as an aligned monospace table."""
    if not rows:
        return "(no rows)"
    cols = list(columns) if columns else list(rows[0].keys())

    def fmt(v: Any) -> str:
        if isinstance(v, float):
            return f"{v:.4g}"
        return str(v)

    table = [[fmt(r.get(c, "")) for c in cols] for r in rows]
    widths = [max(len(c), *(len(row[i]) for row in table)) for i, c in enumerate(cols)]
    lines = [
        "  ".join(c.ljust(w) for c, w in zip(cols, widths)),
        "  ".join("-" * w for w in widths),
    ]
    lines += ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)) for row in table]
    return "\n".join(lines)


@dataclass
class Experiment:
    """One reproduced table or figure."""

    id: str
    title: str
    rows: list[dict[str, Any]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add(self, **row: Any) -> None:
        self.rows.append(row)

    def note(self, text: str) -> None:
        self.notes.append(text)

    def render(self) -> str:
        parts = [f"== {self.id}: {self.title} ==", format_table(self.rows)]
        parts += [f"note: {n}" for n in self.notes]
        return "\n".join(parts) + "\n"


class Reporter:
    """Writes experiment artifacts under a results directory."""

    def __init__(self, results_dir: str) -> None:
        self.results_dir = results_dir
        os.makedirs(results_dir, exist_ok=True)

    def record(self, experiment: Experiment) -> str:
        """Write the .txt table and .json rows; returns the rendered table."""
        text = experiment.render()
        stem = experiment.id.lower().replace(" ", "_").replace("(", "").replace(")", "")
        with open(os.path.join(self.results_dir, f"{stem}.txt"), "w") as fh:
            fh.write(text)
        with open(os.path.join(self.results_dir, f"{stem}.json"), "w") as fh:
            json.dump(
                {"id": experiment.id, "title": experiment.title, "rows": experiment.rows,
                 "notes": experiment.notes},
                fh,
                indent=2,
                default=str,
            )
        print("\n" + text)
        return text


def shape(condition: bool, claim: str) -> None:
    """Assert one qualitative claim of the paper, with a readable message."""
    if not condition:
        raise PaParError(f"paper-shape violation: {claim}")

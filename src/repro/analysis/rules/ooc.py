"""Out-of-core sizing checks (PAP060-PAP061).

These rules only fire when the user *declares* a memory budget
(``papar lint --memory-budget 64MB``): PAP061 validates the budget spec
itself, and PAP060 estimates the input's resident size — record width
from the input schema times ``--assume-records`` — and warns when it
exceeds the budget while the workflow has no spill-capable operator
(sort, group, or distribute all stream through run files under a
budget; a workflow of only basic operators materializes its input).
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.model import LintContext
from repro.analysis.rules import checker

#: operator kinds whose budgeted execution spills to run files
SPILL_CAPABLE = ("sort", "group", "distribute")


def _format_bytes(n: int) -> str:
    value = float(n)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024 or unit == "GiB":
            return f"{n} B" if unit == "B" else f"{value:.1f} {unit}"
        value /= 1024
    return f"{n} B"  # pragma: no cover - unreachable


def _parse_budget(spec: str) -> Optional[int]:
    from repro.ooc.budget import MemoryBudgetError, parse_memory_budget

    try:
        return parse_memory_budget(spec)
    except MemoryBudgetError:
        return None


@checker("PAP060", "PAP061")
def check_memory_budget(ctx: LintContext) -> Iterator[Diagnostic]:
    """PAP060/PAP061: declared budget versus estimated input size."""
    if ctx.memory_budget is None:
        return
    limit = _parse_budget(ctx.memory_budget)
    if limit is None:
        yield ctx.diag(
            "PAP061",
            f"--memory-budget {ctx.memory_budget!r} is not a valid size",
            suggestion="use a byte count or a size like 64MB / 1GiB",
        )
        return
    if ctx.assume_records is None or ctx.model is None:
        return
    schema, arg = ctx.input_schema()
    if schema is None:
        return
    from repro.analysis.cost import record_bytes

    width = record_bytes(schema)
    estimated = int(ctx.assume_records) * width
    if estimated <= limit:
        return
    if any(op.kind in SPILL_CAPABLE for op in ctx.model.operators):
        # a spill-capable stage bounds the working set; nothing to warn about
        return
    yield ctx.diag(
        "PAP060",
        f"estimated input size {_format_bytes(estimated)} "
        f"({ctx.assume_records} records x {width} B) exceeds the "
        f"declared memory budget {_format_bytes(limit)}, and no operator in "
        "this workflow (sort/group/distribute) can spill to run files",
        line=arg.line if arg is not None else None,
        suggestion="raise --memory-budget or route the data through a "
        "spill-capable operator",
    )

"""The ``papar explain`` report: the analyzed plan-IR, rendered.

One :func:`explain_files` call runs the same engine pass ``papar lint``
runs, then renders what the fixed-point analyses concluded instead of
only what the rules flagged: per operator the inferred record schema,
the live (actually-read) columns, the dataflow edges, and — for every
exchange — the estimated rows and payload bytes the shuffle moves, plus
the PAP08x advisories that fall out of the same numbers.

Output is text (terminal report) or versioned JSON (schema
``papar.explain`` v1, pinned by a contract test) so other tooling can
consume the cost model without scraping the terminal rendering.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional

from repro.analysis.diagnostics import LintResult
from repro.analysis.engine import Linter
from repro.analysis.locate import read_config
from repro.formats.records import RecordSchema

#: JSON contract version of the explain report
EXPLAIN_SCHEMA_VERSION = 1

#: advisory codes the explain report surfaces alongside the analyses
_ADVISORY_PREFIX = "PAP08"


def _fmt_count(value: Optional[float]) -> str:
    if value is None:
        return "?"
    return f"{value:,.0f}"


def _fmt_bytes(value: Optional[float]) -> str:
    if value is None:
        return "?"
    for unit, scale in (("GB", 1 << 30), ("MB", 1 << 20), ("KB", 1 << 10)):
        if value >= scale:
            return f"{value / scale:.1f}{unit}"
    return f"{value:.0f}B"


@dataclass
class ExplainReport:
    """The rendered-model side of one analysis pass."""

    workflow: str
    file: Optional[str]
    #: per-operator dicts (id, kind, schema, live columns, exchange, ...)
    operators: list[dict] = field(default_factory=list)
    #: recovered dataflow edges as dicts (src, src_output, dst, path)
    edges: list[dict] = field(default_factory=list)
    #: per-exchange cost estimates as dicts (op, kind, rows, est_bytes, ...)
    exchanges: list[dict] = field(default_factory=list)
    #: unused input columns + the bytes pruning them would save
    pruning: dict = field(default_factory=dict)
    #: the lint result of the same pass (advisories live here)
    lint: LintResult = field(default_factory=LintResult)

    @property
    def advisories(self) -> list:
        """The PAP08x findings of the pass, in report order."""
        return [d for d in self.lint if d.code.startswith(_ADVISORY_PREFIX)]

    def to_dict(self) -> dict:
        """The versioned JSON form (schema ``papar.explain`` v1)."""
        return {
            "version": EXPLAIN_SCHEMA_VERSION,
            "tool": "papar-explain",
            "workflow": self.workflow,
            "file": self.file,
            "operators": self.operators,
            "edges": self.edges,
            "exchanges": self.exchanges,
            "pruning": self.pruning,
            "advisories": [d.to_dict() for d in self.advisories],
            "summary": {
                "errors": len(self.lint.errors),
                "warnings": len(self.lint.warnings),
                "info": len(self.lint.infos),
            },
        }

    def render_json(self) -> str:
        """:meth:`to_dict` as indented JSON text."""
        return json.dumps(self.to_dict(), indent=2)

    def render_text(self) -> str:
        """The terminal report."""
        lines = [f"workflow {self.workflow!r}" + (f" ({self.file})" if self.file else "")]
        for op in self.operators:
            head = f"  [{op['index']}] {op['id']} ({op['kind']})"
            if op.get("exchange"):
                head += f"  exchange={op['exchange']}"
            lines.append(head)
            schema = op.get("schema")
            if schema is None:
                lines.append("      schema: ?")
            elif isinstance(schema, str):
                lines.append(f"      schema: conflict - {schema}")
            else:
                rendered = ", ".join(f"{n}:{t}" for n, t in schema)
                lines.append(f"      schema: {rendered}")
            live = op.get("live")
            if live is not None:
                lines.append(
                    "      live columns: "
                    + (", ".join(live) if live else "(none)")
                )
            rows = op.get("est_rows")
            lines.append(f"      est rows in: {_fmt_count(rows)}")
        if self.edges:
            lines.append("  edges:")
            for e in self.edges:
                src = e["src"] if e["src"] is not None else "<input>"
                lines.append(f"      {src}[{e['src_output']}] -> {e['dst']}  ({e['path']})")
        if self.exchanges:
            lines.append("  exchanges:")
            for ex in self.exchanges:
                lines.append(
                    f"      {ex['op']} ({ex['kind']}): "
                    f"rows={_fmt_count(ex['rows'])} "
                    f"bytes={_fmt_bytes(ex['est_bytes'])}"
                    + ("" if ex["measured"] else " (assumed)" if ex["rows"] is not None else "")
                )
        if self.pruning.get("unused_columns"):
            cols = ", ".join(self.pruning["unused_columns"])
            lines.append(
                f"  prunable columns: {cols} "
                f"(est saving {_fmt_bytes(self.pruning.get('est_bytes_saved'))})"
            )
        advisories = self.advisories
        if advisories:
            lines.append("  advisories:")
            for d in advisories:
                lines.append(f"      {d.render()}")
        lines.append("  " + self.lint.summary())
        return "\n".join(lines)


def _schema_json(value) -> Any:
    """SchemaValue -> JSON: field pairs, a conflict string, or None."""
    from repro.analysis.dataflow import BOTTOM, CONCRETE

    if value is None:
        return None
    if value.kind == CONCRETE:
        return [list(pair) for pair in value.fields]
    if value.kind == BOTTOM:
        return value.reason or "conflict"
    return None


def build_report(ctx, result: LintResult) -> ExplainReport:
    """Assemble an :class:`ExplainReport` from an analyzed context."""
    report = ExplainReport(
        workflow=ctx.model.id if ctx.model is not None else "<unparsed>",
        file=ctx.filename,
        lint=result,
    )
    analyzed = ctx.analyzed()
    if analyzed is None:
        return report
    ir, cost = analyzed.ir, analyzed.cost
    for node in ir.nodes:
        schema_value = analyzed.schema_of.get(node.op_id)
        live = analyzed.live_of.get(node.op_id)
        card = analyzed.card_of.get(node.op_id)
        report.operators.append(
            {
                "index": node.index,
                "id": node.op_id,
                "kind": node.kind,
                "line": node.line,
                "exchange": node.exchange,
                "schema": _schema_json(schema_value),
                "live": sorted(live) if live is not None else None,
                "est_rows": card.rows if card is not None else None,
                "input": node.input,
                "outputs": list(node.outputs),
            }
        )
    report.edges = [
        {"src": e.src, "src_output": e.src_output, "dst": e.dst, "path": e.path}
        for e in ir.edges
    ]
    report.exchanges = [
        {
            "op": est.op_id,
            "kind": est.kind,
            "rows": est.rows,
            "row_bytes": est.row_bytes,
            "est_bytes": est.est_bytes,
            "measured": est.measured,
        }
        for est in cost.exchanges
    ]
    report.pruning = {
        "unused_columns": list(cost.unused_columns),
        "est_bytes_saved": cost.prunable_bytes,
    }
    return report


def explain_workflow(
    workflow_xml: str,
    filename: Optional[str] = None,
    inputs: Iterable[tuple[str, Optional[str]]] = (),
    args: Optional[dict[str, Any]] = None,
    schemas: Optional[dict[str, RecordSchema]] = None,
    ranks: Optional[int] = None,
    assume_records: Optional[int] = None,
) -> ExplainReport:
    """Analyze one workflow (XML text) and build its explain report."""
    linter = Linter(schemas=schemas, ranks=ranks, assume_records=assume_records)
    ctx, result = linter.analyze(
        workflow_xml, filename=filename, inputs=inputs, args=args
    )
    if ctx is None:
        return ExplainReport(workflow="<unparsed>", file=filename, lint=result)
    return build_report(ctx, result)


def explain_files(
    workflow_path: str,
    input_paths: Iterable[str] = (),
    args: Optional[dict[str, Any]] = None,
    schemas: Optional[dict[str, RecordSchema]] = None,
    ranks: Optional[int] = None,
    assume_records: Optional[int] = None,
) -> ExplainReport:
    """:func:`explain_workflow` over configuration files on disk."""
    workflow_xml = read_config(workflow_path)
    inputs = [(read_config(path), path) for path in input_paths]
    return explain_workflow(
        workflow_xml,
        filename=str(workflow_path),
        inputs=inputs,
        args=args,
        schemas=schemas,
        ranks=ranks,
        assume_records=assume_records,
    )

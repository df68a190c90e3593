"""The ``papar explain`` report: the planned workflow and how each job runs.

One :func:`explain` call runs the same engine pass ``papar lint`` runs,
then renders the plan instead of only what the rules flagged: per operator
its exchange kind and the dataflow edges, and for every planned job the
physical plan's choice (:func:`~repro.core.physical.physical_plan`, the
decision the runtimes dispatch on) on the serial backend and on the SPMD
backends, with the record bytes the SPMD run puts on the wire when the
input's record count is known — plus the PAP08x advisories of the pass.

Output is text (terminal report) or versioned JSON (schema
``papar.explain`` v2, pinned by a contract test) so other tooling can
read the physical plan without scraping the terminal rendering.
:func:`plan_to_dot` draws a planned workflow's edges as Graphviz DOT.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, Optional

from repro.analysis.diagnostics import LintResult
from repro.analysis.engine import Linter
from repro.config.workflow import WorkflowSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.physical import Physical
    from repro.core.planner import WorkflowPlan

#: JSON contract version of the explain report
EXPLAIN_SCHEMA_VERSION = 2

#: advisory codes the explain report surfaces alongside the plan
_ADVISORY_PREFIX = "PAP08"


def _fmt_bytes(value: Optional[float]) -> str:
    if value is None:
        return "?"
    for unit, scale in (("GB", 1 << 30), ("MB", 1 << 20), ("KB", 1 << 10)):
        if value >= scale:
            return f"{value / scale:.1f}{unit}"
    return f"{value:.0f}B"


class ExplainReport:
    """The rendered-plan side of one analysis pass."""

    def __init__(self, workflow: str, file: Optional[str],
                 operators: Optional[list[dict]] = None, edges: Optional[list[dict]] = None,
                 records: Optional[int] = None, lint: Optional[LintResult] = None) -> None:
        self.workflow = workflow
        self.file = file
        #: per-operator dicts (id, kind, exchange, edges' paths, and the serial
        #: and SPMD choices of a planned job — ``None`` for one never planned)
        self.operators = [] if operators is None else operators
        #: recovered dataflow edges as dicts (src, src_output, dst, path)
        self.edges = [] if edges is None else edges
        #: input records the wire bytes are priced for (None: unknown)
        self.records = records
        #: the lint result of the same pass (advisories live here)
        self.lint = LintResult() if lint is None else lint

    @property
    def advisories(self) -> list:
        """The PAP08x findings of the pass, in report order."""
        return [d for d in self.lint if d.code.startswith(_ADVISORY_PREFIX)]

    def to_dict(self) -> dict:
        """The versioned JSON form (schema ``papar.explain`` v2)."""
        return {
            "version": EXPLAIN_SCHEMA_VERSION,
            "tool": "papar-explain",
            "workflow": self.workflow,
            "file": self.file,
            "records": self.records,
            "operators": self.operators,
            "edges": self.edges,
            "advisories": [d.to_dict() for d in self.advisories],
            "summary": {
                "errors": len(self.lint.errors),
                "warnings": len(self.lint.warnings),
                "info": len(self.lint.infos),
            },
        }

    def render_json(self) -> str:
        """:meth:`to_dict` as indented JSON text."""
        import json

        return json.dumps(self.to_dict(), indent=2)

    def render_text(self) -> str:
        """The terminal report."""
        lines = [f"workflow {self.workflow!r}" + (f" ({self.file})" if self.file else "")]
        for op in self.operators:
            head = f"  [{op['index']}] {op['id']} ({op['kind']})"
            if op.get("exchange"):
                head += f"  exchange={op['exchange']}"
            lines.append(head)
            if op["serial"] is None:
                lines.append("      not planned")
                continue
            spmd = op["spmd"]
            lines.append(f"      serial: {op['serial']['path'] or 'local'}")
            lines.append(f"      spmd: {spmd['path'] or 'local'}, "
                         f"{_fmt_bytes(spmd['wire_bytes'])} on the wire")
        if self.edges:
            lines.append("  edges:")
            for e in self.edges:
                src = e["src"] if e["src"] is not None else "<input>"
                lines.append(f"      {src}[{e['src_output']}] -> {e['dst']}  ({e['path']})")
        advisories = self.advisories
        if advisories:
            lines.append("  advisories:")
            for d in advisories:
                lines.append(f"      {d.render()}")
        lines.append("  " + self.lint.summary())
        return "\n".join(lines)


def _choice_json(choice: Optional["Physical"], records: Optional[int]) -> Optional[dict]:
    """One job's physical choice as JSON (None when it is not planned)."""
    if choice is None:
        return None
    return {
        "exchange": choice.exchange, "spill": choice.spill, "tail": choice.tail,
        "reason": choice.reason, "path": choice.path,
        "wire_bytes": None if records is None else choice.wire_bytes(records),
    }


def build_report(ctx, result: LintResult) -> ExplainReport:
    """Assemble an :class:`ExplainReport` from an analyzed context."""
    report = ExplainReport(
        workflow=ctx.model.id if ctx.model is not None else "<unparsed>",
        file=ctx.filename,
        lint=result,
    )
    ir = ctx.ir()
    if ir is None:
        return report
    report.records = ctx.input_records()
    serial, spmd = ctx.physical(spmd=False) or {}, ctx.physical(spmd=True) or {}
    for node in ir.nodes:
        report.operators.append(
            {
                "index": node.index,
                "id": node.op_id,
                "kind": node.kind,
                "line": node.line,
                "exchange": node.exchange,
                "input": node.input,
                "outputs": list(node.outputs),
                "serial": _choice_json(serial.get(node.op_id), report.records),
                "spmd": _choice_json(spmd.get(node.op_id), report.records),
            }
        )
    report.edges = [
        {"src": e.src, "src_output": e.src_output, "dst": e.dst, "path": e.path}
        for e in ir.edges
    ]
    return report


def explain(
    linter: Linter,
    workflow: str | WorkflowSpec,
    filename: Optional[str] = None,
    inputs: Iterable[tuple[str, Optional[str]]] = (),
    args: Optional[dict[str, Any]] = None,
) -> ExplainReport:
    """Analyze one workflow (XML text or a spec) and build its explain report."""
    return build_report(*linter.analyze(workflow, filename=filename, inputs=inputs, args=args))


def _dot_escape(text: str) -> str:
    """``text`` escaped for use inside a double-quoted DOT string."""
    return text.replace("\\", "\\\\").replace('"', '\\"')


def plan_to_dot(plan: "WorkflowPlan") -> str:
    """Graphviz DOT text of the planned dataflow: one edge per output a job
    reads, labelled with the slot when its producer has several."""
    lines = [f'digraph "{_dot_escape(plan.workflow_id)}" {{', "  rankdir=LR;",
             "  input [shape=oval];"]
    for job in plan.jobs:
        node = f'"{_dot_escape(job.op_id)}"'
        # \n is DOT's line break inside a label, added after the escaping
        label = f"{_dot_escape(job.op_id)}\\n({_dot_escape(job.operator_name)})"
        lines.append(f'  {node} [shape=box, label="{label}"];')
        if job.source is None:
            lines.append(f'  "input" -> {node};')
            continue
        many = len(plan.job(job.source).output_paths) > 1
        for k in job.source_outputs:
            slot = f" [label={k}]" if many else ""
            lines.append(f'  "{_dot_escape(job.source)}" -> {node}{slot};')
    lines += ["  partitions [shape=oval];",
              f'  "{_dot_escape(plan.final_job.op_id)}" -> partitions;', "}"]
    return "\n".join(lines) + "\n"

"""The typed plan-IR shared by the lint rules and ``explain``.

Historically every path/type rule re-derived the workflow dataflow with its
own call to ``resolve_dataflow``.  This module is that resolution promoted
to a first-class intermediate representation: one :func:`build_ir` pass
turns a tolerantly built :class:`~repro.config.workflow.WorkflowSpec` into a
:class:`PlanIR` — operator nodes with resolved-as-far-as-possible
parameters, explicit dataflow edges decided by the planner's own wiring
function (:func:`repro.config.workflow.wire`) over the symbolic paths,
exchange annotations describing which operators shuffle data between
ranks, and the source locations :mod:`repro.analysis.locate` collected.

Everything downstream — the PAP02x/03x rules, the fixed-point analyses in
:mod:`repro.analysis.dataflow`, the cost model in
:mod:`repro.analysis.cost`, and ``papar explain`` — consumes this IR
instead of re-resolving paths privately.  The IR holds every declared
operator; which of them run is the planner's decision
(:attr:`WorkflowPlan.elided <repro.core.planner.WorkflowPlan.elided>`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.analysis.model import SymbolicEnv
from repro.config.workflow import Edge, JobIO, OperatorSpec, WorkflowSpec, wire

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.model import LintContext

#: operator kind -> exchange annotation: how the SPMD runtimes move the
#: operator's input between ranks (``None`` = purely rank-local).
#: ``range`` is the sample + range-shuffle of sort/group (Figures 9/11);
#: ``position`` is distribute's global-position permutation shuffle.
EXCHANGE_KINDS: dict[str, str] = {
    "sort": "range",
    "group": "range",
    "distribute": "position",
}


@dataclass
class IRNode:
    """One operator stage of the plan-IR."""

    #: operator id (unique in a well-formed workflow)
    op_id: str
    #: normalized operator kind ("sort", "group", "split", "distribute", ...)
    kind: str
    #: the operator's spec (declared parameters, add-ons, attributes)
    op: OperatorSpec
    #: position in document (= execution) order
    index: int
    #: parameter name -> value with every known ``$ref`` substituted
    params: dict[str, Optional[str]] = field(default_factory=dict)
    #: parameter name -> True when the substitution was complete
    params_resolved: dict[str, bool] = field(default_factory=dict)
    #: resolved input path (None when the operator declares none)
    input: Optional[str] = None
    input_line: Optional[int] = None
    #: resolved output path(s); splits have one per condition
    outputs: list[str] = field(default_factory=list)
    output_line: Optional[int] = None
    #: exchange annotation ("range" / "position" / None), see EXCHANGE_KINDS
    exchange: Optional[str] = None
    #: why the input cannot be wired (see :func:`~repro.config.workflow.wire`)
    wiring_error: Optional[str] = None

    @property
    def line(self) -> Optional[int]:
        """Source line of the ``<operator>`` element."""
        return self.op.line

    def param_value(self, *names: str) -> Optional[str]:
        """Resolved value of the first declared parameter among ``names``."""
        for name in names:
            if name in self.params:
                return self.params[name]
        return None

    def param_line(self, *names: str) -> Optional[int]:
        """Source line of the first declared parameter among ``names``."""
        p = self.op.param(*names)
        return p.line if p is not None else None


@dataclass
class PlanIR:
    """The whole analyzed plan: nodes in execution order plus their edges."""

    workflow_id: str
    nodes: list[IRNode]
    edges: list[Edge]
    #: the symbolic environment after walking every operator
    env: SymbolicEnv

    def __post_init__(self) -> None:
        self._by_id = {n.op_id: n for n in self.nodes}

    def node(self, op_id: str) -> Optional[IRNode]:
        """The node called ``op_id``, if any."""
        return self._by_id.get(op_id)

    @property
    def final(self) -> Optional[IRNode]:
        """The last node (the workflow product), when the plan is non-empty."""
        return self.nodes[-1] if self.nodes else None

    def in_edges(self, op_id: str) -> list[Edge]:
        """Edges feeding ``op_id`` (empty = reads the workflow input)."""
        return [e for e in self.edges if e.dst == op_id]

    def out_edges(self, op_id: str) -> list[Edge]:
        """Edges consuming outputs of ``op_id``."""
        return [e for e in self.edges if e.src == op_id]

    def predecessors(self, op_id: str) -> list[IRNode]:
        """Producing nodes of ``op_id``, in execution order, de-duplicated."""
        seen: dict[str, IRNode] = {}
        for e in self.in_edges(op_id):
            if e.src is not None and e.src not in seen:
                node = self.node(e.src)
                if node is not None:
                    seen[e.src] = node
        return sorted(seen.values(), key=lambda n: n.index)

    def consumed_outputs(self, op_id: str) -> set[int]:
        """Output slots of ``op_id`` some later node consumes."""
        return {e.src_output for e in self.out_edges(op_id)}

    def exchange_nodes(self) -> list[IRNode]:
        """Nodes annotated with an exchange, in execution order."""
        return [n for n in self.nodes if n.exchange is not None]


def build_ir(ctx: "LintContext") -> Optional[PlanIR]:
    """One resolution pass: model -> nodes + env + edges + annotations.

    This is the single place the analyzer walks the operator chain binding
    ``$refs`` — the walk the old ``resolve_dataflow`` helper performed once
    per rule.  Prefer :meth:`LintContext.ir`, which memoizes the result.
    """
    model = ctx.model
    if model is None:
        return None
    env = SymbolicEnv()
    for arg in model.arguments.values():
        if arg.name in ctx.args:
            env.bind(arg.name, str(ctx.args[arg.name]))
        elif arg.value is not None:
            env.bind(arg.name, env.resolve(arg.value)[0] or "")

    nodes: list[IRNode] = []
    wired: list[JobIO] = []
    for i, op in enumerate(model.operators):
        node = IRNode(
            op_id=op.id,
            kind=op.kind,
            op=op,
            index=i,
            exchange=EXCHANGE_KINDS.get(op.kind),
        )
        for p in op.params.values():
            node.params[p.name], node.params_resolved[p.name] = env.resolve(p.value)
        io = wire(op, node.params, wired)
        wired.append(io)
        node.input, node.outputs, node.wiring_error = io.input, io.outputs, io.error
        if io.input_param is not None:
            node.input_line = op.params[io.input_param].line
        if io.output_param is not None:
            node.output_line = op.params[io.output_param].line
        if node.outputs:
            env.bind(f"{op.id}.outputPath", node.outputs[0])
            if len(node.outputs) > 1:
                env.bind(f"{op.id}.outputPathList", ",".join(node.outputs))
        for addon in op.addons:
            attr = addon.attr or addon.operator
            if attr:
                env.bind(f"{op.id}.{attr}", attr)
        nodes.append(node)
    return PlanIR(
        workflow_id=model.id,
        nodes=nodes,
        edges=[edge for io in wired for edge in io.edges],
        env=env,
    )


def workflow_ir(model: WorkflowSpec, args: Optional[dict[str, str]] = None) -> PlanIR:
    """Build a :class:`PlanIR` straight from a model (no LintContext needed)."""
    from repro.analysis.model import LintContext

    ctx = LintContext(filename=None, model=model, args=dict(args or {}))
    ir = build_ir(ctx)
    assert ir is not None  # model is not None by construction
    return ir

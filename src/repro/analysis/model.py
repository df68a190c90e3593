"""The located workflow model: the one reader of workflow XML.

The model is the runtime's :class:`~repro.config.workflow.WorkflowSpec`,
built straight from the located element tree, with the source line of
every element it keeps.  The build is tolerant: structural problems
(missing attributes, duplicate ids or parameters) become diagnostics
instead of exceptions, and analysis continues with whatever could be
salvaged, so a linter reports *every* finding in one pass.  A duplicated
argument or parameter is reported (PAP003) and its first declaration
kept.  :func:`~repro.config.workflow.parse_workflow_config` raises at the
model's first error and otherwise returns the spec; a spec parsed,
rewritten or built in code is analyzed as it is, with its own lines.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator, Optional

from repro.analysis.diagnostics import Diagnostic, Severity
from repro.analysis.locate import LocatedTree
from repro.config.workflow import _REF_RE, AddOnSpec, OperatorSpec, ParamSpec, WorkflowSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.planner import WorkflowPlan
    from repro.formats.records import RecordSchema

#: operator types the planner understands natively
KNOWN_OPERATORS = ("sort", "group", "split", "distribute")


@dataclass(frozen=True)
class Reference:
    """One ``$ref`` occurrence inside a parameter or operator attribute."""

    #: the reference text without the leading ``$`` (dots kept, inner $ dropped)
    ref: str
    #: operator the reference occurs in (None for argument defaults)
    op: Optional[OperatorSpec]
    #: name of the parameter or attribute holding the reference
    slot: str
    line: Optional[int]

    @property
    def parts(self) -> list[str]:
        """The dotted reference split into components."""
        return self.ref.replace("$", "").split(".")

    @property
    def head(self) -> str:
        """The first component: an argument name or an operator id."""
        return self.parts[0]


def build_workflow_model(
    tree: LocatedTree, filename: Optional[str]
) -> tuple[Optional[WorkflowSpec], list[Diagnostic]]:
    """Build a :class:`WorkflowSpec` from a located tree, collecting
    structural diagnostics (all errors) instead of raising."""
    diags: list[Diagnostic] = []
    root = tree.root

    def diag(
        code: str, message: str, node: ET.Element, suggestion: Optional[str] = None
    ) -> None:
        # late: the catalog's rules import this module (and a clean parse needs none)
        from repro.analysis.rules import CATALOG

        diags.append(Diagnostic(
            code=code, severity=CATALOG[code].severity, message=message, file=filename,
            line=tree.line(node), column=tree.column(node),
            rule=CATALOG[code].name, suggestion=suggestion,
        ))

    def param(node: ET.Element, name: str) -> ParamSpec:
        return ParamSpec(name=name, type=node.get("type", "String"), value=node.get("value"),
                         format=node.get("format"), line=tree.line(node))

    if root.tag != "workflow":
        diag("PAP001", f"expected <workflow> root element, found <{root.tag}>", root,
             "rename the root element to <workflow>")
        return None, diags

    wf_id = root.get("id")
    if not wf_id:
        diag("PAP002", "<workflow> requires an 'id' attribute", root,
             'add id="..." to the <workflow> element')
        wf_id = "<anonymous>"
    model = WorkflowSpec(id=wf_id, name=root.get("name", wf_id), source_file=filename,
                         line=tree.line(root))

    args_node = root.find("arguments")
    if args_node is not None:
        for p in args_node.findall("param"):
            name = p.get("name")
            if not name:
                diag("PAP002", "<param> requires a 'name' attribute", p)
            elif name in model.arguments:
                diag("PAP003", f"duplicate workflow argument {name!r}", p,
                     "remove or rename the duplicate declaration")
            else:
                model.arguments[name] = param(p, name)

    ops_node = root.find("operators")
    if ops_node is None or not list(ops_node):
        diag("PAP002", f"workflow {wf_id!r} declares no operators",
             root if ops_node is None else ops_node,
             "add an <operators> section with at least one <operator>")
        return model, diags

    seen_ids: set[str] = set()
    for i, op_node in enumerate(ops_node.findall("operator")):
        op_id = op_node.get("id")
        op_name = op_node.get("operator")
        if not op_id or not op_name:
            diag("PAP002", "<operator> requires 'id' and 'operator' attributes", op_node)
        op_id = op_id or f"<operator-{i}>"
        if op_id in seen_ids:
            diag("PAP003", f"duplicate operator id {op_id!r}", op_node,
                 "give every operator a unique id")
        seen_ids.add(op_id)
        op = OperatorSpec(
            id=op_id,
            operator=op_name or "",
            attrs={
                k: v for k, v in op_node.attrib.items() if k not in ("id", "operator")
            },
            line=tree.line(op_node),
        )
        for p in op_node.findall("param"):
            pname = p.get("name")
            if not pname:
                diag("PAP002", f"<param> in operator {op_id!r} requires a 'name' attribute", p)
            elif pname in op.params:
                diag("PAP003", f"operator {op_id!r} declares parameter {pname!r} twice", p,
                     "remove the duplicate <param>; the runtime keeps only one")
            else:
                op.params[pname] = param(p, pname)
        for a in op_node.findall("addon"):
            if not a.get("operator"):
                diag("PAP002",
                     f"<addon> in operator {op_id!r} requires an 'operator' attribute", a)
                continue
            op.addons.append(AddOnSpec(
                operator=a.get("operator", ""), key=a.get("key"), attr=a.get("attr"),
                value=a.get("value"), line=tree.line(a),
            ))
        model.operators.append(op)
    return model, diags


def first_error(diags: Iterable[Diagnostic]) -> Optional[Diagnostic]:
    """The first ERROR among ``diags`` in document order (None: there is none)."""
    errors = [d for d in diags if d.severity is Severity.ERROR]
    return min(errors, key=lambda d: (d.line or 0, d.column or 0), default=None)


@dataclass
class LintContext:
    """Everything one analysis pass knows; handed to every checker."""

    filename: Optional[str]
    #: the workflow (None when its XML did not parse into one)
    model: Optional[WorkflowSpec]
    #: input-data schemas by id (registered on the framework or --input files)
    schemas: dict[str, "RecordSchema"] = field(default_factory=dict)
    #: schema id -> originating file (for diagnostics about input configs)
    input_files: dict[str, str] = field(default_factory=dict)
    #: user-supplied workflow arguments (CLI --arg / API args)
    args: dict[str, str] = field(default_factory=dict)
    #: the resolved plan, when planning succeeded
    plan: Optional["WorkflowPlan"] = None
    #: planner failure message, when planning was attempted and failed
    plan_error: Optional[str] = None
    #: simulated cluster size the user intends to run with (optional)
    ranks: Optional[int] = None
    #: execution backend the user intends to run with (enables PAP07x)
    backend: Optional[str] = None
    #: True when *fault injection* specs are declared for the intended run
    #: (checkpoint/retry recovery is tracked separately via ``checkpoint``)
    faults: bool = False
    #: True when a checkpoint store/directory is declared for the run
    checkpoint: bool = False
    #: True when the workflow is destined for the streaming daemon
    #: (``papar serve``); enables the serving-fit rules (PAP090)
    serve: bool = False
    #: declared per-rank memory budget spec (e.g. "64MB"), when given
    memory_budget: Optional[str] = None
    #: assumed input record count for budget sizing (with memory_budget)
    assume_records: Optional[int] = None
    #: memoized plan-IR (see :meth:`ir`); None until first requested
    _ir: Optional[object] = field(default=None, repr=False)
    #: memoized analyzed plan (see :meth:`analyzed`)
    _analyzed: Optional[object] = field(default=None, repr=False)

    def ir(self):
        """The shared plan-IR of this workflow, built once and memoized.

        Every rule that needs resolved paths, ``$ref`` edges, or the
        symbolic environment reads this — the single dataflow resolution
        the analyzer performs (returns ``None`` when no model exists).
        """
        if self._ir is None and self.model is not None:
            from repro.analysis.ir import build_ir

            self._ir = build_ir(self)
        return self._ir

    def analyzed(self):
        """The fixed-point analyses + cost model over :meth:`ir`, memoized."""
        if self._analyzed is None and self.model is not None:
            from repro.analysis.cost import analyze_plan

            self._analyzed = analyze_plan(self)
        return self._analyzed

    def diag(
        self,
        code: str,
        message: str,
        line: Optional[int] = None,
        column: Optional[int] = None,
        suggestion: Optional[str] = None,
        file: Optional[str] = None,
    ) -> Diagnostic:
        """Build a diagnostic, pulling severity and rule name from the catalog."""
        from repro.analysis.rules import CATALOG

        spec = CATALOG[code]
        return Diagnostic(
            code=code,
            severity=spec.severity,
            message=message,
            file=file if file is not None else self.filename,
            line=line,
            column=column,
            rule=spec.name,
            suggestion=suggestion,
        )

    def input_schema(self) -> tuple[Optional["RecordSchema"], Optional[ParamSpec]]:
        """The input-data schema the workflow reads, via the planner's
        convention: the last ``input*`` argument with a ``format``."""
        if self.model is None:
            return None, None
        found: tuple[Optional["RecordSchema"], Optional[ParamSpec]] = (None, None)
        for arg in self.model.arguments.values():
            if arg.format and arg.name.lower().startswith("input"):
                found = (self.schemas.get(arg.format), arg)
        return found


class SymbolicEnv:
    """Best-effort ``$ref`` substitution without executing anything.

    Arguments resolve to user-supplied values or config defaults; operator
    outputs resolve to their (possibly already substituted) path strings.
    Unknown references stay as literal ``$ref`` text so downstream rules can
    still compare values symbolically.
    """

    def __init__(self) -> None:
        self.values: dict[str, str] = {}

    def bind(self, name: str, value: str) -> None:
        """Make ``$name`` resolve to ``value``."""
        self.values[name.replace("$", "")] = value

    def resolve(self, text: Optional[str]) -> tuple[Optional[str], bool]:
        """Substitute known refs; returns (text, fully_resolved)."""
        if text is None:
            return None, True
        complete = True

        def sub(m) -> str:
            nonlocal complete
            key = m.group(1).replace("$", "")
            if key in self.values:
                return str(self.values[key])
            complete = False
            return m.group(0)

        return _REF_RE.sub(sub, text), complete


def iter_references(model: WorkflowSpec) -> Iterator[Reference]:
    """Every ``$ref`` occurrence in the workflow, with its source slot."""
    for arg in model.arguments.values():
        if arg.value:
            for m in _REF_RE.finditer(arg.value):
                yield Reference(m.group(1), None, arg.name, arg.line)
    for op in model.operators:
        for p in op.params.values():
            if p.value:
                for m in _REF_RE.finditer(p.value):
                    yield Reference(m.group(1), op, p.name, p.line)
        for attr_name, attr_value in op.attrs.items():
            for m in _REF_RE.finditer(attr_value):
                yield Reference(m.group(1), op, attr_name, op.line)
        for addon in op.addons:
            for text in (addon.key, addon.value):
                if text:
                    for m in _REF_RE.finditer(text):
                        yield Reference(m.group(1), op, "addon", addon.line)

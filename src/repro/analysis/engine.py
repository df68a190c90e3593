"""The lint engine: configurations in, a complete `LintResult` out.

One pass does, in order:

1. parse the input-data configurations (failures become ``PAP050``);
2. parse the workflow XML with source locations (failures: ``PAP001``);
3. build the lenient model, collecting structural diagnostics;
4. strict-parse and *plan* the workflow with synthesized arguments, so
   plan-level rules can inspect resolved operators (planner rejections
   surface as ``PAP040`` only when no static rule already explains them);
5. run every registered checker — the engine never stops at the first
   finding.  A linter built with ``errors_only=True`` (the ``plan`` /
   ``run`` / ``serve`` gate, which acts on errors alone) runs only the
   checkers that can emit an ERROR code and keeps only the errors: the
   advisories, the cost model and its input probe never run for it.

Nothing here executes a workflow: planning instantiates operator objects
and resolves ``$references`` but moves no data.
"""

from __future__ import annotations

import re
from typing import Any, Iterable, Optional

from repro.analysis.diagnostics import Diagnostic, LintResult, Severity
from repro.analysis.locate import XMLLocationError, parse_located, read_config
from repro.analysis.model import LintContext, build_workflow_model
from repro.analysis.rules import CATALOG, CHECKERS, blocking_checkers
from repro.config.schema import parse_input_config
from repro.config.workflow import WorkflowSpec, parse_workflow_config
from repro.errors import PaParError
from repro.formats.records import RecordSchema

#: pulls the trailing ``[file:line]`` marker the config parsers emit
_LOCATION_RE = re.compile(r"\[(?P<file>[^\[\]]*?):(?P<line>\d+)\]\s*$")


def _location_from_message(message: str) -> Optional[int]:
    m = _LOCATION_RE.search(message)
    return int(m.group("line")) if m else None


def synthesize_arguments(
    spec: WorkflowSpec, user_args: Optional[dict[str, Any]] = None
) -> dict[str, Any]:
    """Plausible placeholder values for arguments without defaults, so the
    analyzer can plan a workflow nobody has bound yet."""
    args: dict[str, Any] = dict(user_args or {})
    for name, ps in spec.arguments.items():
        if name in args or ps.value is not None:
            continue
        t = ps.type.lower()
        if t in ("integer", "int", "long"):
            args[name] = "4"
        elif t in ("float", "double"):
            args[name] = "1.0"
        elif t in ("boolean", "bool"):
            args[name] = "true"
        elif t == "stringlist":
            args[name] = f"/lint/{name}/a,/lint/{name}/b"
        else:
            args[name] = f"/lint/{name}"
    return args


class Linter:
    """Configurable façade over one analysis pass."""

    def __init__(
        self,
        schemas: Optional[dict[str, RecordSchema]] = None,
        ranks: Optional[int] = None,
        memory_budget: Optional[str] = None,
        assume_records: Optional[int] = None,
        backend: Optional[str] = None,
        faults: bool = False,
        checkpoint: bool = False,
        serve: bool = False,
        errors_only: bool = False,
    ) -> None:
        #: schemas registered out-of-band (e.g. on a PaPar instance)
        self.schemas: dict[str, RecordSchema] = dict(schemas or {})
        self.ranks = ranks
        #: declared memory budget / assumed record count (PAP06x rules)
        self.memory_budget = memory_budget
        self.assume_records = assume_records
        #: intended execution backend / fault-injection / checkpoint flags
        #: (PAP07x rules)
        self.backend = backend
        self.faults = faults
        self.checkpoint = checkpoint
        #: True when the workflow will run under the streaming daemon
        #: (PAP090 rules)
        self.serve = serve
        #: ask only "does it have errors?" (see the module docstring)
        self.errors_only = errors_only

    # -- public API ----------------------------------------------------------

    def lint(
        self,
        workflow_xml: str,
        filename: Optional[str] = None,
        inputs: Iterable[tuple[str, Optional[str]]] = (),
        args: Optional[dict[str, Any]] = None,
        do_plan: bool = True,
    ) -> LintResult:
        """Analyze one workflow (XML text) plus optional input configs.

        ``inputs`` is an iterable of ``(xml_text, filename)`` pairs.
        """
        _ctx, result = self.analyze(
            workflow_xml, filename=filename, inputs=inputs, args=args, do_plan=do_plan
        )
        return result

    def analyze(
        self,
        workflow_xml: str,
        filename: Optional[str] = None,
        inputs: Iterable[tuple[str, Optional[str]]] = (),
        args: Optional[dict[str, Any]] = None,
        do_plan: bool = True,
    ) -> tuple[Optional[LintContext], LintResult]:
        """One full pass returning both the populated context and the result.

        ``papar explain`` consumes the context (IR, fixed-point analyses,
        cost model via :meth:`LintContext.analyzed`) alongside the same
        diagnostics ``lint`` reports; the context is ``None`` only when the
        workflow XML itself failed to parse.
        """
        result = LintResult()
        if filename:
            result.files.append(filename)

        schemas = dict(self.schemas)
        input_files: dict[str, str] = {}
        for xml_text, in_name in inputs:
            if in_name:
                result.files.append(in_name)
            try:
                schema = parse_input_config(xml_text, filename=in_name)
            except PaParError as exc:
                message = str(exc)
                result.diagnostics.append(
                    Diagnostic(
                        code="PAP050",
                        severity=Severity.ERROR,
                        message=message,
                        file=in_name,
                        line=_location_from_message(message),
                        rule=CATALOG["PAP050"].name,
                    )
                )
                continue
            schemas[schema.id] = schema
            if in_name:
                input_files[schema.id] = in_name

        # -- workflow parse + model -------------------------------------
        try:
            tree = parse_located(workflow_xml)
        except XMLLocationError as exc:
            result.diagnostics.append(
                Diagnostic(
                    code="PAP001",
                    severity=Severity.ERROR,
                    message=f"malformed workflow configuration XML: {exc}",
                    file=filename,
                    line=exc.line,
                    column=exc.column,
                    rule=CATALOG["PAP001"].name,
                )
            )
            result.sort()
            return None, result

        model, structural = build_workflow_model(tree, filename)
        result.extend(structural)

        ctx = LintContext(
            filename=filename,
            model=model,
            schemas=schemas,
            input_files=input_files,
            args={k: str(v) for k, v in (args or {}).items()},
            ranks=self.ranks,
            memory_budget=self.memory_budget,
            assume_records=self.assume_records,
            backend=self.backend,
            faults=self.faults,
            checkpoint=self.checkpoint,
            serve=self.serve,
        )

        # -- PAP051: supplied input configs nothing references ----------
        if model is not None:
            referenced_formats = {
                a.format for a in model.arguments if a.format is not None
            }
            for schema_id, in_name in input_files.items():
                if schema_id not in referenced_formats:
                    result.diagnostics.append(
                        ctx.diag(
                            "PAP051",
                            f"input configuration {schema_id!r} is supplied "
                            "but no workflow argument references it",
                            file=in_name,
                            suggestion="add format="
                            f'"{schema_id}" to the input path argument',
                        )
                    )

        # -- strict parse + plan ---------------------------------------
        if do_plan and model is not None:
            self._try_plan(ctx, workflow_xml, filename)

        # -- run every checker (that can answer the question) -----------
        for checker_func in blocking_checkers() if self.errors_only else CHECKERS:
            try:
                result.extend(checker_func(ctx))
            except Exception as exc:  # pragma: no cover - defensive
                result.diagnostics.append(
                    Diagnostic(
                        code="PAP099",
                        severity=Severity.ERROR,
                        message=(
                            f"internal: rule {checker_func.__name__!r} "
                            f"crashed: {exc!r}"
                        ),
                        file=filename,
                        rule=CATALOG["PAP099"].name,
                    )
                )

        # a planner rejection is only news when no static rule explains it
        static_errors = [
            d for d in result.diagnostics
            if d.severity is Severity.ERROR and d.code != "PAP040"
        ]
        if static_errors:
            result.diagnostics = [
                d for d in result.diagnostics if d.code != "PAP040"
            ]
        if self.errors_only:
            result.diagnostics = result.errors
        result.sort()
        return ctx, result

    def lint_paths(
        self,
        workflow_path: str,
        input_paths: Iterable[str] = (),
        args: Optional[dict[str, Any]] = None,
        do_plan: bool = True,
    ) -> LintResult:
        """Analyze configuration *files*."""
        workflow_xml = read_config(workflow_path)
        inputs = [(read_config(path), path) for path in input_paths]
        return self.lint(
            workflow_xml,
            filename=str(workflow_path),
            inputs=inputs,
            args=args,
            do_plan=do_plan,
        )

    # -- internals ----------------------------------------------------------

    def _try_plan(
        self, ctx: LintContext, workflow_xml: str, filename: Optional[str]
    ) -> None:
        from repro.core.planner import Planner

        try:
            spec = parse_workflow_config(workflow_xml, filename=filename)
        except PaParError as exc:
            ctx.plan_error = str(exc)
            return
        ctx.spec = spec
        try:
            plan_args = synthesize_arguments(spec, ctx.args)
            ctx.plan = Planner().plan(spec, plan_args)
        except PaParError as exc:
            ctx.plan_error = str(exc)
        except (TypeError, ValueError) as exc:
            ctx.plan_error = f"{exc.__class__.__name__}: {exc}"


def lint_workflow(
    workflow_xml: str,
    filename: Optional[str] = None,
    inputs: Iterable[tuple[str, Optional[str]]] = (),
    args: Optional[dict[str, Any]] = None,
    schemas: Optional[dict[str, RecordSchema]] = None,
    ranks: Optional[int] = None,
    do_plan: bool = True,
    memory_budget: Optional[str] = None,
    assume_records: Optional[int] = None,
    backend: Optional[str] = None,
    faults: bool = False,
    checkpoint: bool = False,
    serve: bool = False,
) -> LintResult:
    """Convenience one-call form of :class:`Linter`."""
    return Linter(
        schemas=schemas, ranks=ranks,
        memory_budget=memory_budget, assume_records=assume_records,
        backend=backend, faults=faults, checkpoint=checkpoint, serve=serve,
    ).lint(
        workflow_xml, filename=filename, inputs=inputs, args=args, do_plan=do_plan
    )


def lint_files(
    workflow_path: str,
    input_paths: Iterable[str] = (),
    args: Optional[dict[str, Any]] = None,
    schemas: Optional[dict[str, RecordSchema]] = None,
    ranks: Optional[int] = None,
    do_plan: bool = True,
    memory_budget: Optional[str] = None,
    assume_records: Optional[int] = None,
    backend: Optional[str] = None,
    faults: bool = False,
    checkpoint: bool = False,
    serve: bool = False,
) -> LintResult:
    """Convenience one-call form over files on disk."""
    return Linter(
        schemas=schemas, ranks=ranks,
        memory_budget=memory_budget, assume_records=assume_records,
        backend=backend, faults=faults, checkpoint=checkpoint, serve=serve,
    ).lint_paths(
        workflow_path, input_paths, args=args, do_plan=do_plan
    )

"""The lint engine: configurations in, a complete `LintResult` out.

One pass does, in order:

1. parse the input-data configurations (failures become ``PAP050``);
2. parse the workflow XML with source locations (failures: ``PAP001``);
3. build the located model — the one reader of workflow XML, which
   builds the :class:`~repro.config.workflow.WorkflowSpec` — collecting
   structural diagnostics (a spec handed to :meth:`Linter.analyze` starts
   here instead, with its own source lines);
4. *plan* a spec without structural errors with synthesized arguments,
   so plan-level rules can inspect resolved operators (planner rejections
   surface as ``PAP040`` only when no static rule already explains them);
5. run every registered checker — the engine never stops at the first
   finding.  A linter built with ``errors_only=True`` (the ``plan`` /
   ``run`` / ``serve`` gate, which acts on errors alone) runs only the
   checkers that can emit an ERROR code and keeps only the errors: the
   advisories, the cost model and its input probe never run for it.

Nothing here executes a workflow: planning instantiates operator objects
and resolves ``$references`` but moves no data.  :meth:`Linter.lint` and
:meth:`Linter.analyze` take the workflow as XML text or a spec;
:func:`read_configs` reads configuration files into their arguments.
"""

from __future__ import annotations

import os
import re
from typing import Any, Iterable, Optional

from repro.analysis.diagnostics import Diagnostic, LintResult, Severity
from repro.analysis.locate import XMLLocationError, format_location, parse_located, read_config
from repro.analysis.model import LintContext, build_workflow_model, first_error
from repro.analysis.rules import CATALOG, CHECKERS, blocking_checkers
from repro.config.schema import parse_input_config
from repro.config.workflow import WorkflowSpec
from repro.errors import PaParError, WorkflowError
from repro.formats.records import RecordSchema

#: pulls the trailing ``[file:line]`` marker the config parsers emit
_LOCATION_RE = re.compile(r"\[(?P<file>[^\[\]]*?):(?P<line>\d+)\]\s*$")


def _location_from_message(message: str) -> Optional[int]:
    m = _LOCATION_RE.search(message)
    return int(m.group("line")) if m else None


def read_configs(
    workflow_path: "str | os.PathLike", input_paths: Iterable["str | os.PathLike"] = ()
) -> dict[str, Any]:
    """Configuration files as :meth:`Linter.analyze` takes them: the
    ``workflow`` text, its ``filename``, and the ``(text, path)`` ``inputs``."""
    return {"workflow": read_config(workflow_path), "filename": os.fspath(workflow_path),
            "inputs": [(read_config(path), os.fspath(path)) for path in input_paths]}


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
        workflow: str | WorkflowSpec,
        filename: Optional[str] = None,
        inputs: Iterable[tuple[str, Optional[str]]] = (),
        args: Optional[dict[str, Any]] = None,
        do_plan: bool = True,
    ) -> LintResult:
        """Analyze one workflow plus optional input configs.

        ``workflow`` is XML text or a spec (see :meth:`analyze`);
        ``inputs`` is an iterable of ``(xml_text, filename)`` pairs.
        """
        _ctx, result = self.analyze(
            workflow, filename=filename, inputs=inputs, args=args, do_plan=do_plan
        )
        return result

    # -- the pass -------------------------------------------------------------

    def analyze(
        self,
        workflow: str | WorkflowSpec,
        filename: Optional[str] = None,
        inputs: Iterable[tuple[str, Optional[str]]] = (),
        args: Optional[dict[str, Any]] = None,
        do_plan: bool = True,
    ) -> tuple[LintContext, LintResult]:
        """One full pass returning both the populated context and the result.

        ``workflow`` is XML text, or a parsed, rewritten or built spec,
        analyzed as it is: nothing is re-serialized, so a finding carries
        the spec's own source lines (the file it was read from).
        ``papar explain`` consumes the context (IR, fixed-point analyses,
        cost model via :meth:`LintContext.analyzed`) alongside the same
        diagnostics ``lint`` reports; its model is ``None`` when the
        workflow XML did not parse into one.
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

        # -- the workflow model: a spec, as given or built from the XML ----
        model: Optional[WorkflowSpec] = None
        plannable = parsed = True
        if isinstance(workflow, WorkflowSpec):
            model = workflow
        else:
            try:
                model, structural = build_workflow_model(parse_located(workflow), filename)
            except XMLLocationError as exc:
                parsed = False
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
            else:
                result.extend(structural)
                plannable = model is not None and first_error(structural) is None

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
        if not parsed:
            result.sort()
            return ctx, result

        # -- PAP051: supplied input configs nothing references ----------
        if model is not None:
            referenced_formats = {
                a.format for a in model.arguments.values() if a.format is not None
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

        if do_plan and plannable:
            from repro.core.planner import Planner

            try:
                ctx.plan = Planner().plan(model, synthesize_arguments(model, ctx.args))
            except PaParError as exc:
                ctx.plan_error = str(exc)
            except (TypeError, ValueError) as exc:
                ctx.plan_error = f"{exc.__class__.__name__}: {exc}"

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


def check_keys(
    spec: WorkflowSpec, schemas: dict[str, RecordSchema], args: Optional[dict[str, Any]] = None
) -> None:
    """Raise :class:`WorkflowError` at the first key PAP020's schema-flow
    walk rejects: the planner's key check is the lint rule itself."""
    from repro.analysis.rules.schema_flow import check_schema_flow

    ctx = LintContext(filename=spec.source_file, model=spec,
                      schemas=dict(schemas), args={k: str(v) for k, v in (args or {}).items()})
    for diag in check_schema_flow(ctx):
        if diag.code == "PAP020":
            raise WorkflowError(
                f"{diag.message}; {diag.suggestion} [{format_location(diag.file, diag.line)}]"
            )

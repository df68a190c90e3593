"""Static analysis of PaPar configurations (``papar lint``).

A rule-based analyzer that checks a workflow configuration + input-data
configuration(s) + (optionally) an intended rank count *without executing
anything*, and a diagnostic engine that reports every finding with a stable
code (``PAP001``...), a severity, an XML source location, a message, and a
suggested fix.  See ``docs/lint-rules.md`` for the rule catalog.

Three front doors:

* CLI — ``python -m repro lint workflow.xml [--input input.xml] ...``;
* API — :meth:`repro.PaPar.lint` returning structured diagnostics;
* pipeline hook — ``plan`` / ``run`` refuse configurations with lint
  errors unless ``--no-lint`` is passed.

This module lazily re-exports its public names (PEP 562) because the
configuration parsers import :mod:`repro.analysis.locate` — eager imports
here would create a cycle with :mod:`repro.config`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "repro.analysis.diagnostics": ("Diagnostic", "LintResult", "Severity"),
    "repro.analysis.engine": (
        "Linter", "lint_workflow", "lint_files", "synthesize_arguments",
    ),
    "repro.analysis.rules": ("CATALOG", "RuleSpec", "all_codes"),
    "repro.analysis.locate": ("LocatingXMLParser", "parse_located"),
    "repro.analysis.ir": ("PlanIR", "IRNode", "IREdge", "build_ir", "workflow_ir"),
    "repro.analysis.dataflow": (
        "run_dataflow", "SchemaAnalysis", "LivenessAnalysis", "CardinalityAnalysis",
    ),
    "repro.analysis.cost": ("analyze_plan", "AnalyzedPlan"),
    "repro.analysis.explain": ("ExplainReport", "explain_workflow", "explain_files"),
    "repro.analysis.optimize": (
        "PASS_NAMES", "AppliedRewrite", "RefusedRewrite", "OptimizedPlan",
        "OptimizeReport", "optimize_spec", "optimize_workflow", "optimize_files",
    ),
})

if TYPE_CHECKING:  # pragma: no cover - static typing only
    from repro.analysis.diagnostics import Diagnostic, LintResult, Severity
    from repro.analysis.engine import (
        Linter,
        lint_files,
        lint_workflow,
        synthesize_arguments,
    )
    from repro.analysis.locate import LocatingXMLParser, parse_located
    from repro.analysis.rules import CATALOG, RuleSpec, all_codes


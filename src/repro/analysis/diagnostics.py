"""Diagnostic objects and lint results.

A :class:`Diagnostic` is one finding of the static analyzer: a stable rule
code (``PAP001``...), a severity, a source location, a human message, and —
when the rule knows one — a suggested fix.  A :class:`LintResult` collects
*every* finding of one analysis pass (the engine never stops at the first
error) and knows how to render itself as text or JSON and how to map onto a
process exit code.
"""

from __future__ import annotations

import enum
from typing import Iterable, Iterator, Optional

from repro.errors import Record


class Severity(enum.Enum):
    """How bad a finding is.

    * ``ERROR`` — the configuration cannot run correctly; ``run``/``plan``
      refuse to proceed (unless ``--no-lint``).
    * ``WARNING`` — suspicious but runnable; fails the lint under ``--strict``.
    * ``INFO`` — an observation worth knowing; never affects the exit code.
    """

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


#: rank for sorting (most severe first)
_SEVERITY_ORDER = {Severity.ERROR: 0, Severity.WARNING: 1, Severity.INFO: 2}


class Diagnostic(Record):
    """One finding reported by a lint rule."""

    code: str
    severity: Severity
    message: str
    file: Optional[str] = None
    line: Optional[int] = None
    column: Optional[int] = None
    #: short kebab-case rule name (stable, documented in docs/lint-rules.md)
    rule: str = ""
    #: suggested fix, when the rule can propose one
    suggestion: Optional[str] = None

    @property
    def location(self) -> str:
        """``file:line`` rendering (with graceful fallbacks)."""
        name = self.file or "<config>"
        if self.line is None:
            return name
        return f"{name}:{self.line}"

    def render(self) -> str:
        """One-finding text rendering, compiler style."""
        text = f"{self.location}: {self.severity.value} {self.code} {self.message}"
        if self.suggestion:
            text += f"\n    fix: {self.suggestion}"
        return text

    def to_dict(self) -> dict:
        """JSON-stable dict form (schema documented in docs/lint-rules.md)."""
        return {
            "code": self.code,
            "severity": self.severity.value,
            "rule": self.rule,
            "message": self.message,
            "file": self.file,
            "line": self.line,
            "column": self.column,
            "suggestion": self.suggestion,
        }


class LintResult:
    """Every diagnostic of one analysis pass."""

    def __init__(self, diagnostics: Optional[list[Diagnostic]] = None,
                 files: Optional[list[str]] = None) -> None:
        self.diagnostics = [] if diagnostics is None else diagnostics
        #: files the engine actually analyzed (workflow + input configs)
        self.files = [] if files is None else files

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.diagnostics)

    def __len__(self) -> int:
        return len(self.diagnostics)

    def extend(self, diags: Iterable[Diagnostic]) -> None:
        """Append findings from another checker."""
        self.diagnostics.extend(diags)

    def sort(self) -> None:
        """Order findings by file, line, severity, code, then message.

        The message tie-break makes the order — and therefore ``--format
        json`` output — byte-stable across runs even when one rule emits
        several findings at the same location.
        """
        self.diagnostics.sort(
            key=lambda d: (
                d.file or "",
                d.line if d.line is not None else 0,
                _SEVERITY_ORDER[d.severity],
                d.code,
                d.message,
            )
        )

    # -- queries -------------------------------------------------------------

    @property
    def errors(self) -> list[Diagnostic]:
        """The error-severity findings."""
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    @property
    def warnings(self) -> list[Diagnostic]:
        """The warning-severity findings."""
        return [d for d in self.diagnostics if d.severity is Severity.WARNING]

    @property
    def infos(self) -> list[Diagnostic]:
        """The info-severity findings."""
        return [d for d in self.diagnostics if d.severity is Severity.INFO]

    def codes(self) -> set[str]:
        """The distinct PAPnnn codes present in this result."""
        return {d.code for d in self.diagnostics}

    def ok(self, strict: bool = False) -> bool:
        """Whether the configuration passed (no errors; no warnings if strict)."""
        if self.errors:
            return False
        if strict and self.warnings:
            return False
        return True

    def exit_code(self, strict: bool = False) -> int:
        """0 when :meth:`ok`, 1 otherwise (matching the CLI contract)."""
        return 0 if self.ok(strict) else 1

    # -- rendering ----------------------------------------------------------

    def summary(self) -> str:
        """The one-line count summary ("N error(s), N warning(s), N info")."""
        return (
            f"{len(self.errors)} error(s), {len(self.warnings)} warning(s), "
            f"{len(self.infos)} info"
        )

    def render_text(self) -> str:
        """Full text report (one finding per block plus a summary line)."""
        lines = [d.render() for d in self.diagnostics]
        lines.append(self.summary())
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """JSON-stable dict form of the whole result."""
        return {
            "version": 1,
            "tool": "papar-lint",
            "files": list(self.files),
            "diagnostics": [d.to_dict() for d in self.diagnostics],
            "summary": {
                "errors": len(self.errors),
                "warnings": len(self.warnings),
                "info": len(self.infos),
            },
        }

    def render_json(self) -> str:
        """:meth:`to_dict` as indented JSON text."""
        import json

        return json.dumps(self.to_dict(), indent=2)

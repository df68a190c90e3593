"""Four invariants checked on every configuration the analysis tests lint.

The golden-diagnostics suite, every bad-configuration fixture in this
directory and every spec they lint (``PaPar.lint(spec)``, the optimizer's
before/after reports and its re-analysis of each rewritten workflow) go
through :meth:`Linter.analyze`; an autouse fixture wraps it (and every
registered checker) so that each of those configurations also proves:

* **the gate agrees with the full lint** — the errors-only pass that
  ``plan`` / ``run`` / ``serve`` take reports exactly the full lint's
  errors, so it blocks exactly when the full lint has one.  The one
  documented exception: a crash (``PAP099``) of a checker that cannot emit
  an error, which the gate never runs;
* **checkers emit only what they declare** — every code a checker yields
  is among the codes it registered with;
* **the runtime parser agrees with the lint** — for XML text,
  ``parse_workflow_config`` raises exactly when the lint reports a
  structural error, with the first one's message
  (``tests/config/_agreement.py``); a spec has already been parsed;
* **the IR is the plan's graph** — when the configuration plans, every
  planned job's plan-IR in-edges, after following each job the planner
  elided to that job's own in-edges, are exactly the planned ``source`` /
  ``source_outputs`` (one wiring function decides both; the IR keeps
  every declared operator, the plan only the ones the final job needs).
"""

import copy
import functools
import inspect

import pytest

from repro.analysis.engine import Linter
from repro.analysis.rules import CATALOG, CHECKERS, blocking_checkers
from tests.config._agreement import assert_parser_agrees


def skipped_crash(diag, skipped: set) -> bool:
    """Whether ``diag`` is the PAP099 of a checker the gate does not run."""
    return diag.code == "PAP099" and any(f"rule {name!r} crashed" in diag.message
                                         for name in skipped)


def declared_only(func, undeclared: list):
    """``func`` re-registered so that a code it did not declare is noted in
    ``undeclared`` (outside the engine, which turns a raise into PAP099)."""

    @functools.wraps(func)
    def checked(ctx):
        for diag in func(ctx):
            if diag.code not in func.codes:
                undeclared.append(f"{func.__name__} yielded {diag.code}, "
                                  f"declares {func.codes}")
            yield diag

    return checked


@pytest.fixture(autouse=True)
def lint_invariants(monkeypatch):
    """Wrap the engine and the registry for the duration of one test."""
    real_analyze = Linter.analyze
    signature = inspect.signature(real_analyze)

    def analyze(self, *args, **kwargs):
        bound = signature.bind(self, *args, **kwargs)
        bound.arguments["inputs"] = list(bound.arguments.get("inputs", ()))
        ctx, result = real_analyze(*bound.args, **bound.kwargs)
        if not self.errors_only:
            # the same pass with the gate's question
            gate = copy.copy(self)
            gate.errors_only = True
            gated = real_analyze(gate, *bound.args[1:], **bound.kwargs)[1]
            skipped = {f.__name__ for f in CHECKERS} - {
                f.__name__ for f in blocking_checkers()
            }
            expected = [d for d in result.errors if not skipped_crash(d, skipped)]
            assert gated.diagnostics == expected
        if ctx.plan is not None:
            elided = {e.op_id for e in ctx.plan.elided}

            def read(op_id):
                edges = []
                for e in ctx.ir().in_edges(op_id):
                    if e.src in elided:
                        edges += read(e.src)
                    elif e.src is not None:
                        edges.append((e.src, e.src_output))
                return edges

            for job in ctx.plan.jobs:
                assert job.op_id not in elided
                assert read(job.op_id) == [(job.source, k) for k in job.source_outputs], (
                    job.op_id)
        workflow = bound.arguments["workflow"]
        if isinstance(workflow, str):
            assert_parser_agrees(workflow, bound.arguments.get("filename"), result)
        return ctx, result

    monkeypatch.setattr(Linter, "analyze", analyze)
    registered = list(CHECKERS)
    assert all(set(f.codes) <= set(CATALOG) for f in registered)
    undeclared: list = []
    CHECKERS[:] = [declared_only(f, undeclared) for f in registered]
    yield
    CHECKERS[:] = registered
    assert not undeclared

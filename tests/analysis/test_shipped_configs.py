"""Every configuration the repo ships must lint clean.

"Clean" is zero errors and zero warnings when each workflow is paired with
its matching input-data configuration; info-level notes are allowed.
"""

from pathlib import Path

import pytest

from repro.analysis import Linter, read_configs
from repro.config import BLAST_INPUT_XML, EDGE_INPUT_XML
from repro.config.examples import BLAST_WORKFLOW_XML, HYBRID_CUT_WORKFLOW_XML

REPO = Path(__file__).resolve().parents[2]

#: workflow file -> its input-data configuration
SHIPPED = {
    "configs/blast_partition.xml": ["configs/blast_db.xml"],
    "configs/hybrid_cut.xml": ["configs/graph_edge.xml"],
}


def _render(result):
    return "\n".join(d.render() for d in result.diagnostics)


@pytest.mark.parametrize("workflow,inputs", sorted(SHIPPED.items()))
def test_shipped_config_files_lint_clean(workflow, inputs):
    result = Linter().lint(**read_configs(REPO / workflow, [REPO / p for p in inputs]))
    assert not result.errors, _render(result)
    assert not result.warnings, _render(result)


def test_all_shipped_workflows_are_covered():
    configs = {p.relative_to(REPO).as_posix() for p in (REPO / "configs").glob("*.xml")}
    workflows = set(SHIPPED)
    inputs = {p for paths in SHIPPED.values() for p in paths}
    assert configs == workflows | inputs, "untracked config file"


@pytest.mark.parametrize(
    "name,workflow,input_xml",
    [
        ("blast", BLAST_WORKFLOW_XML, BLAST_INPUT_XML),
        ("hybrid_cut", HYBRID_CUT_WORKFLOW_XML, EDGE_INPUT_XML),
    ],
)
def test_example_workflow_constants_lint_clean(name, workflow, input_xml):
    result = Linter().lint(workflow, filename=f"<{name}>", inputs=[(input_xml, None)])
    assert not result.errors, _render(result)
    assert not result.warnings, _render(result)


def test_quickstart_example_lints_clean():
    import sys

    sys.path.insert(0, str(REPO / "examples"))
    try:
        import quickstart
    finally:
        sys.path.pop(0)
    result = Linter().lint(
        quickstart.WORKFLOW_XML,
        filename="examples/quickstart.py",
        inputs=[(quickstart.INPUT_XML, None)],
    )
    assert not result.errors, _render(result)
    assert not result.warnings, _render(result)

"""The derived workflow parser agrees with the lint model.

:func:`repro.config.parse_workflow_config` is derived from the located
model the linter builds, so it must raise exactly when ``repro lint``
reports a structural error (``PAP001``-``PAP003``), with the message and
location of the first one in document order — and parse everything else.
"""

from repro.analysis import Linter
from repro.analysis.locate import format_location
from repro.config import parse_workflow_config
from repro.errors import ConfigError

#: the codes the model itself emits while reading the XML
STRUCTURAL = ("PAP001", "PAP002", "PAP003")


def assert_parser_agrees(xml, filename=None, result=None):
    """Check the parser against ``result`` (a lint of ``xml``; linted here
    when not given)."""
    if result is None:
        result = Linter().lint(xml, filename=filename, do_plan=False)
    structural = [d for d in result.diagnostics if d.code in STRUCTURAL]
    try:
        spec = parse_workflow_config(xml, filename=filename)
    except ConfigError as exc:
        assert structural, f"the parser raised {exc} where lint found no structural error"
        first = min(structural, key=lambda d: (d.line or 0, d.column or 0))
        assert str(exc) == f"{first.message} [{format_location(filename, first.line)}]"
        return None
    assert not structural, f"the parser accepted what lint rejects: {structural}"
    assert spec.source_file == filename
    return spec

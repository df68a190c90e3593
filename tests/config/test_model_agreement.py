"""The workflow parser is the lint model's spec: one reader of workflow XML.

``parse_workflow_config`` raises exactly when the model has an error, with
that error's message and location, and otherwise returns the spec derived
from the model.  The golden-diagnostics suite (``tests/analysis/conftest.py``)
and the fuzz corpus (``test_fuzz.py``) check the same agreement on every
configuration they parse; this module covers the shipped configurations
and the messages that changed when the parser's own element walk went.
"""

from pathlib import Path

import pytest

from repro.analysis import Linter
from repro.analysis.locate import read_config
from repro.config import parse_workflow_config
from repro.config.examples import BLAST_WORKFLOW_XML, HYBRID_CUT_WORKFLOW_XML
from repro.errors import ConfigError
from tests.config._agreement import assert_parser_agrees

REPO = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("name", ["blast_partition.xml", "hybrid_cut.xml"])
def test_shipped_configs_agree(name):
    path = str(REPO / "configs" / name)
    spec = assert_parser_agrees(read_config(path), path)
    assert spec is not None and spec.operators


@pytest.mark.parametrize("xml", [BLAST_WORKFLOW_XML, HYBRID_CUT_WORKFLOW_XML])
def test_example_constants_agree(xml):
    assert assert_parser_agrees(xml, "<example>") is not None


def test_spec_keeps_every_source_line():
    spec = parse_workflow_config(BLAST_WORKFLOW_XML, filename="wf.xml")
    assert spec.line == 1
    assert [op.line for op in spec.operators] == [9, 14]
    assert spec.operator("sort").params["key"].line == 12


WORKFLOW = """\
<workflow id="w">
  <arguments><param name="n" type="Integer" value="2"/></arguments>
  <operators>
    <operator id="s" operator="Sort">
      {body}
    </operator>
  </operators>
</workflow>
"""


class TestChangedMessages:
    """``ConfigError`` texts that changed when the model became the parser."""

    def _error(self, body):
        xml = WORKFLOW.format(body=body)
        with pytest.raises(ConfigError) as info:
            parse_workflow_config(xml, filename="w.xml")
        return str(info.value)

    def test_unnamed_operator_param_names_its_operator(self):
        assert self._error('<param type="String" value="k"/>') == (
            "<param> in operator 's' requires a 'name' attribute [w.xml:5]"
        )

    def test_addon_without_operator_names_the_attribute(self):
        assert self._error('<addon attr="c"/>') == (
            "<addon> in operator 's' requires an 'operator' attribute [w.xml:5]"
        )

    def test_duplicate_operator_param_is_rejected(self):
        body = '<param name="key" value="a"/><param name="key" value="b"/>'
        assert self._error(body) == (
            "operator 's' declares parameter 'key' twice [w.xml:5]"
        )
        # the lint reports the same finding as PAP003
        result = Linter().lint(WORKFLOW.format(body=body), filename="w.xml")
        assert [d.code for d in result.errors] == ["PAP003"]

    def test_first_error_in_document_order_wins(self):
        xml = """\
<workflow id="w">
  <operators>
    <operator id="s" operator="Sort"/>
    <operator id="s" operator="Sort"/>
  </operators>
  <arguments><param type="String"/></arguments>
</workflow>
"""
        with pytest.raises(ConfigError, match=r"duplicate operator id 's' \[w.xml:4\]"):
            parse_workflow_config(xml, filename="w.xml")

"""The lint engine and its public faces: API, JSON contract, locations."""

import json

import pytest

from repro import PaPar
from repro.analysis import (
    CATALOG,
    Linter,
    Severity,
    all_codes,
    parse_located,
    synthesize_arguments,
)
from repro.analysis.locate import XMLLocationError
from repro.config import BLAST_INPUT_XML
from repro.config.examples import BLAST_WORKFLOW_XML
from repro.config.workflow import parse_workflow_config

BROKEN_WORKFLOW = """<workflow id="t">
  <arguments>
    <param name="input_path" type="hdfs"/>
  </arguments>
  <operators>
    <operator id="a" operator="Sorty">
      <param name="inputPath" value="$input_paht"/>
      <param name="key" value="k"/>
    </operator>
  </operators>
</workflow>"""


class TestLocate:
    def test_positions_are_one_based_lines(self):
        tree = parse_located("<a>\n  <b x='1'/>\n  <c/>\n</a>")
        root = tree.root
        assert tree.line(root) == 1
        b, c = list(root)
        assert tree.line(b) == 2
        assert tree.line(c) == 3

    def test_malformed_xml_carries_position(self):
        with pytest.raises(XMLLocationError) as err:
            parse_located("<a>\n  <b>\n</a>")
        assert err.value.line == 3

    def test_location_survives_strict_parse_errors(self):
        xml = BLAST_WORKFLOW_XML.replace('id="distr"', 'id="sort"')
        with pytest.raises(Exception, match=r"duplicate operator id .*\[<workflow>:14\]"):
            parse_workflow_config(xml, filename="<workflow>")


class TestSynthesizeArguments:
    def test_fills_only_unbound_arguments(self):
        spec = parse_workflow_config(BLAST_WORKFLOW_XML)
        args = synthesize_arguments(spec, {"input_path": "/real"})
        assert args["input_path"] == "/real"
        assert args["output_path"].startswith("/lint/")
        assert args["num_partitions"] == "4"
        # num_reducers has a default value in the config: left alone
        assert "num_reducers" not in args


class TestLintResult:
    def test_collects_everything_in_one_pass(self):
        result = Linter().lint(BROKEN_WORKFLOW, filename="t.xml")
        assert {"PAP004", "PAP010"} <= set(result.codes())

    def test_a_duplicate_keeps_its_first_declaration(self):
        """The model is the spec: a duplicated argument or ``<param>`` is
        PAP003, and the rules see only the first declaration (the second
        one's undefined reference is not reported)."""
        xml = BLAST_WORKFLOW_XML.replace(
            '<param name="key" type="KeyId" value="seq_size"/>',
            '<param name="key" type="KeyId" value="seq_size"/>'
            '<param name="key" value="$nope"/>',
        ).replace('<param name="num_partitions" type="integer"/>',
                  '<param name="num_partitions" type="integer"/>'
                  '<param name="num_partitions" value="$zzz"/>')
        ctx, result = Linter().analyze(xml, filename="t.xml")
        assert sorted(d.code for d in result.errors) == ["PAP003", "PAP003"]
        assert ctx.model.operator("sort").param_value("key") == "seq_size"
        assert ctx.model.arguments["num_partitions"].type == "integer"
        assert ctx.plan is None  # a spec with structural errors is not planned

    def test_exit_codes(self):
        clean = Linter().lint(
            BLAST_WORKFLOW_XML, filename="w", inputs=[(BLAST_INPUT_XML, None)]
        )
        assert clean.exit_code() == 0
        assert clean.exit_code(strict=False) == 0
        broken = Linter().lint(BROKEN_WORKFLOW, filename="t.xml")
        assert broken.exit_code() == 1

    def test_strict_promotes_warnings(self):
        xml = """<workflow id="t">
  <arguments>
    <param name="p" type="hdfs"/>
    <param name="unused" type="integer" value="1"/>
  </arguments>
  <operators>
    <operator id="a" operator="Sort">
      <param name="inputPath" value="$p"/>
      <param name="key" value="k"/>
    </operator>
  </operators>
</workflow>"""
        result = Linter().lint(xml, filename="t.xml", do_plan=False)
        assert not result.errors and result.warnings
        assert result.exit_code() == 0
        assert result.exit_code(strict=True) == 1

    def test_diagnostics_sorted_by_location(self):
        result = Linter().lint(BROKEN_WORKFLOW, filename="t.xml")
        lines = [d.line for d in result.diagnostics if d.line is not None]
        assert lines == sorted(lines)

    def test_render_text_has_file_line_and_fix(self):
        result = Linter().lint(BROKEN_WORKFLOW, filename="t.xml")
        text = result.render_text()
        assert "t.xml:6: error PAP004" in text
        assert "fix:" in text
        assert "error(s)" in text


class TestJSONContract:
    """The machine-readable output is a stable interface."""

    def test_envelope(self):
        result = Linter().lint(BROKEN_WORKFLOW, filename="t.xml")
        payload = json.loads(result.render_json())
        assert payload["version"] == 1
        assert payload["tool"] == "papar-lint"
        assert payload["files"] == ["t.xml"]
        assert set(payload["summary"]) == {"errors", "warnings", "info"}
        assert payload["summary"]["errors"] == len(result.errors)

    def test_diagnostic_shape(self):
        result = Linter().lint(BROKEN_WORKFLOW, filename="t.xml")
        payload = json.loads(result.render_json())
        assert payload["diagnostics"], "expected findings"
        for entry in payload["diagnostics"]:
            assert set(entry) == {
                "code", "severity", "rule", "message",
                "file", "line", "column", "suggestion",
            }
            assert entry["code"] in CATALOG
            assert entry["severity"] in ("error", "warning", "info")
            assert entry["rule"] == CATALOG[entry["code"]].name

    def test_codes_are_stable(self):
        """Removing or renaming a code is a breaking change."""
        expected = {
            "PAP001", "PAP002", "PAP003", "PAP004", "PAP005", "PAP006",
            "PAP010", "PAP011", "PAP012", "PAP013", "PAP014",
            "PAP020", "PAP021", "PAP022", "PAP023", "PAP024", "PAP025",
            "PAP030", "PAP031", "PAP032", "PAP033", "PAP034", "PAP035",
            "PAP036",
            "PAP040", "PAP041", "PAP042", "PAP043", "PAP044",
            "PAP050", "PAP051", "PAP099",
        }
        assert expected <= set(all_codes())


class TestInternalErrorGuard:
    def test_pap099_when_a_rule_crashes(self):
        from repro.analysis.rules import CHECKERS

        def exploding_checker(ctx):
            raise RuntimeError("boom")
            yield  # pragma: no cover

        CHECKERS.append(exploding_checker)
        try:
            result = Linter().lint(BROKEN_WORKFLOW, filename="t.xml")
        finally:
            CHECKERS.remove(exploding_checker)
        crash = [d for d in result.diagnostics if d.code == "PAP099"]
        assert crash and "boom" in crash[0].message
        # the crash does not swallow other rules' findings
        assert "PAP004" in result.codes()


class TestPaParAPI:
    def test_lint_xml_text(self):
        papar = PaPar()
        papar.register_input(BLAST_INPUT_XML)
        result = papar.lint(BLAST_WORKFLOW_XML)
        assert not result.errors and not result.warnings

    def test_lint_parsed_spec_uses_source_file(self, tmp_path):
        wf_path = tmp_path / "wf.xml"
        wf_path.write_text(BLAST_WORKFLOW_XML)
        papar = PaPar()
        papar.register_input(BLAST_INPUT_XML)
        spec = papar.load_workflow_file(wf_path)
        result = papar.lint(spec)
        assert not result.errors
        assert str(wf_path) in result.files

    def test_lint_files(self, tmp_path):
        wf_path = tmp_path / "wf.xml"
        wf_path.write_text(BROKEN_WORKFLOW)
        result = PaPar().lint_files(wf_path)
        assert result.errors
        assert all(d.file == str(wf_path) for d in result.errors)

    def test_registered_schemas_feed_type_rules(self):
        papar = PaPar()
        papar.register_input(BLAST_INPUT_XML)
        xml = BLAST_WORKFLOW_XML.replace('value="seq_size"', 'value="seq_sizo"')
        result = papar.lint(xml)
        bad_key = [d for d in result.diagnostics if d.code == "PAP020"]
        assert bad_key and "seq_sizo" in bad_key[0].message

    def test_linter_without_schemas_skips_type_rules(self):
        xml = BLAST_WORKFLOW_XML.replace('value="seq_size"', 'value="seq_sizo"')
        result = Linter().lint(xml, filename="w")
        assert "PAP020" not in result.codes()


class TestSeverity:
    def test_ordering_and_values(self):
        assert [s.value for s in (Severity.ERROR, Severity.WARNING, Severity.INFO)] == [
            "error", "warning", "info",
        ]

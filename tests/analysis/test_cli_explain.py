"""The ``explain`` subcommand, ``lint --explain``, and output stability."""

import json

import pytest

from repro.analysis import CATALOG
from repro.analysis.engine import Linter
from repro.analysis.explain import EXPLAIN_SCHEMA_VERSION, explain
from repro.cli import main

DEAD_COLUMN_WORKFLOW = """<workflow id="t">
  <arguments>
    <param name="input_path" type="hdfs" format="blast_db"/>
  </arguments>
  <operators>
    <operator id="a" operator="Sort">
      <param name="inputPath" value="$input_path"/>
      <param name="outputPath" value="/tmp/a"/>
      <param name="key" value="seq_size"/>
    </operator>
    <operator id="dead" operator="Sort">
      <param name="inputPath" value="$input_path"/>
      <param name="outputPath" value="/tmp/dead"/>
      <param name="key" value="seq_start"/>
    </operator>
    <operator id="b" operator="Distribute">
      <param name="inputPath" value="$a.outputPath"/>
      <param name="outputPath" value="/tmp/out"/>
      <param name="distrPolicy" value="roundRobin"/>
      <param name="numPartitions" value="4"/>
    </operator>
  </operators>
</workflow>"""

BLAST_DB = """<input id="blast_db" name="BLAST Database file">
  <input_format>binary</input_format>
  <element>
    <value name="seq_start" type="integer"/>
    <value name="seq_size" type="integer"/>
    <value name="desc_start" type="integer"/>
    <value name="desc_size" type="integer"/>
  </element>
</input>"""


@pytest.fixture
def repo_configs(pytestconfig):
    return pytestconfig.rootpath / "configs"


class TestExplainCommand:
    def test_text_report_on_shipped_config(self, repo_configs, capsys):
        code = main([
            "explain", str(repo_configs / "blast_partition.xml"),
            "--input", str(repo_configs / "blast_db.xml"),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "sort" in out and "distr" in out
        assert "exchange" in out
        assert "live" in out

    def test_json_contract(self, repo_configs, capsys):
        code = main([
            "explain", str(repo_configs / "blast_partition.xml"),
            "--input", str(repo_configs / "blast_db.xml"),
            "--format", "json",
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == EXPLAIN_SCHEMA_VERSION
        assert doc["tool"] == "papar-explain"
        assert set(doc) == {
            "version", "tool", "workflow", "file", "operators", "edges",
            "exchanges", "pruning", "advisories", "summary",
        }
        assert [op["id"] for op in doc["operators"]]
        for op in doc["operators"]:
            assert {"index", "id", "kind", "line", "exchange", "schema",
                    "live", "est_rows", "input", "outputs"} <= set(op)
        for ex in doc["exchanges"]:
            assert {"op", "kind", "rows", "row_bytes", "est_bytes",
                    "measured"} <= set(ex)
        assert set(doc["summary"]) == {"errors", "warnings", "info"}

    def test_assume_records_estimates_bytes(self, repo_configs, capsys):
        code = main([
            "explain", str(repo_configs / "blast_partition.xml"),
            "--input", str(repo_configs / "blast_db.xml"),
            "--assume-records", "1000", "--format", "json",
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        for ex in doc["exchanges"]:
            assert ex["rows"] == 1000
            assert ex["est_bytes"] == 16000
            assert not ex["measured"]

    def test_dead_operator_and_unused_column_reported(self):
        """Acceptance: injected dead op + unread columns both surface."""
        report = explain(
            Linter(assume_records=1000),
            DEAD_COLUMN_WORKFLOW,
            filename="t.xml",
            inputs=[(BLAST_DB, "blast_db.xml")],
        )
        codes = {d.code for d in report.advisories}
        assert "PAP080" in codes
        assert "PAP083" in codes
        pap083 = next(d for d in report.advisories if d.code == "PAP083")
        assert "save an estimated" in pap083.message
        assert report.pruning["est_bytes_saved"] is not None

    def test_broken_workflow_fails(self, tmp_path, capsys):
        bad = tmp_path / "bad.xml"
        bad.write_text("<workflow id='t'><arguments>")
        code = main(["explain", str(bad)])
        assert code == 1


LABELLED_TEXT_DB = """<input id="labelled" name="text records with a string field">
  <input_format>text</input_format>
  <element>
    <value name="label" type="string"/>
    <value name="size" type="integer"/>
    <delimiter value=","/>
    <delimiter value="\\n"/>
  </element>
</input>"""

TEXT_SORTS_WORKFLOW = """<workflow id="t">
  <arguments>
    <param name="input_path" type="hdfs" format="labelled"/>
  </arguments>
  <operators>
    <operator id="s1" operator="Sort">
      <param name="inputPath" value="$input_path"/>
      <param name="outputPath" value="/tmp/s1"/>
      <param name="key" value="size"/>
    </operator>
    <operator id="s2" operator="Sort">
      <param name="inputPath" value="$s1.outputPath"/>
      <param name="outputPath" value="/tmp/s2"/>
      <param name="key" value="size"/>
    </operator>
    <operator id="d" operator="Distribute">
      <param name="inputPath" value="$s2.outputPath"/>
      <param name="outputPath" value="/tmp/out"/>
      <param name="distrPolicy" value="cyclic"/>
      <param name="numPartitions" value="4"/>
    </operator>
  </operators>
</workflow>"""


class TestTextSchemaWithStringField:
    """A string field has no binary width; the cost model prices it with
    ``field_width``'s 8-byte stand-in instead of crashing every rule that
    reads the cost model."""

    @pytest.fixture
    def configs(self, tmp_path):
        workflow = tmp_path / "wf.xml"
        workflow.write_text(TEXT_SORTS_WORKFLOW)
        schema = tmp_path / "labelled.xml"
        schema.write_text(LABELLED_TEXT_DB)
        return [str(workflow), "--input", str(schema), "--assume-records", "1000"]

    @pytest.mark.parametrize("command", ["lint", "explain"])
    def test_exits_0_without_pap099(self, configs, command, capsys):
        assert main([command, *configs]) == 0
        captured = capsys.readouterr()
        assert "PAP099" not in captured.out
        assert captured.err == ""

    def test_exchanges_priced_with_the_stand_in(self, configs, capsys):
        assert main(["explain", *configs, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        # 8 (string stand-in) + 4 (integer) bytes per record
        assert [ex["est_bytes"] for ex in doc["exchanges"]] == [12000] * 3

    def test_the_planner_skips_the_redundant_sort(self, configs, capsys):
        assert main(["lint", *configs, "--format", "json"]) == 0
        diags = json.loads(capsys.readouterr().out)["diagnostics"]
        assert [(d["code"], d["line"]) for d in diags if d["code"] == "PAP081"] == [
            ("PAP081", 6)]


class TestLintExplainFlag:
    def test_text_explanation(self, capsys):
        code = main(["lint", "--explain", "PAP083"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("PAP083 (unused-column) — info")
        assert "bad:" in out and "good:" in out

    def test_backend_advisory_explanation(self, capsys):
        code = main(["lint", "--explain", "PAP073"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("PAP073 (spmd-output-gathered) — info")
        assert "fixed-width binary" in out
        assert "bad:" in out and "good:" in out

    def test_json_explanation(self, capsys):
        code = main(["lint", "--explain", "pap030", "--format", "json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["code"] == "PAP030"
        assert doc["severity"] == "warning"
        assert doc["description"] and doc["bad"] and doc["good"]

    def test_unknown_code_suggests_and_exits_2(self, capsys):
        code = main(["lint", "--explain", "PAP999"])
        err = capsys.readouterr().err
        assert code == 2
        assert "unknown rule" in err

    def test_lint_without_workflow_or_explain_exits_2(self, capsys):
        code = main(["lint"])
        assert code == 2
        assert "workflow file is required" in capsys.readouterr().err

    def test_catalog_is_fully_documented(self):
        for code, spec in CATALOG.items():
            assert spec.description, code
            assert spec.bad, code
            assert spec.good, code
            doc = spec.explain_dict()
            assert set(doc) == {
                "code", "name", "severity", "summary", "description",
                "bad", "good",
            }


class TestDeterministicOrdering:
    def test_same_line_diagnostics_sorted_by_message(self, repo_configs, capsys):
        """Byte-stable output: ties at (file, line, severity, code) break on
        the message text, never on discovery order."""
        argv = [
            "lint", str(repo_configs / "hybrid_cut.xml"),
            "--input", str(repo_configs / "graph_edge.xml"),
            "--format", "json",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_sort_key_includes_message(self):
        from repro.analysis.diagnostics import Diagnostic, LintResult, Severity

        mk = lambda msg: Diagnostic(
            code="PAP080", rule="dead-operator", severity=Severity.INFO,
            message=msg, file="t.xml", line=5,
        )
        result = LintResult(diagnostics=[mk("zebra"), mk("apple")])
        result.sort()
        assert [d.message for d in result.diagnostics] == ["apple", "zebra"]

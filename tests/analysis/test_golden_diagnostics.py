"""Golden diagnostics: one minimal bad configuration per rule code.

Each test pins a code's exact identity — code string, severity, and the
1-based source line the diagnostic points at — so a rule can only change
behavior by changing a test.  ``docs/lint-rules.md`` catalogues the same
codes with bad/good pairs.
"""

import numpy as np
import pytest

from repro.analysis import CATALOG, Linter, Severity
from repro.config import EDGE_INPUT_XML
from repro.config.examples import BLAST_WORKFLOW_XML, HYBRID_CUT_WORKFLOW_XML
from repro.policies.distr import DistributionPolicy, _POLICIES, register_policy

BLAST_DB = """\
<input id="blast_db" name="BLAST Database file">
  <input_format>binary</input_format>
  <element>
    <value name="seq_start" type="integer"/>
    <value name="seq_size" type="integer"/>
    <value name="desc_start" type="integer"/>
    <value name="desc_size" type="integer"/>
  </element>
</input>
"""

FLOAT_DB = """\
<input id="floaty" name="float records">
  <input_format>binary</input_format>
  <element>
    <value name="score" type="float"/>
    <value name="size" type="integer"/>
  </element>
</input>
"""

TEXT_DB = """\
<input id="texty" name="text records">
  <input_format>text</input_format>
  <element>
    <value name="label" type="string"/>
    <value name="size" type="integer"/>
    <delimiter value=","/>
    <delimiter value="\\n"/>
  </element>
</input>
"""


def run_lint(xml, inputs=(), do_plan=True, **kw):
    result = Linter(**kw).lint(xml, filename="t.xml", inputs=inputs, do_plan=do_plan)
    # a golden config exercises one rule; it must not crash any other
    crashes = [d.message for d in result.diagnostics if d.code == "PAP099"]
    assert not crashes, crashes
    return result


def only(result, code):
    """The diagnostics carrying ``code`` (asserting there is at least one)."""
    matches = [d for d in result.diagnostics if d.code == code]
    assert matches, f"{code} missing; got {[d.code for d in result.diagnostics]}"
    return matches


def expect(result, code, line=None):
    """Assert ``code`` fired with its catalogued severity at ``line``."""
    diag = only(result, code)[0]
    assert diag.severity is CATALOG[code].severity
    assert diag.rule == CATALOG[code].name
    if line is not None:
        assert diag.line == line, f"{code}: line {diag.line} != {line}"
    return diag


class TestStructure:
    def test_pap001_malformed_xml(self):
        result = run_lint("<workflow id='t'><arguments>")
        diag = expect(result, "PAP001", line=1)
        assert diag.severity is Severity.ERROR
        assert result.exit_code() == 1

    def test_pap001_wrong_root(self):
        result = run_lint("<notworkflow/>")
        diag = expect(result, "PAP001", line=1)
        assert "<workflow>" in diag.message

    def test_pap002_operator_missing_attributes(self):
        result = run_lint(
            """<workflow id="t">
  <arguments/>
  <operators>
    <operator operator="Sort">
      <param name="key" value="x"/>
    </operator>
  </operators>
</workflow>""",
            do_plan=False,
        )
        expect(result, "PAP002", line=4)

    def test_pap003_duplicate_operator_id(self):
        result = run_lint(
            """<workflow id="t">
  <arguments>
    <param name="p" type="hdfs"/>
  </arguments>
  <operators>
    <operator id="a" operator="Sort">
      <param name="inputPath" value="$p"/>
      <param name="key" value="k"/>
    </operator>
    <operator id="a" operator="Sort">
      <param name="inputPath" value="$a.outputPath"/>
      <param name="key" value="k"/>
    </operator>
  </operators>
</workflow>""",
            do_plan=False,
        )
        expect(result, "PAP003", line=10)

    def test_pap004_unknown_operator(self):
        result = run_lint(
            """<workflow id="t">
  <arguments>
    <param name="p" type="hdfs"/>
  </arguments>
  <operators>
    <operator id="a" operator="Sorty">
      <param name="inputPath" value="$p"/>
      <param name="key" value="k"/>
    </operator>
  </operators>
</workflow>""",
            do_plan=False,
        )
        diag = expect(result, "PAP004", line=6)
        assert "sort" in (diag.suggestion or "")

    def test_pap005_unknown_addon_and_pap006_ignored(self):
        result = run_lint(
            """<workflow id="t">
  <arguments>
    <param name="p" type="hdfs"/>
  </arguments>
  <operators>
    <operator id="b" operator="Sort">
      <param name="inputPath" value="$p"/>
      <param name="key" value="k"/>
      <addon operator="bogus" key="k" attr="x"/>
    </operator>
  </operators>
</workflow>""",
            do_plan=False,
        )
        expect(result, "PAP005", line=9)
        expect(result, "PAP006", line=9)


class TestReferences:
    def test_pap010_undefined_reference(self):
        result = run_lint(
            """<workflow id="t">
  <arguments>
    <param name="input_path" type="hdfs"/>
  </arguments>
  <operators>
    <operator id="a" operator="Sort">
      <param name="inputPath" value="$input_paht"/>
      <param name="key" value="k"/>
    </operator>
  </operators>
</workflow>""",
            do_plan=False,
        )
        diag = expect(result, "PAP010", line=7)
        assert "$input_path" in (diag.suggestion or "")

    def test_pap011_forward_reference(self):
        result = run_lint(
            """<workflow id="t">
  <arguments>
    <param name="p" type="hdfs"/>
  </arguments>
  <operators>
    <operator id="a" operator="Sort">
      <param name="inputPath" value="$b.outputPath"/>
      <param name="key" value="k"/>
      <param name="outputPath" value="/tmp/a"/>
    </operator>
    <operator id="b" operator="Sort">
      <param name="inputPath" value="$p"/>
      <param name="key" value="k"/>
      <param name="outputPath" value="/tmp/b"/>
    </operator>
  </operators>
</workflow>""",
            do_plan=False,
        )
        expect(result, "PAP011", line=7)

    def test_pap012_reference_cycle(self):
        result = run_lint(
            """<workflow id="t">
  <arguments>
    <param name="p" type="hdfs"/>
  </arguments>
  <operators>
    <operator id="a" operator="Sort">
      <param name="inputPath" value="$b.outputPath"/>
      <param name="key" value="k"/>
      <param name="outputPath" value="/tmp/a"/>
    </operator>
    <operator id="b" operator="Sort">
      <param name="inputPath" value="$a.outputPath"/>
      <param name="key" value="k"/>
      <param name="outputPath" value="/tmp/b"/>
    </operator>
  </operators>
</workflow>""",
            do_plan=False,
        )
        diag = expect(result, "PAP012", line=6)
        assert "a -> b -> a" in diag.message
        # cycle members are not double-reported as forward references
        assert not [d for d in result.diagnostics if d.code == "PAP011"]

    def test_pap012_self_reference(self):
        result = run_lint(
            """<workflow id="t">
  <arguments>
    <param name="p" type="hdfs"/>
  </arguments>
  <operators>
    <operator id="a" operator="Sort">
      <param name="inputPath" value="$a.outputPath"/>
      <param name="key" value="k"/>
    </operator>
  </operators>
</workflow>""",
            do_plan=False,
        )
        expect(result, "PAP012", line=7)

    def test_pap013_unused_argument(self):
        result = run_lint(
            """<workflow id="t">
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
</workflow>""",
            do_plan=False,
        )
        diag = expect(result, "PAP013", line=4)
        assert "unused" in diag.message

    def test_pap014_unknown_output_attribute(self):
        result = run_lint(
            """<workflow id="t">
  <arguments>
    <param name="p" type="hdfs"/>
  </arguments>
  <operators>
    <operator id="a" operator="Sort">
      <param name="inputPath" value="$p"/>
      <param name="key" value="k"/>
      <param name="outputPath" value="/tmp/a"/>
    </operator>
    <operator id="b" operator="Sort">
      <param name="inputPath" value="$a.bogusAttr"/>
      <param name="key" value="k"/>
    </operator>
  </operators>
</workflow>""",
            do_plan=False,
        )
        expect(result, "PAP014", line=12)


class TestSchemaFlow:
    def test_pap020_key_not_in_schema(self):
        result = run_lint(
            """<workflow id="t">
  <arguments>
    <param name="input_path" type="hdfs" format="blast_db"/>
  </arguments>
  <operators>
    <operator id="s" operator="Sort">
      <param name="inputPath" value="$input_path"/>
      <param name="outputPath" value="/tmp/s"/>
      <param name="key" value="nope"/>
    </operator>
  </operators>
</workflow>""",
            inputs=[(BLAST_DB, "blast_db.xml")],
        )
        diag = expect(result, "PAP020", line=9)
        assert "seq_size" in diag.message

    def test_pap020_sees_addon_attributes(self):
        """A key an earlier add-on introduced is available downstream."""
        result = run_lint(
            """<workflow id="t">
  <arguments>
    <param name="input_path" type="hdfs" format="blast_db"/>
  </arguments>
  <operators>
    <operator id="g" operator="Group">
      <param name="inputPath" value="$input_path"/>
      <param name="outputPath" value="/tmp/g"/>
      <param name="key" value="seq_size"/>
      <addon operator="count" key="seq_size" attr="freq"/>
    </operator>
    <operator id="s" operator="Sort">
      <param name="inputPath" value="$g.outputPath"/>
      <param name="outputPath" value="/tmp/s"/>
      <param name="key" value="freq"/>
    </operator>
  </operators>
</workflow>""",
            inputs=[(BLAST_DB, "blast_db.xml")],
        )
        assert not [d for d in result.diagnostics if d.code == "PAP020"]

    def test_pap021_float_group_key(self):
        result = run_lint(
            """<workflow id="t">
  <arguments>
    <param name="input_path" type="hdfs" format="floaty"/>
  </arguments>
  <operators>
    <operator id="g" operator="Group">
      <param name="inputPath" value="$input_path"/>
      <param name="outputPath" value="/tmp/g"/>
      <param name="key" value="score"/>
    </operator>
  </operators>
</workflow>""",
            inputs=[(FLOAT_DB, "floaty.xml")],
        )
        expect(result, "PAP021", line=9)

    def test_pap022_split_threshold_type(self):
        result = run_lint(
            """<workflow id="t">
  <arguments>
    <param name="input_path" type="hdfs" format="texty"/>
  </arguments>
  <operators>
    <operator id="sp" operator="Split">
      <param name="inputPath" value="$input_path"/>
      <param name="outputPathList" value="/tmp/a,/tmp/b"/>
      <param name="key" value="label"/>
      <param name="policy" value="{&gt;=, 10},{&lt;, 10}"/>
    </operator>
  </operators>
</workflow>""",
            inputs=[(TEXT_DB, "texty.xml")],
        )
        expect(result, "PAP022", line=9)

    def test_pap023_split_coverage_gap(self):
        result = run_lint(
            """<workflow id="t">
  <arguments>
    <param name="input_path" type="hdfs" format="blast_db"/>
  </arguments>
  <operators>
    <operator id="sp" operator="Split">
      <param name="inputPath" value="$input_path"/>
      <param name="outputPathList" value="/tmp/a,/tmp/b"/>
      <param name="key" value="seq_size"/>
      <param name="policy" value="{&gt;, 10},{&lt;, 10}"/>
    </operator>
  </operators>
</workflow>""",
            inputs=[(BLAST_DB, "blast_db.xml")],
        )
        diag = expect(result, "PAP023", line=10)
        assert "10" in diag.message

    def test_pap024_addon_field_missing(self):
        result = run_lint(
            """<workflow id="t">
  <arguments>
    <param name="input_path" type="hdfs" format="blast_db"/>
  </arguments>
  <operators>
    <operator id="g" operator="Group">
      <param name="inputPath" value="$input_path"/>
      <param name="outputPath" value="/tmp/g"/>
      <param name="key" value="seq_size"/>
      <addon operator="sum" key="seq_size" value="missing_field" attr="tot"/>
    </operator>
  </operators>
</workflow>""",
            inputs=[(BLAST_DB, "blast_db.xml")],
        )
        expect(result, "PAP024", line=10)

    def test_pap025_boolean_literal(self):
        result = run_lint(
            """<workflow id="t">
  <arguments>
    <param name="p" type="hdfs"/>
    <param name="flag" type="boolean" value="ture"/>
  </arguments>
  <operators>
    <operator id="s" operator="Sort">
      <param name="inputPath" value="$p"/>
      <param name="key" value="k"/>
      <param name="verbose" type="boolean" value="$flag"/>
    </operator>
  </operators>
</workflow>""",
            do_plan=False,
        )
        diag = expect(result, "PAP025", line=4)
        assert "'ture'" in diag.message


class TestPathWiring:
    BAD_WIRING = """<workflow id="t">
  <arguments>
    <param name="input_path" type="hdfs" format="blast_db"/>
  </arguments>
  <operators>
    <operator id="a" operator="Sort">
      <param name="inputPath" value="$input_path"/>
      <param name="outputPath" value="/tmp/x"/>
      <param name="key" value="seq_size"/>
    </operator>
    <operator id="b" operator="Sort">
      <param name="inputPath" value="/tmp/nothing/"/>
      <param name="outputPath" value="/tmp/x"/>
      <param name="key" value="seq_size"/>
    </operator>
  </operators>
</workflow>"""

    def test_pap030_dead_output(self):
        result = run_lint(self.BAD_WIRING, inputs=[(BLAST_DB, "blast_db.xml")])
        expect(result, "PAP030", line=8)

    def test_pap031_output_collision(self):
        result = run_lint(self.BAD_WIRING, inputs=[(BLAST_DB, "blast_db.xml")])
        expect(result, "PAP031", line=13)

    def test_pap032_orphan_directory_input(self):
        result = run_lint(self.BAD_WIRING, inputs=[(BLAST_DB, "blast_db.xml")])
        expect(result, "PAP032", line=12)

    def test_pap033_split_arity(self):
        result = run_lint(
            """<workflow id="t">
  <arguments>
    <param name="input_path" type="hdfs" format="blast_db"/>
  </arguments>
  <operators>
    <operator id="sp" operator="Split">
      <param name="inputPath" value="$input_path"/>
      <param name="outputPathList" value="/tmp/a,/tmp/b,/tmp/c"/>
      <param name="key" value="seq_size"/>
      <param name="policy" value="{&gt;=, 10},{&lt;, 10}"/>
    </operator>
  </operators>
</workflow>""",
            inputs=[(BLAST_DB, "blast_db.xml")],
        )
        diag = expect(result, "PAP033", line=8)
        assert "2" in diag.message and "3" in diag.message

    def test_pap034_split_policy_syntax(self):
        result = run_lint(
            """<workflow id="t">
  <arguments>
    <param name="input_path" type="hdfs" format="blast_db"/>
  </arguments>
  <operators>
    <operator id="sp" operator="Split">
      <param name="inputPath" value="$input_path"/>
      <param name="outputPathList" value="/tmp/a,/tmp/b"/>
      <param name="key" value="seq_size"/>
      <param name="policy" value="&gt;= 10"/>
    </operator>
  </operators>
</workflow>""",
            inputs=[(BLAST_DB, "blast_db.xml")],
        )
        expect(result, "PAP034", line=10)

    def test_pap035_unknown_distribution_policy(self):
        result = run_lint(
            """<workflow id="t">
  <arguments>
    <param name="input_path" type="hdfs" format="blast_db"/>
  </arguments>
  <operators>
    <operator id="d" operator="Distribute">
      <param name="inputPath" value="$input_path"/>
      <param name="outputPath" value="/tmp/d"/>
      <param name="distrPolicy" value="roundRobbin"/>
      <param name="numPartitions" value="4"/>
    </operator>
  </operators>
</workflow>""",
            inputs=[(BLAST_DB, "blast_db.xml")],
        )
        diag = expect(result, "PAP035", line=9)
        assert "roundrobin" in (diag.suggestion or "").lower()

    def test_pap036_bad_partition_count(self):
        result = run_lint(
            """<workflow id="t">
  <arguments>
    <param name="input_path" type="hdfs" format="blast_db"/>
  </arguments>
  <operators>
    <operator id="d" operator="Distribute">
      <param name="inputPath" value="$input_path"/>
      <param name="outputPath" value="/tmp/d"/>
      <param name="distrPolicy" value="roundRobin"/>
      <param name="numPartitions" value="0"/>
    </operator>
  </operators>
</workflow>""",
            inputs=[(BLAST_DB, "blast_db.xml")],
        )
        expect(result, "PAP036", line=10)


class TestPlanRules:
    REDUCER_XML = """<workflow id="t">
  <arguments>
    <param name="input_path" type="hdfs" format="blast_db"/>
    <param name="output_path" type="hdfs"/>
  </arguments>
  <operators>
    <operator id="sort" operator="Sort" num_reducers="2">
      <param name="inputPath" value="$input_path"/>
      <param name="outputPath" value="/tmp/s"/>
      <param name="key" value="seq_size"/>
    </operator>
    <operator id="distr" operator="Distribute" num_reducers="5">
      <param name="inputPath" value="$sort.outputPath"/>
      <param name="outputPath" value="$output_path"/>
      <param name="distrPolicy" value="roundRobin"/>
      <param name="numPartitions" value="4"/>
    </operator>
  </operators>
</workflow>"""

    def test_pap040_plan_failure(self):
        result = run_lint(
            """<workflow id="t">
  <arguments>
    <param name="input_path" type="hdfs" format="blast_db"/>
  </arguments>
  <operators>
    <operator id="s" operator="Sort">
      <param name="inputPath" value="$input_path"/>
      <param name="outputPath" value="/tmp/s"/>
    </operator>
  </operators>
</workflow>""",
            inputs=[(BLAST_DB, "blast_db.xml")],
        )
        diag = expect(result, "PAP040")
        assert "no key" in diag.message

    def test_pap040_suppressed_by_static_explanation(self):
        """When a static rule explains the failure, PAP040 is noise."""
        result = run_lint(
            """<workflow id="t">
  <arguments>
    <param name="p" type="hdfs"/>
  </arguments>
  <operators>
    <operator id="a" operator="Sorty">
      <param name="inputPath" value="$p"/>
      <param name="key" value="k"/>
    </operator>
  </operators>
</workflow>"""
        )
        assert [d.code for d in result.diagnostics if d.severity is Severity.ERROR] == [
            "PAP004"
        ]

    def test_pap041_invalid_permutation(self):
        class BrokenPolicy(DistributionPolicy):
            name = "brokenperm"

            def permutation(self, n, nparts):
                perm = np.zeros(n, dtype=np.int64)
                counts = np.zeros(nparts, dtype=np.int64)
                counts[0] = n
                return perm, counts

        register_policy("brokenperm", BrokenPolicy)
        try:
            result = run_lint(
                """<workflow id="t">
  <arguments>
    <param name="input_path" type="hdfs" format="blast_db"/>
  </arguments>
  <operators>
    <operator id="d" operator="Distribute">
      <param name="inputPath" value="$input_path"/>
      <param name="outputPath" value="/tmp/d"/>
      <param name="distrPolicy" value="brokenperm"/>
      <param name="numPartitions" value="4"/>
    </operator>
  </operators>
</workflow>""",
                inputs=[(BLAST_DB, "blast_db.xml")],
            )
        finally:
            _POLICIES.pop("brokenperm", None)
        expect(result, "PAP041", line=6)

    def test_pap042_reducer_mismatch(self):
        result = run_lint(self.REDUCER_XML, inputs=[(BLAST_DB, "blast_db.xml")])
        expect(result, "PAP042", line=7)

    def test_pap043_sort_tie_partitioning(self):
        result = run_lint(self.REDUCER_XML, inputs=[(BLAST_DB, "blast_db.xml")])
        diag = expect(result, "PAP043", line=12)
        assert diag.severity is Severity.INFO

    def test_pap044_ranks_exceed_partitions(self):
        result = run_lint(
            self.REDUCER_XML, inputs=[(BLAST_DB, "blast_db.xml")], ranks=8
        )
        diag = expect(result, "PAP044", line=12)
        assert "8" in diag.message and "4" in diag.message


class TestInputConfigs:
    def test_pap050_invalid_input_config(self):
        result = run_lint(
            """<workflow id="t">
  <arguments>
    <param name="input_path" type="hdfs" format="broken"/>
  </arguments>
  <operators>
    <operator id="s" operator="Sort">
      <param name="inputPath" value="$input_path"/>
      <param name="key" value="k"/>
    </operator>
  </operators>
</workflow>""",
            inputs=[("<input id='broken'><element>", "broken.xml")],
        )
        diag = expect(result, "PAP050")
        assert diag.file == "broken.xml"

    def test_pap051_unreferenced_input_config(self):
        result = run_lint(
            """<workflow id="t">
  <arguments>
    <param name="input_path" type="hdfs"/>
  </arguments>
  <operators>
    <operator id="s" operator="Sort">
      <param name="inputPath" value="$input_path"/>
      <param name="outputPath" value="/tmp/s"/>
      <param name="key" value="seq_size"/>
    </operator>
  </operators>
</workflow>""",
            inputs=[(BLAST_DB, "blast_db.xml")],
        )
        diag = expect(result, "PAP051")
        assert diag.file == "blast_db.xml"


SPLIT_ONLY = """<workflow id="t">
  <arguments>
    <param name="input_path" type="hdfs" format="blast_db"/>
  </arguments>
  <operators>
    <operator id="s" operator="Split">
      <param name="inputPath" value="$input_path"/>
      <param name="outputPathList" value="/tmp/p,/tmp/q"/>
      <param name="key" value="seq_size"/>
      <param name="policy" value="{&gt;=, 10},{&lt;, 10}"/>
    </operator>
  </operators>
</workflow>"""

SORT_THEN_SPLIT = SPLIT_ONLY.replace(
    "<operators>",
    """<operators>
    <operator id="pre" operator="Sort">
      <param name="inputPath" value="$input_path"/>
      <param name="outputPath" value="/tmp/sorted"/>
      <param name="key" value="seq_size"/>
    </operator>""",
).replace('value="$input_path"/>\n      <param name="outputPathList"',
          'value="$pre.outputPath"/>\n      <param name="outputPathList"')


class TestOutOfCore:
    """PAP06x: declared memory budget versus estimated input size."""

    INPUTS = [(BLAST_DB, "blast_db.xml")]

    def test_pap061_invalid_budget_spec(self):
        result = run_lint(SPLIT_ONLY, inputs=self.INPUTS, memory_budget="banana")
        diag = expect(result, "PAP061")
        assert "banana" in diag.message
        assert result.exit_code() == 1

    def test_pap060_no_spill_capable_operator(self):
        # 10**6 records x 16 B = ~15 MiB against a 1KB budget, and Split
        # cannot spill: the input must be materialized over budget
        result = run_lint(
            SPLIT_ONLY, inputs=self.INPUTS,
            memory_budget="1KB", assume_records=10**6,
        )
        diag = expect(result, "PAP060", line=3)  # points at the input argument
        assert "1.0 KiB" in diag.message
        assert "1000000 records" in diag.message

    def test_pap060_prices_a_string_field_with_the_stand_in(self):
        result = run_lint(
            SPLIT_ONLY.replace("blast_db", "texty").replace("seq_size", "size"),
            inputs=[(TEXT_DB, "texty.xml")],
            memory_budget="1KB", assume_records=10**6,
        )
        diag = expect(result, "PAP060", line=3)
        assert "1000000 records x 12 B" in diag.message

    def test_pap060_suppressed_by_a_spill_capable_stage(self):
        result = run_lint(
            SORT_THEN_SPLIT, inputs=self.INPUTS,
            memory_budget="1KB", assume_records=10**6,
        )
        assert not [d for d in result.diagnostics if d.code == "PAP060"]

    def test_pap060_silent_when_the_input_fits(self):
        result = run_lint(
            SPLIT_ONLY, inputs=self.INPUTS,
            memory_budget="64MB", assume_records=1000,
        )
        assert not [d for d in result.diagnostics if d.code.startswith("PAP06")]

    def test_pap060_needs_an_assumed_record_count(self):
        result = run_lint(SPLIT_ONLY, inputs=self.INPUTS, memory_budget="1KB")
        assert not [d for d in result.diagnostics if d.code.startswith("PAP06")]

    def test_rules_silent_without_a_budget(self):
        result = run_lint(SPLIT_ONLY, inputs=self.INPUTS, assume_records=10**6)
        assert not [d for d in result.diagnostics if d.code.startswith("PAP06")]


class TestBackendFit:
    """PAP07x: declared execution backend versus its runtime restrictions."""

    INPUTS = [(BLAST_DB, "blast_db.xml")]

    def test_pap070_process_backend_with_faults(self):
        result = run_lint(
            SPLIT_ONLY, inputs=self.INPUTS, backend="process", faults=True,
            do_plan=False,
        )
        diag = expect(result, "PAP070")
        assert "backend='process'" in diag.message
        assert "mpi" in diag.suggestion
        # advisory, not blocking: exit code stays clean without --strict
        assert result.exit_code() == 0
        assert result.exit_code(strict=True) == 1

    def test_pap070_silent_on_the_threaded_backend(self):
        result = run_lint(SPLIT_ONLY, inputs=self.INPUTS, backend="mpi", faults=True)
        assert not [d for d in result.diagnostics if d.code == "PAP070"]

    def test_pap070_silent_without_fault_tolerance(self):
        result = run_lint(SPLIT_ONLY, inputs=self.INPUTS, backend="process")
        assert not [d for d in result.diagnostics if d.code == "PAP070"]

    def test_pap071_oversubscribed_ranks(self, monkeypatch):
        from repro.analysis.rules import backend as backend_rules

        monkeypatch.setattr(backend_rules, "available_cpus", lambda: 4)
        result = run_lint(SPLIT_ONLY, inputs=self.INPUTS, backend="process", ranks=16)
        diag = expect(result, "PAP071")
        assert "16 process ranks" in diag.message
        assert "4 CPU" in diag.message

    def test_pap071_silent_when_ranks_fit(self, monkeypatch):
        from repro.analysis.rules import backend as backend_rules

        monkeypatch.setattr(backend_rules, "available_cpus", lambda: 8)
        result = run_lint(SPLIT_ONLY, inputs=self.INPUTS, backend="process", ranks=8)
        assert not [d for d in result.diagnostics if d.code == "PAP071"]

    def test_pap070_silent_for_checkpoint_only_recovery(self):
        """Gang-restart recovery is supported: declaring a checkpoint (without
        injection) must not warn that the run will be refused."""
        result = run_lint(
            SPLIT_ONLY, inputs=self.INPUTS, backend="process", checkpoint=True,
        )
        assert not [d for d in result.diagnostics if d.code == "PAP070"]

    def test_pap072_large_rank_count_without_checkpoint(self, monkeypatch):
        from repro.analysis.rules import backend as backend_rules

        monkeypatch.setattr(backend_rules, "available_cpus", lambda: 64)
        result = run_lint(SPLIT_ONLY, inputs=self.INPUTS, backend="process", ranks=8)
        diag = expect(result, "PAP072")
        assert "checkpoint" in diag.message
        assert "--checkpoint-dir" in diag.suggestion

    def test_pap072_large_input_without_checkpoint(self):
        result = run_lint(
            SPLIT_ONLY, inputs=self.INPUTS, backend="process",
            assume_records=2_000_000,
        )
        expect(result, "PAP072")

    def test_pap072_silenced_by_a_declared_checkpoint(self, monkeypatch):
        from repro.analysis.rules import backend as backend_rules

        monkeypatch.setattr(backend_rules, "available_cpus", lambda: 64)
        result = run_lint(
            SPLIT_ONLY, inputs=self.INPUTS, backend="process", ranks=16,
            assume_records=2_000_000, checkpoint=True,
        )
        assert not [d for d in result.diagnostics if d.code == "PAP072"]

    def test_pap072_silent_for_small_runs(self):
        result = run_lint(SPLIT_ONLY, inputs=self.INPUTS, backend="process", ranks=4)
        assert not [d for d in result.diagnostics if d.code == "PAP072"]

    def test_rules_silent_without_a_declared_backend(self):
        result = run_lint(
            SPLIT_ONLY, inputs=self.INPUTS, faults=True, ranks=10**6,
            assume_records=10**9,
        )
        assert not [d for d in result.diagnostics if d.code.startswith("PAP07")]
        result = run_lint(HYBRID_CUT_WORKFLOW_XML, inputs=[(EDGE_INPUT_XML, "e.xml")])
        assert not [d for d in result.diagnostics if d.code.startswith("PAP07")]

    @pytest.mark.parametrize("backend", ["mpi", "mapreduce", "process"])
    def test_pap073_text_output_fed_by_a_packed_stream(self, backend):
        result = run_lint(
            HYBRID_CUT_WORKFLOW_XML, inputs=[(EDGE_INPUT_XML, "e.xml")],
            backend=backend,
        )
        diag = expect(result, "PAP073", line=24)
        assert diag.severity is Severity.INFO
        assert "'distr'" in diag.message and f"backend={backend!r}" in diag.message
        # the physical plan's reason: the first that applies, as the run reports it
        assert "(text output)" in diag.message
        assert "fixed-width binary" in diag.suggestion
        assert result.exit_code(strict=True) == 0  # an advisory never strict-fails

    def test_pap073_binary_output_fed_by_a_packed_stream(self):
        result = run_lint(GROUP_THEN_DEAL, inputs=self.INPUTS, backend="process")
        diag = expect(result, "PAP073", line=13)
        assert "(packed stream)" in diag.message

    def test_pap073_silent_when_ranks_write_in_place(self):
        """Flat fixed-width records into a binary output: nothing is gathered."""
        for backend in ("mpi", "mapreduce", "process"):
            result = run_lint(BLAST_WORKFLOW_XML, inputs=self.INPUTS, backend=backend)
            assert not [d for d in result.diagnostics if d.code == "PAP073"]

    def test_pap073_silent_on_serial(self):
        result = run_lint(
            HYBRID_CUT_WORKFLOW_XML, inputs=[(EDGE_INPUT_XML, "e.xml")],
            backend="serial",
        )
        assert not [d for d in result.diagnostics if d.code == "PAP073"]


GROUP_THEN_DEAL = """<workflow id="t">
  <arguments>
    <param name="input_path" type="hdfs" format="blast_db"/>
    <param name="output_path" type="hdfs" format="blast_db"/>
  </arguments>
  <operators>
    <operator id="group" operator="Group">
      <param name="inputPath" value="$input_path"/>
      <param name="outputPath" value="/tmp/group" format="pack"/>
      <param name="key" value="seq_size"/>
      <addon operator="count" key="seq_size" attr="n"/>
    </operator>
    <operator id="dist" operator="Distribute">
      <param name="inputPath" value="$group.outputPath"/>
      <param name="outputPath" value="$output_path"/>
      <param name="distrPolicy" value="cyclic"/>
      <param name="numPartitions" value="4"/>
    </operator>
  </operators>
</workflow>
"""


DEAL_ONLY = """<workflow id="t">
  <arguments>
    <param name="input_path" type="hdfs" format="blast_db"/>
  </arguments>
  <operators>
    <operator id="dist" operator="Distribute">
      <param name="inputPath" value="$input_path"/>
      <param name="outputPath" value="/tmp/out"/>
      <param name="distrPolicy" value="cyclic"/>
      <param name="numPartitions" value="4"/>
    </operator>
  </operators>
</workflow>"""

SORT_THEN_DEAL = DEAL_ONLY.replace(
    "<operator id=\"dist\"",
    """<operator id="sort" operator="Sort">
      <param name="inputPath" value="$input_path"/>
      <param name="outputPath" value="/tmp/sorted"/>
      <param name="key" value="seq_size"/>
    </operator>
    <operator id="dist\"""",
).replace('value="$input_path"/>\n      <param name="outputPath" value="/tmp/out"',
          'value="$sort.outputPath"/>\n      <param name="outputPath" value="/tmp/out"')


class TestServeFit:
    """PAP090: declared serve destination versus order-sensitive routing."""

    INPUTS = [(BLAST_DB, "blast_db.xml")]

    def test_pap090_dealing_with_no_keyed_stage(self):
        result = run_lint(DEAL_ONLY, inputs=self.INPUTS, serve=True)
        diag = expect(result, "PAP090", line=6)  # points at the distribute
        assert "'cyclic'" in diag.message
        assert "arrival order" in diag.message
        assert "Sort or Group" in diag.suggestion
        # a warning: blocks only under --strict
        assert result.exit_code() == 0
        assert result.exit_code(strict=True) == 1

    def test_pap090_silent_with_a_sort_upstream(self):
        result = run_lint(SORT_THEN_DEAL, inputs=self.INPUTS, serve=True)
        assert not [d for d in result.diagnostics if d.code == "PAP090"]

    def test_pap090_silent_without_the_serve_declaration(self):
        result = run_lint(DEAL_ONLY, inputs=self.INPUTS)
        assert not [d for d in result.diagnostics if d.code.startswith("PAP09")]

    def test_pap090_silent_on_a_non_distribute_tail(self):
        sort_only = """<workflow id="t">
  <arguments>
    <param name="input_path" type="hdfs" format="blast_db"/>
  </arguments>
  <operators>
    <operator id="sort" operator="Sort">
      <param name="inputPath" value="$input_path"/>
      <param name="outputPath" value="/tmp/sorted"/>
      <param name="key" value="seq_size"/>
    </operator>
  </operators>
</workflow>"""
        result = run_lint(sort_only, inputs=self.INPUTS, serve=True)
        assert not [d for d in result.diagnostics if d.code == "PAP090"]


class TestCatalogIntegrity:
    def test_every_code_is_catalogued(self):
        assert len(CATALOG) >= 30
        for code, spec in CATALOG.items():
            assert code.startswith("PAP") and len(code) == 6
            assert spec.code == code
            assert spec.name and spec.summary
            assert spec.severity in (Severity.ERROR, Severity.WARNING, Severity.INFO)

    def test_twelve_plus_distinct_codes_in_one_pass(self):
        """A single hostile config surfaces >= 12 distinct codes in one run."""
        result = run_lint(
            """<workflow id="t">
  <arguments>
    <param name="input_path" type="hdfs" format="blast_db"/>
    <param name="unused" type="integer" value="1"/>
    <param name="flag" type="boolean" value="ture"/>
  </arguments>
  <operators>
    <operator id="a" operator="Sorty">
      <param name="inputPath" value="$typo"/>
      <param name="key" value="seq_size"/>
      <param name="outputPath" value="/tmp/x"/>
    </operator>
    <operator id="b" operator="Sort">
      <param name="inputPath" value="$c.outputPath"/>
      <param name="key" value="nope"/>
      <param name="outputPath" value="/tmp/x"/>
      <addon operator="bogus" key="k" attr="y"/>
    </operator>
    <operator id="c" operator="Split">
      <param name="inputPath" value="/tmp/orphan/"/>
      <param name="outputPathList" value="/tmp/p,/tmp/q,/tmp/r"/>
      <param name="key" value="seq_size"/>
      <param name="policy" value="{&gt;, 10},{&lt;, 10}"/>
    </operator>
    <operator id="d" operator="Distribute">
      <param name="inputPath" value="$c.outputPathList"/>
      <param name="outputPath" value="/tmp/out"/>
      <param name="distrPolicy" value="nosuch"/>
      <param name="numPartitions" value="-3"/>
    </operator>
  </operators>
</workflow>""",
            inputs=[(BLAST_DB, "blast_db.xml")],
        )
        codes = result.codes()
        assert len(codes) >= 12, codes
        for diag in result.diagnostics:
            assert diag.file, diag
        located = [d for d in result.diagnostics if d.line is not None]
        assert len(located) >= 10


ADVISORY_CHAIN = """<workflow id="t">
  <arguments>
    <param name="input_path" type="hdfs" format="blast_db"/>
  </arguments>
  <operators>
    <operator id="a" operator="Sort">
      <param name="inputPath" value="$input_path"/>
      <param name="outputPath" value="/tmp/a"/>
      <param name="key" value="seq_size"/>
    </operator>
    <operator id="b" operator="Distribute">
      <param name="inputPath" value="$a.outputPath"/>
      <param name="outputPath" value="/tmp/out"/>
      <param name="distrPolicy" value="roundRobin"/>
      <param name="numPartitions" value="4"/>
    </operator>
  </operators>
</workflow>"""


class TestAdvisories:
    """PAP080-PAP084: INFO-severity advisories; PAP080/PAP081 report the
    jobs the planner elides."""

    def test_pap080_dead_operator(self):
        result = run_lint(
            """<workflow id="t">
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
</workflow>""",
            inputs=[(BLAST_DB, "blast_db.xml")],
        )
        diag = expect(result, "PAP080", line=11)
        assert diag.severity is Severity.INFO
        assert "'dead'" in diag.message

    def test_pap080_silent_on_linear_chain(self):
        result = run_lint(ADVISORY_CHAIN, inputs=[(BLAST_DB, "blast_db.xml")])
        assert "PAP080" not in result.codes()

    def test_pap081_sort_into_sort(self):
        result = run_lint(
            """<workflow id="t">
  <arguments>
    <param name="input_path" type="hdfs" format="blast_db"/>
  </arguments>
  <operators>
    <operator id="a" operator="Sort">
      <param name="inputPath" value="$input_path"/>
      <param name="outputPath" value="/tmp/a"/>
      <param name="key" value="seq_size"/>
    </operator>
    <operator id="b" operator="Sort">
      <param name="inputPath" value="$a.outputPath"/>
      <param name="outputPath" value="/tmp/b"/>
      <param name="key" value="seq_size"/>
    </operator>
  </operators>
</workflow>""",
            inputs=[(BLAST_DB, "blast_db.xml")],
        )
        diag = expect(result, "PAP081", line=6)
        assert diag.severity is Severity.INFO
        assert "redundant" in diag.message
        assert diag.suggestion == "the planner skips operator 'a'; one exchange suffices"

    def test_pap081_silent_on_sorts_by_different_keys(self):
        """The first sort decides tie order under the second: the planner
        keeps it, so lint reports nothing."""
        result = run_lint(
            """<workflow id="t">
  <arguments>
    <param name="input_path" type="hdfs" format="blast_db"/>
  </arguments>
  <operators>
    <operator id="a" operator="Sort">
      <param name="inputPath" value="$input_path"/>
      <param name="outputPath" value="/tmp/a"/>
      <param name="key" value="seq_size"/>
    </operator>
    <operator id="b" operator="Sort">
      <param name="inputPath" value="$a.outputPath"/>
      <param name="outputPath" value="/tmp/b"/>
      <param name="key" value="seq_start"/>
    </operator>
  </operators>
</workflow>""",
            inputs=[(BLAST_DB, "blast_db.xml")],
        )
        assert "PAP081" not in result.codes()

    def test_pap081_group_into_same_key_sort(self):
        result = run_lint(
            """<workflow id="t">
  <arguments>
    <param name="input_file" type="hdfs" format="texty"/>
  </arguments>
  <operators>
    <operator id="g" operator="Group">
      <param name="inputPath" value="$input_file"/>
      <param name="outputPath" value="/tmp/g"/>
      <param name="key" value="size"/>
    </operator>
    <operator id="s" operator="Sort">
      <param name="inputPath" value="$g.outputPath"/>
      <param name="outputPath" value="/tmp/s"/>
      <param name="key" value="size"/>
    </operator>
  </operators>
</workflow>""",
            inputs=[(TEXT_DB, "texty.xml")],
        )
        # the planner drops the sort, and the finding points at it
        assert "operator 's'" in expect(result, "PAP081", line=11).message

    def test_pap081_silent_on_sort_into_distribute(self):
        """The paper's canonical pipeline: position permutation keeps order."""
        result = run_lint(ADVISORY_CHAIN, inputs=[(BLAST_DB, "blast_db.xml")])
        assert "PAP081" not in result.codes()

    def test_pap084_exchange_hotspot(self):
        for backend in ("mpi", "mapreduce", "process"):
            result = run_lint(
                HYBRID_CUT_WORKFLOW_XML,
                inputs=[(EDGE_INPUT_XML, "e.xml")],
                backend=backend,
                assume_records=20_000_000,  # x 16B/edge = 305MB through the group
            )
            diag = expect(result, "PAP084", line=9)
            assert diag.severity is Severity.INFO
            assert "hotspot threshold" in diag.message
            assert "(records) ships an estimated 305.2MB (20000000 records x 16B)" in (
                diag.message)
            # the group's record exchange and the gathered deal of 24-byte edges
            assert len(only(result, "PAP084")) == 2

    def test_pap084_silent_below_threshold(self):
        result = run_lint(
            HYBRID_CUT_WORKFLOW_XML,
            inputs=[(EDGE_INPUT_XML, "e.xml")],
            backend="mpi",
            assume_records=1000,
        )
        assert "PAP084" not in result.codes()

    @pytest.mark.parametrize("backend", [None, "serial", "mpi"])
    def test_pap084_silent_on_a_cut_and_an_in_place_deal(self, backend):
        """The sort of the input is cut and the deal written in place: the
        records never cross the fabric, whatever their count; and nothing
        is priced without a declared SPMD backend."""
        result = run_lint(
            ADVISORY_CHAIN,
            inputs=[(BLAST_DB, "blast_db.xml")],
            backend=backend,
            assume_records=20_000_000,
        )
        assert "PAP084" not in result.codes()

    def test_advisories_never_change_exit_code(self):
        result = run_lint(
            ADVISORY_CHAIN,
            inputs=[(BLAST_DB, "blast_db.xml")],
            assume_records=20_000_000,
        )
        assert {d.severity for d in result.diagnostics} == {Severity.INFO}
        assert result.exit_code() == 0

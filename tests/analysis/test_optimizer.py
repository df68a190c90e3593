"""The rewrite engine: every PAP08x pass fires, refuses, and converges.

One workflow per pass pins that the rewrite actually happens (PAP080
dead elimination, PAP081 redundant-exchange elimination); the refusal
tests pin the safety arguments (stable-sort tie order, sort direction as
the planner reads it); PAP083 stays an advisory that no pass applies;
the golden JSON test pins the
``papar.optimize`` v2 contract; and the idempotence test pins that
optimizing an optimized plan is a no-op.
"""

import json

import pytest

from repro.analysis import Linter
from repro.analysis.optimize import OPTIMIZE_SCHEMA_VERSION, PASS_NAMES
from repro.analysis.optimize import optimize as optimize_report
from repro.config import BLAST_INPUT_XML
from repro.config.examples import BLAST_WORKFLOW_XML
from repro.config.serialize import workflow_to_xml
from repro.config.workflow import parse_workflow_config
from repro.core.planner import Planner

BLAST_INPUTS = [(BLAST_INPUT_XML, "blast_db.xml")]
ARGS = {"input_path": "/in", "output_path": "/out"}


def optimize(xml, args=ARGS, inputs=BLAST_INPUTS, **kw):
    kw.setdefault("assume_records", 1000)
    return optimize_report(Linter(**kw), xml, filename="t.xml", inputs=inputs, args=args)


def wf(operators, args_xml=None):
    args_xml = args_xml or """
    <param name="input_path" type="String" format="blast_db"/>
    <param name="output_path" type="String"/>
    <param name="num_partitions" type="Integer" value="4"/>
    """
    return f"""
<workflow id="t" name="t">
  <arguments>{args_xml}</arguments>
  <operators>{operators}</operators>
</workflow>
"""


SORT = """
  <operator id="{id}" operator="Sort">
    <param name="key" type="KeyId" value="{key}"/>
    <param name="inputPath" value="{inp}"/>
    <param name="outputPath" value="{out}"/>
    {extra}
  </operator>
"""


def sort_op(id, inp, out, key="seq_size", extra=""):
    return SORT.format(id=id, key=key, inp=inp, out=out, extra=extra)


def distr_op(id, inp, out, policy="roundRobin", parts="$num_partitions"):
    return f"""
  <operator id="{id}" operator="Distribute">
    <param name="inputPath" value="{inp}"/>
    <param name="outputPath" value="{out}"/>
    <param name="distrPolicy" value="{policy}"/>
    <param name="numPartitions" type="integer" value="{parts}"/>
  </operator>
"""


FUSED_SORTS = wf(
    sort_op("sort1", "$input_path", "/user/s1")
    + sort_op("sort2", "$sort1.outputPath", "/user/s2")
    + distr_op("distr", "$sort2.outputPath", "$output_path")
)


# -- each pass fires --------------------------------------------------------


def test_pap080_dead_operator_elimination_fires():
    xml = wf(
        sort_op("sort", "$input_path", "/user/s1")
        + sort_op("dead", "$sort.outputPath", "/user/dead", key="seq_start")
        + distr_op("distr", "$sort.outputPath", "$output_path")
    )
    report = optimize(xml)
    codes = [r.code for r in report.plan.rewrites]
    assert codes == ["PAP080"]
    assert report.plan.rewrites[0].removed == ["dead"]
    assert [op["id"] for op in report.after.operators] == ["sort", "distr"]


def test_pap081_same_key_sort_sort_collapses():
    report = optimize(FUSED_SORTS)
    codes = [r.code for r in report.plan.rewrites]
    assert codes == ["PAP081"]
    assert report.plan.rewrites[0].removed == ["sort1"]
    assert report.plan.exchanges_removed == 1
    # the survivor is re-pointed at the workflow input
    assert [e["src"] for e in report.after.edges] == [None, "sort2"]


def test_pap083_is_an_advisory_not_a_pass():
    """Shipped BLAST reads one of its four columns: lint says so, and the
    optimizer leaves the (structurally minimal) plan alone."""
    lint = Linter(assume_records=1000).lint(BLAST_WORKFLOW_XML, inputs=BLAST_INPUTS,
                                            args=ARGS)
    assert "PAP083" in lint.codes()
    assert "PAP083" not in PASS_NAMES
    report = optimize(BLAST_WORKFLOW_XML)
    assert report.plan.changed is False
    summary = report.plan.summary()
    assert summary["passes_fired"] == []
    assert summary["est_bytes_after"] == summary["est_bytes_before"]
    assert "PAP083" not in {r.code for r in report.plan.refusals}


# -- documented refusals ----------------------------------------------------


def refusal_reasons(report, code):
    return [r.reason for r in report.plan.refusals if r.code == code]


def test_pap081_refuses_different_key_sorts():
    xml = wf(
        sort_op("sort1", "$input_path", "/user/s1", key="seq_start")
        + sort_op("sort2", "$sort1.outputPath", "/user/s2")
        + distr_op("distr", "$sort2.outputPath", "$output_path")
    )
    report = optimize(xml)
    assert not report.plan.rewrites
    assert any("tie order" in r for r in refusal_reasons(report, "PAP081"))


def test_pap081_refuses_different_direction_sorts():
    xml = wf(
        sort_op("sort1", "$input_path", "/user/s1",
                extra='<param name="ascending" type="boolean" value="false"/>')
        + sort_op("sort2", "$sort1.outputPath", "/user/s2")
        + distr_op("distr", "$sort2.outputPath", "$output_path")
    )
    report = optimize(xml)
    assert not report.plan.rewrites
    assert any("direction" in r for r in refusal_reasons(report, "PAP081"))


def test_distribute_feeding_sort_is_a_wiring_error():
    """No pass sees a distribute feeding an exchange: the sort reading the
    distribute's partitions is the located error PAP037, which leaves the
    workflow unoptimized."""
    xml = wf(
        distr_op("d1", "$input_path", "/user/d1")
        + sort_op("sort", "$d1.outputPath", "/user/s1")
        + distr_op("d2", "$sort.outputPath", "$output_path")
    )
    report = optimize(xml)
    assert not report.plan.rewrites and not report.plan.refusals
    (error,) = report.before.lint.errors
    assert (error.code, error.line) == ("PAP037", 18)  # the sort's inputPath
    assert "operator 'sort': input '/user/d1' reads the partitions of distribute 'd1'" in (
        error.message)


def group_then_sort(extra):
    return wf(
        """
  <operator id="group" operator="Group">
    <param name="key" type="KeyId" value="seq_size"/>
    <param name="inputPath" value="$input_path"/>
    <param name="outputPath" value="/user/g1"/>
  </operator>
"""
        + sort_op("sort", "$group.outputPath", "$output_path", extra=extra)
    )


@pytest.mark.parametrize("extra", [
    '<param name="flag" type="integer" value="1"/>',
    '<param name="flag" type="integer" value="-1"/>',
    '<param name="asc" value="false"/>',
], ids=["flag=1", "flag=-1", "asc=false"])
def test_pap081_group_sort_reads_the_direction_the_planner_reads(extra):
    """Group output is ascending by key, so only a sort the planner makes
    ascending is advised and rewritten; ``asc`` is no planner parameter."""
    xml = group_then_sort(extra)
    spec = parse_workflow_config(xml)
    ascending = Planner().plan(spec, ARGS).job("sort").operator.ascending
    assert ascending is ("flag" not in extra or 'value="-1"' in extra)
    lint = Linter(assume_records=1000).lint(xml, inputs=BLAST_INPUTS, args=ARGS)
    assert ("PAP081" in lint.codes()) is ascending
    report = optimize(xml)
    assert ([r.code for r in report.plan.rewrites] == ["PAP081"]) is ascending
    if not ascending:
        assert any("only an ascending same-key sort" in r
                   for r in refusal_reasons(report, "PAP081"))


# -- convergence ------------------------------------------------------------


def test_optimizing_an_optimized_plan_is_a_noop():
    first = optimize(FUSED_SORTS)
    assert first.plan.changed
    again = optimize(workflow_to_xml(first.plan.workflow))
    assert not again.plan.rewrites
    assert again.plan.exchanges_removed == 0


def test_minimal_plan_reports_unchanged():
    xml = wf(
        """
  <operator id="group" operator="Group">
    <param name="key" type="KeyId" value="seq_size"/>
    <param name="inputPath" value="$input_path"/>
    <param name="outputPath" value="/user/g1" format="pack"/>
    <addon operator="count" key="seq_size" attr="n"/>
  </operator>
"""
        + distr_op("distr", "$group.outputPath", "$output_path")
    )
    report = optimize(xml)
    assert not report.plan.changed
    assert report.plan.summary()["changed"] is False


def test_chain_of_three_sorts_collapses_to_one():
    xml = wf(
        sort_op("s1", "$input_path", "/user/s1")
        + sort_op("s2", "$s1.outputPath", "/user/s2")
        + sort_op("s3", "$s2.outputPath", "/user/s3")
        + distr_op("distr", "$s3.outputPath", "$output_path")
    )
    report = optimize(xml)
    assert [r.code for r in report.plan.rewrites] == ["PAP081", "PAP081"]
    assert [op["id"] for op in report.after.operators] == ["s3", "distr"]


# -- the JSON contract ------------------------------------------------------


def test_optimize_report_json_contract():
    report = optimize(FUSED_SORTS)
    doc = json.loads(report.render_json())
    assert doc["version"] == OPTIMIZE_SCHEMA_VERSION
    assert doc["tool"] == "papar-optimize"
    assert doc["workflow"] == "t"
    assert set(doc) == {"version", "tool", "workflow", "file", "summary",
                        "before", "after"}
    summary = doc["summary"]
    assert set(summary) == {
        "changed", "passes_fired", "rewrites", "refusals",
        "operators_removed", "exchanges_removed",
        "est_bytes_before", "est_bytes_after", "est_bytes_saved",
    }
    rewrite = summary["rewrites"][0]
    assert set(rewrite) == {"code", "pass", "site", "removed", "kept",
                            "detail", "est_bytes_saved"}
    # the diff reuses the explain contract on both sides
    assert doc["before"]["tool"] == "papar-explain"
    assert doc["after"]["tool"] == "papar-explain"
    assert len(doc["after"]["operators"]) == len(doc["before"]["operators"]) - 1
    # dropping one of the three exchanges drops a third of the estimate
    assert 3 * summary["est_bytes_after"] == 2 * summary["est_bytes_before"]


def test_every_advisory_pass_name_is_catalogued():
    from repro.analysis import CATALOG

    for code, pass_name in PASS_NAMES.items():
        assert code in CATALOG
        assert pass_name in CATALOG[code].good or pass_name in CATALOG[code].description

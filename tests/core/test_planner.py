"""Planner unit tests: operator instantiation, dataflow wiring, errors."""

import pytest

from repro.config import parse_workflow_config
from repro.core.planner import Planner
from repro.errors import WorkflowError


def plan_xml(xml, args=None):
    return Planner().plan(parse_workflow_config(xml), args or {})


class TestSortPlanning:
    def test_flag_parameter_table1(self):
        xml = """
        <workflow id="w">
          <arguments/>
          <operators>
            <operator id="s" operator="Sort">
              <param name="inputPath" value="/in"/>
              <param name="outputPath" value="/o"/>
              <param name="key" value="k"/>
              <param name="flag" type="integer" value="1"/>
            </operator>
            <operator id="d" operator="Distribute">
              <param name="inputPath" value="/o"/>
              <param name="numPartitions" type="integer" value="2"/>
            </operator>
          </operators>
        </workflow>
        """
        plan = plan_xml(xml)
        assert plan.jobs[0].operator.ascending is False  # flag 1 = descending

    def test_ascending_parameter(self):
        xml = """
        <workflow id="w">
          <arguments/>
          <operators>
            <operator id="s" operator="Sort">
              <param name="key" value="k"/>
              <param name="ascending" type="boolean" value="false"/>
            </operator>
          </operators>
        </workflow>
        """
        plan = plan_xml(xml)
        assert plan.jobs[0].operator.ascending is False

    def test_missing_key_rejected(self):
        xml = """
        <workflow id="w">
          <arguments/>
          <operators>
            <operator id="s" operator="Sort">
              <param name="inputPath" value="/in"/>
            </operator>
          </operators>
        </workflow>
        """
        with pytest.raises(WorkflowError, match="key"):
            plan_xml(xml)

    def test_default_output_path(self):
        xml = """
        <workflow id="w">
          <arguments/>
          <operators>
            <operator id="mysort" operator="Sort">
              <param name="key" value="k"/>
            </operator>
          </operators>
        </workflow>
        """
        plan = plan_xml(xml)
        assert plan.jobs[0].output_paths == ["/tmp/mysort"]

    def test_paper_typo_ouputPath_accepted(self):
        """Figure 8 spells it 'ouputPath'; the planner accepts both."""
        xml = """
        <workflow id="w">
          <arguments/>
          <operators>
            <operator id="s" operator="Sort">
              <param name="key" value="k"/>
              <param name="ouputPath" value="/user/sorted"/>
            </operator>
          </operators>
        </workflow>
        """
        plan = plan_xml(xml)
        assert plan.jobs[0].output_paths == ["/user/sorted"]


class TestGroupPlanning:
    def test_addon_attr_bound_for_later_references(self):
        xml = """
        <workflow id="w">
          <arguments/>
          <operators>
            <operator id="g" operator="Group">
              <param name="key" value="vertex_b"/>
              <param name="outputPath" value="/g" format="pack"/>
              <addon operator="count" key="vertex_b" attr="indeg"/>
            </operator>
            <operator id="s" operator="Split">
              <param name="inputPath" value="/g"/>
              <param name="outputPathList" type="StringList" value="/a,/b"/>
              <param name="key" value="$g.$indeg"/>
              <param name="policy" value="{&gt;=, 5},{&lt;, 5}"/>
            </operator>
          </operators>
        </workflow>
        """
        plan = plan_xml(xml)
        assert plan.jobs[1].operator.key == "indeg"
        assert plan.jobs[1].source == "g"

    def test_numeric_addon_value_field(self):
        xml = """
        <workflow id="w">
          <arguments/>
          <operators>
            <operator id="g" operator="Group">
              <param name="key" value="k"/>
              <addon operator="mean" value="weight" attr="avg_w"/>
            </operator>
          </operators>
        </workflow>
        """
        plan = plan_xml(xml)
        addons = plan.jobs[0].operator.addons
        assert len(addons) == 1
        op, attr, field = addons[0]
        assert op.name == "mean"
        assert attr == "avg_w"
        assert field == "weight"

    def test_group_missing_key(self):
        xml = """
        <workflow id="w"><arguments/>
          <operators><operator id="g" operator="Group"/></operators>
        </workflow>
        """
        with pytest.raises(WorkflowError, match="key"):
            plan_xml(xml)


class TestSplitPlanning:
    BASE = """
    <workflow id="w">
      <arguments/>
      <operators>
        <operator id="s" operator="Split">
          <param name="inputPath" value="/in"/>
          <param name="outputPathList" type="StringList" value="{paths}"/>
          <param name="key" value="k"/>
          <param name="policy" value="{policy}"/>
        </operator>
      </operators>
    </workflow>
    """

    def test_condition_path_count_mismatch(self):
        xml = self.BASE.format(paths="/a,/b,/c", policy="{&gt;=, 5},{&lt;, 5}")
        with pytest.raises(WorkflowError, match="output paths"):
            plan_xml(xml)

    def test_missing_policy(self):
        xml = """
        <workflow id="w"><arguments/>
          <operators>
            <operator id="s" operator="Split">
              <param name="key" value="k"/>
              <param name="outputPathList" type="StringList" value="/a,/b"/>
            </operator>
          </operators>
        </workflow>
        """
        with pytest.raises(WorkflowError, match="policy"):
            plan_xml(xml)

    def test_missing_output_list(self):
        xml = """
        <workflow id="w"><arguments/>
          <operators>
            <operator id="s" operator="Split">
              <param name="key" value="k"/>
              <param name="policy" value="{&gt;=, 5}"/>
            </operator>
          </operators>
        </workflow>
        """
        with pytest.raises(WorkflowError, match="outputPathList"):
            plan_xml(xml)

    def test_three_way_split(self):
        xml = self.BASE.format(
            paths="/hi,/mid,/lo",
            policy="{&gt;=, 100},{&gt;=, 10},{&lt;, 10}",
        )
        plan = plan_xml(xml)
        assert plan.jobs[0].operator.policy.num_outputs == 3
        assert plan.jobs[0].output_paths == ["/hi", "/mid", "/lo"]


class TestDistributePlanning:
    def test_missing_num_partitions(self):
        xml = """
        <workflow id="w"><arguments/>
          <operators>
            <operator id="d" operator="Distribute">
              <param name="inputPath" value="/in"/>
            </operator>
          </operators>
        </workflow>
        """
        with pytest.raises(WorkflowError, match="numPartitions"):
            plan_xml(xml)

    def test_default_policy_cyclic(self):
        xml = """
        <workflow id="w"><arguments/>
          <operators>
            <operator id="d" operator="Distribute">
              <param name="numPartitions" type="integer" value="3"/>
            </operator>
          </operators>
        </workflow>
        """
        plan = plan_xml(xml)
        assert plan.jobs[0].operator.policy.name == "cyclic"


class TestWiring:
    def test_unknown_operator_type(self):
        xml = """
        <workflow id="w"><arguments/>
          <operators><operator id="x" operator="Teleport"/></operators>
        </workflow>
        """
        with pytest.raises(WorkflowError, match="unknown operator type"):
            plan_xml(xml)

    def test_chain_falls_back_to_previous_job(self):
        """No input parameter reads every output of the previous job; an
        input path that matches no earlier output reads the workflow input."""
        xml = """
        <workflow id="w"><arguments/>
          <operators>
            <operator id="sp" operator="Split">
              <param name="inputPath" value="/in"/>
              <param name="outputPathList" type="StringList" value="/tmp/sp/x,/tmp/sp/y"/>
              <param name="key" value="k"/>
              <param name="policy" value="{&gt;=, 5},{&lt;, 5}"/>
            </operator>
            <operator id="s" operator="Sort">
              <param name="key" value="k"/>
              <param name="outputPath" value="/s"/>
            </operator>
            <operator id="d" operator="Distribute">
              <param name="inputPath" value="/elsewhere"/>
              <param name="numPartitions" type="integer" value="2"/>
            </operator>
          </operators>
        </workflow>
        """
        plan = plan_xml(xml)
        assert (plan.jobs[1].source, plan.jobs[1].source_outputs) == ("sp", [0, 1])
        assert (plan.jobs[2].source, plan.jobs[2].source_outputs) == (None, [])

    def test_a_path_is_matched_on_a_directory_boundary(self):
        """``/s`` names ``/s/part`` but not ``/sorted``."""
        xml = """
        <workflow id="w"><arguments/>
          <operators>
            <operator id="a" operator="Sort">
              <param name="key" value="k"/><param name="outputPath" value="/sorted"/>
            </operator>
            <operator id="b" operator="Sort">
              <param name="inputPath" value="/s"/>
              <param name="key" value="k"/><param name="outputPath" value="/s/part"/>
            </operator>
            <operator id="d" operator="Distribute">
              <param name="inputPath" value="/s"/>
              <param name="numPartitions" type="integer" value="2"/>
            </operator>
          </operators>
        </workflow>
        """
        plan = plan_xml(xml)
        assert plan.jobs[1].source is None
        assert (plan.jobs[2].source, plan.jobs[2].source_outputs) == ("b", [0])

    @pytest.mark.parametrize("input_param, message", [
        ('<param name="inputPath" value="/tmp/"/>', "matches outputs of 2 jobs"),
        ('<param name="inputPath" value="/tmp/d"/>', "reads the partitions of distribute 'd'"),
        ("", "reads the partitions of distribute 'd'"),
    ], ids=["two-jobs", "distribute", "implicit-distribute"])
    def test_unwirable_inputs_are_located_errors(self, input_param, message):
        xml = f"""<workflow id="w"><arguments/>
          <operators>
            <operator id="s" operator="Sort">
              <param name="key" value="k"/><param name="outputPath" value="/tmp/s"/>
            </operator>
            <operator id="d" operator="Distribute">
              <param name="outputPath" value="/tmp/d"/>
              <param name="numPartitions" type="integer" value="2"/>
            </operator>
            <operator id="last" operator="Sort">
              {input_param}<param name="key" value="k"/>
            </operator>
          </operators>
        </workflow>"""
        with pytest.raises(WorkflowError, match=f"operator 'last': .*{message}") as exc:
            plan_xml(xml)
        # at the input parameter, or at the operator that has none
        assert str(exc.value).endswith(":11]" if input_param else ":10]")

    def test_directory_prefix_consumes_all_outputs(self):
        xml = """
        <workflow id="w"><arguments/>
          <operators>
            <operator id="sp" operator="Split">
              <param name="inputPath" value="/in"/>
              <param name="outputPathList" type="StringList" value="/tmp/sp/x,/tmp/sp/y"/>
              <param name="key" value="k"/>
              <param name="policy" value="{&gt;=, 5},{&lt;, 5}"/>
            </operator>
            <operator id="d" operator="Distribute">
              <param name="inputPath" value="/tmp/sp/"/>
              <param name="numPartitions" type="integer" value="2"/>
            </operator>
          </operators>
        </workflow>
        """
        plan = plan_xml(xml)
        assert plan.jobs[1].source == "sp"
        assert plan.jobs[1].source_outputs == [0, 1]

    def test_job_lookup(self):
        xml = """
        <workflow id="w"><arguments/>
          <operators>
            <operator id="s" operator="Sort"><param name="key" value="k"/></operator>
          </operators>
        </workflow>
        """
        plan = plan_xml(xml)
        assert plan.job("s").op_id == "s"
        with pytest.raises(WorkflowError):
            plan.job("nope")

    def test_num_reducers_attr_resolution(self):
        xml = """
        <workflow id="w">
          <arguments>
            <param name="nred" type="integer" value="5"/>
          </arguments>
          <operators>
            <operator id="s" operator="Sort" num_reducers="$nred">
              <param name="key" value="k"/>
            </operator>
          </operators>
        </workflow>
        """
        plan = plan_xml(xml)
        assert plan.jobs[0].num_reducers == 5

"""Planner unit tests: operator instantiation, dataflow wiring, errors, and
the jobs the minimal plan drops."""

import pytest

from repro.config import parse_workflow_config
from repro.core.planner import Planner
from repro.errors import WorkflowError


def plan_xml(xml, args=None):
    return Planner().plan(parse_workflow_config(xml), args or {})


def wire_xml(xml, args=None):
    """Every declared job, wired as declared (before the planner drops any)."""
    return Planner()._plan_every_job(parse_workflow_config(xml), args or {})


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
        plan = wire_xml(xml)
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
        plan = wire_xml(xml)
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


def sort_workflow(param):
    return f"""
    <workflow id="w"><arguments/>
      <operators>
        <operator id="s" operator="Sort">
          <param name="key" value="k"/>
          {param}
        </operator>
      </operators>
    </workflow>
    """


class TestSortDirection:
    """``ascending`` reads the boolean literals whether or not it is typed;
    ``flag`` is an integer; anything else is a located error."""

    @pytest.mark.parametrize("typed", [True, False], ids=["typed", "untyped"])
    @pytest.mark.parametrize("value, ascending", [
        ("yes", True), ("1", True), ("true", True),
        ("no", False), ("0", False), ("false", False),
    ])
    def test_ascending_literals(self, typed, value, ascending):
        kind = ' type="boolean"' if typed else ""
        plan = plan_xml(sort_workflow(f'<param name="ascending"{kind} value="{value}"/>'))
        assert plan.job("s").operator.ascending is ascending

    @pytest.mark.parametrize("typed", [True, False], ids=["typed", "untyped"])
    def test_an_unknown_ascending_word_is_a_located_error(self, typed):
        kind = ' type="boolean"' if typed else ""
        spec = parse_workflow_config(
            sort_workflow(f'<param name="ascending"{kind} value="maybe"/>'), filename="w.xml")
        with pytest.raises(WorkflowError) as exc:
            Planner().plan(spec)
        message = str(exc.value)
        assert "'s'" in message and "'ascending'" in message and "'maybe'" in message
        assert message.endswith("[w.xml:6]")

    @pytest.mark.parametrize("value, ascending", [("-1", True), ("1", False)])
    def test_flag_values(self, value, ascending):
        plan = plan_xml(sort_workflow(f'<param name="flag" value="{value}"/>'))
        assert plan.job("s").operator.ascending is ascending

    def test_a_non_integer_flag_is_a_located_error(self):
        spec = parse_workflow_config(
            sort_workflow('<param name="flag" value="up"/>'), filename="w.xml")
        with pytest.raises(WorkflowError, match=r"sort operator 's': parameter 'flag' "
                                                r"is 'up', not an integer .*\[w\.xml:6\]"):
            Planner().plan(spec)


def chain(*ops, args='<param name="n" type="integer" value="2"/>'):
    """A workflow of ``ops`` (id, kind, input, key, extra params), ending in
    a distribute of the last one's output."""
    body = []
    for op_id, kind, source, key, extra in ops:
        body.append(f"""
        <operator id="{op_id}" operator="{kind}">
          <param name="inputPath" value="{source}"/>
          <param name="outputPath" value="/t/{op_id}"/>
          <param name="key" value="{key}"/>{extra}
        </operator>""")
    return f"""
    <workflow id="w"><arguments>{args}</arguments>
      <operators>{"".join(body)}
        <operator id="d" operator="Distribute">
          <param name="inputPath" value="/t/{ops[-1][0]}"/>
          <param name="numPartitions" type="integer" value="$n"/>
        </operator>
      </operators>
    </workflow>
    """


DESC = '\n          <param name="ascending" value="false"/>'


class TestMinimalPlan:
    """The planner drops dead jobs and redundant exchanges (``elided``),
    re-pointing the readers, and keeps every shape it cannot prove."""

    def planned(self, xml):
        plan = plan_xml(xml)
        return ([(j.op_id, j.source) for j in plan.jobs],
                [(e.op_id, e.code) for e in plan.elided])

    def test_same_key_sort_sort_drops_the_first(self):
        xml = chain(("s1", "Sort", "/in", "k", ""), ("s2", "Sort", "/t/s1", "k", ""))
        assert self.planned(xml) == ([("s2", None), ("d", "s2")], [("s1", "PAP081")])

    def test_a_chain_of_sorts_collapses_to_the_last(self):
        xml = chain(("s1", "Sort", "/in", "k", DESC), ("s2", "Sort", "/t/s1", "k", DESC),
                    ("s3", "Sort", "/t/s2", "k", DESC))
        assert self.planned(xml) == ([("s3", None), ("d", "s3")],
                                     [("s1", "PAP081"), ("s2", "PAP081")])

    def test_sort_group_drops_the_sort(self):
        xml = chain(("s", "Sort", "/in", "k", DESC), ("g", "Group", "/t/s", "k", ""))
        assert self.planned(xml) == ([("g", None), ("d", "g")], [("s", "PAP081")])

    def test_flat_group_ascending_sort_drops_the_sort(self):
        xml = chain(("g", "Group", "/in", "k", ""), ("s", "Sort", "/t/g", "k", ""))
        assert self.planned(xml) == ([("g", None), ("d", "g")], [("s", "PAP081")])

    def test_dead_operators_and_dead_chains_are_dropped(self):
        xml = chain(("s", "Sort", "/in", "k", ""), ("x", "Sort", "/t/s", "j", ""),
                    ("y", "Group", "/t/x", "j", ""), ("t", "Sort", "/t/s", "j", ""))
        # the distribute reads t; x and y feed nothing it reads
        assert self.planned(xml) == ([("s", None), ("t", "s"), ("d", "t")],
                                     [("x", "PAP080"), ("y", "PAP080")])

    def test_a_dead_second_reader_is_dropped_before_the_pair_is_judged(self):
        """Every job reads one source, so the jobs the final job needs are
        one chain: once the dead reader ``x`` is gone, ``s1``'s output has
        one reader, and the same-key pair fuses."""
        xml = chain(("s1", "Sort", "/in", "k", ""), ("x", "Sort", "/t/s1", "j", ""),
                    ("s2", "Sort", "/t/s1", "k", ""))
        assert self.planned(xml) == ([("s2", None), ("d", "s2")],
                                     [("s1", "PAP081"), ("x", "PAP080")])

    @pytest.mark.parametrize("ops", [
        (("s1", "Sort", "/in", "j", ""), ("s2", "Sort", "/t/s1", "k", "")),
        (("s1", "Sort", "/in", "k", DESC), ("s2", "Sort", "/t/s1", "k", "")),
        (("s", "Sort", "/in", "j", ""), ("g", "Group", "/t/s", "k", "")),
        (("g", "Group", "/in", "k", ""), ("s", "Sort", "/t/g", "k", DESC)),
        (("g", "Group", "/in", "j", ""), ("s", "Sort", "/t/g", "k", "")),
    ], ids=["sorts-different-keys", "sorts-opposite-directions", "sort-group-different-keys",
            "group-descending-sort", "group-sort-different-keys"])
    def test_refused_shapes_plan_every_job(self, ops):
        jobs, elided = self.planned(chain(*ops))
        assert [op_id for op_id, _ in jobs] == [op[0] for op in ops] + ["d"]
        assert elided == []

    def test_a_packed_group_keeps_its_sort(self):
        xml = chain(("g", "Group", "/in", "k", ""), ("s", "Sort", "/t/g", "k", "")).replace(
            '<param name="outputPath" value="/t/g"/>',
            '<param name="outputPath" value="/t/g" format="pack"/>')
        assert self.planned(xml)[1] == []

    @pytest.mark.parametrize("value, elided", [("true", ["s1"]), ("false", [])])
    def test_a_direction_argument_is_read_with_its_value(self, value, elided):
        xml = chain(("s1", "Sort", "/in", "k", '\n          <param name="ascending" value="$up"/>'),
                    ("s2", "Sort", "/t/s1", "k", ""),
                    args='<param name="n" type="integer" value="2"/><param name="up"/>')
        plan = plan_xml(xml, {"up": value})
        assert [e.op_id for e in plan.elided] == elided

    def test_the_wired_plan_keeps_every_job(self):
        xml = chain(("s1", "Sort", "/in", "k", ""), ("s2", "Sort", "/t/s1", "k", ""))
        wired = wire_xml(xml)
        assert [(j.op_id, j.source) for j in wired.jobs] == [
            ("s1", None), ("s2", "s1"), ("d", "s2")]
        assert wired.elided == []

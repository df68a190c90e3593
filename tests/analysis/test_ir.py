"""Plan-IR construction: nodes, resolved params, edges, annotations."""

import pytest

from repro.analysis import Linter, parse_located
from repro.analysis.ir import EXCHANGE_KINDS, build_ir
from repro.analysis.model import LintContext, build_workflow_model

CHAIN = """<workflow id="chain">
  <arguments>
    <param name="input_path" type="hdfs" format="blast_db"/>
    <param name="parts" type="integer" value="4"/>
  </arguments>
  <operators>
    <operator id="sort" operator="Sort">
      <param name="inputPath" value="$input_path"/>
      <param name="outputPath" value="/tmp/sorted"/>
      <param name="key" value="seq_size"/>
    </operator>
    <operator id="distr" operator="Distribute">
      <param name="inputPath" value="$sort.outputPath"/>
      <param name="outputPath" value="/out"/>
      <param name="distrPolicy" value="roundRobin"/>
      <param name="numPartitions" value="$parts"/>
    </operator>
  </operators>
</workflow>"""

HYBRID = """<workflow id="hy">
  <arguments>
    <param name="input_file" type="hdfs" format="graph_edge"/>
  </arguments>
  <operators>
    <operator id="group" operator="Group">
      <param name="inputPath" value="$input_file"/>
      <param name="outputPath" value="/tmp/group" format="pack"/>
      <param name="key" value="vertex_b"/>
      <addon operator="count" key="vertex_b" attr="indegree"/>
    </operator>
    <operator id="split" operator="Split">
      <param name="inputPath" value="$group.outputPath"/>
      <param name="outputPathList" value="/tmp/split/hi,/tmp/split/lo"/>
      <param name="key" value="$group.$indegree"/>
      <param name="policy" value="{&gt;=, 5},{&lt;, 5}"/>
    </operator>
    <operator id="distr" operator="Distribute">
      <param name="inputPath" value="/tmp/split/"/>
      <param name="outputPath" value="/out"/>
      <param name="policy" value="graphVertexCut"/>
      <param name="numPartitions" value="3"/>
    </operator>
  </operators>
</workflow>"""


def make_ir(xml, args=None):
    model, diags = build_workflow_model(parse_located(xml), "t.xml")
    assert model is not None
    return build_ir(LintContext(filename=None, model=model, args=dict(args or {})))


class TestNodes:
    def test_nodes_in_document_order_with_kinds(self):
        ir = make_ir(CHAIN)
        assert [n.op_id for n in ir.nodes] == ["sort", "distr"]
        assert [n.kind for n in ir.nodes] == ["sort", "distribute"]
        assert [n.index for n in ir.nodes] == [0, 1]

    def test_exchange_annotations(self):
        ir = make_ir(HYBRID)
        assert {n.op_id: n.exchange for n in ir.nodes} == {
            "group": "range",
            "split": None,
            "distr": "position",
        }
        assert EXCHANGE_KINDS["sort"] == "range"

    def test_params_resolved_through_env(self):
        ir = make_ir(CHAIN, args={"input_path": "/data/db.index"})
        sort = ir.node("sort")
        assert sort.input == "/data/db.index"
        assert sort.params_resolved["inputPath"]
        distr = ir.node("distr")
        # $sort.outputPath resolves to the literal output path
        assert distr.input == "/tmp/sorted"
        # argument default flows into the param dict
        assert distr.param_value("numPartitions") == "4"
        assert distr.params_resolved["numPartitions"]

    def test_source_locations_carried(self):
        ir = make_ir(CHAIN)
        sort = ir.node("sort")
        assert sort.line == 7
        assert sort.input_line == 8
        assert sort.output_line == 9
        assert sort.op.param("key").line == 10

    def test_default_output_path(self):
        xml = CHAIN.replace('<param name="outputPath" value="/tmp/sorted"/>', "")
        ir = make_ir(xml)
        assert ir.node("sort").outputs == ["/tmp/sort"]


class TestEdges:
    def test_workflow_input_pseudo_edge(self):
        ir = make_ir(CHAIN, args={"input_path": "/data/db.index"})
        feeds = ir.in_edges("sort")
        assert len(feeds) == 1
        assert feeds[0].src is None

    def test_exact_path_edge(self):
        ir = make_ir(CHAIN)
        feeds = ir.in_edges("distr")
        assert [(e.src, e.src_output) for e in feeds] == [("sort", 0)]
        assert feeds[0].path == "/tmp/sorted"

    def test_directory_prefix_consumes_every_split_output(self):
        ir = make_ir(HYBRID)
        feeds = ir.in_edges("distr")
        assert sorted((e.src, e.src_output) for e in feeds) == [
            ("split", 0),
            ("split", 1),
        ]
        assert ir.consumed_outputs("split") == {0, 1}

    def test_graph_queries(self):
        ir = make_ir(HYBRID)
        assert {e.src for e in ir.in_edges("distr")} == {"split"}
        assert ir.final.op_id == "distr"

    @pytest.mark.parametrize("distr_input, source", [
        ("$sort.outputPath", "sort"),
        ("/tmp/", "sort"),           # a directory on a '/' boundary
        (None, "sort"),              # no input parameter: the previous job
        ("$input_path", None),
        ("/tmp/sort", None),         # a prefix of /tmp/sorted, not a directory
    ])
    def test_lint_and_plan_read_the_same_edges(self, distr_input, source):
        """The conftest invariant compares every in-edge with the plan."""
        line = '<param name="inputPath" value="$sort.outputPath"/>'
        new = "" if distr_input is None else line.replace("$sort.outputPath", distr_input)
        ctx, result = Linter().analyze(CHAIN.replace(line, new), filename="t.xml")
        assert ctx.plan is not None and ctx.plan.job("distr").source == source
        assert [e.src for e in ctx.ir().in_edges("distr")] == [source]
        assert ("PAP030" in result.codes()) == (source is None)

    def test_split_outputs_resolved(self):
        ir = make_ir(HYBRID)
        assert ir.node("split").outputs == ["/tmp/split/hi", "/tmp/split/lo"]


class TestContextMemoization:
    def test_ctx_ir_is_memoized(self):
        model, _ = build_workflow_model(parse_located(CHAIN), "t.xml")
        ctx = LintContext(filename="t.xml", model=model)
        assert ctx.ir() is ctx.ir()
        assert build_ir(ctx) is not ctx.ir()  # fresh build is a new object

    def test_no_model_no_ir(self):
        ctx = LintContext(filename="t.xml", model=None)
        assert ctx.ir() is None
        assert ctx.physical(spmd=True) is None

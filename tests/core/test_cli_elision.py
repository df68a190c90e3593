"""The plan the planner runs, over the CLI.

These tests drive the same entry point a user does (``repro.cli.main``):
``repro plan`` lists each job the planner drops, a fused sort -> sort
workflow runs as its one-sort form on every backend and still writes in
place, a direction the planner cannot read is one error line, a
distribute -> distribute chain is the wiring error PAP037 on every
backend, and ``lint --explain`` says the planner skips PAP080/PAP081
stages (PAP083 is retired).
"""

import json
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.formats import BLAST_INDEX_SCHEMA, write_binary
from tests.integration._shapes import DESCENDING, FUSED_SORTS, distr_op, sort_op, wf

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks"))
try:
    from apps.blast import generate_index
finally:
    sys.path.pop(0)

REPO = Path(__file__).resolve().parents[2]
WORKFLOW = str(REPO / "configs" / "blast_partition.xml")
INPUT_CFG = str(REPO / "configs" / "blast_db.xml")
ONE_SORT = wf(sort_op("sort2", "$input_path", "/user/s2")
              + distr_op("distr", "$sort2.outputPath", "$output_path"))


@pytest.fixture
def blast_file(tmp_path):
    index = generate_index("env_nr", num_sequences=300, seed=5)
    path = tmp_path / "db.index"
    write_binary(path, index, BLAST_INDEX_SCHEMA, header=b"\x00" * 32)
    return path


def workflow_file(tmp_path, name, text):
    path = tmp_path / f"{name}.xml"
    path.write_text(text)
    return str(path)


def command(verb, workflow, blast_file, out, *extra):
    return [verb, "--workflow", workflow, "--input-config", INPUT_CFG,
            "--arg", f"input_path={blast_file}", "--arg", f"output_path={out}", *extra]


class TestPlanAndRun:
    def test_plan_lists_each_elided_job(self, tmp_path, blast_file, capsys):
        fused = workflow_file(tmp_path, "fused", FUSED_SORTS)
        assert main(command("plan", fused, blast_file, tmp_path / "out")) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "workflow 't': 2 job(s)"
        assert out[1].startswith("  [0] sort2 (Sort) <- <workflow input>  -> /user/s2")
        assert out[3] == ("  elided: sort1 (PAP081 the second sort re-ranges every record; "
                          "the first sort's exchange is discarded)")
        assert len(out) == 4

    @pytest.mark.parametrize("workflow, schema, args", [
        ("blast_partition.xml", "blast_db.xml",
         ["input_path=/in", "output_path=/out", "num_partitions=4"]),
        ("hybrid_cut.xml", "graph_edge.xml",
         ["input_file=/in", "output_path=/out", "num_partitions=4", "threshold=30"]),
    ], ids=["blast", "hybrid"])
    def test_the_shipped_workflows_elide_nothing(self, capsys, workflow, schema, args):
        argv = ["plan", "--workflow", str(REPO / "configs" / workflow),
                "--input-config", str(REPO / "configs" / schema)]
        for arg in args:
            argv += ["--arg", arg]
        assert main(argv) == 0
        assert "elided:" not in capsys.readouterr().out

    @pytest.mark.parametrize("backend", ["serial", "mpi", "mapreduce", "process"])
    def test_the_fused_run_writes_the_one_sort_parts(self, tmp_path, blast_file, capsys,
                                                     backend):
        written = []
        for name, text in (("fused", FUSED_SORTS), ("one-sort", ONE_SORT)):
            out = tmp_path / f"out-{name}"
            argv = command("run", workflow_file(tmp_path, name, text), blast_file, out,
                           "--backend", backend, "--ranks", "1" if backend == "serial" else "2")
            assert main(argv) == 0
            written.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert len(written[0]) == 4 and written[0] == written[1]

    def test_the_fused_run_moves_the_bytes_of_one_sort_in_place(self, tmp_path, blast_file,
                                                                 capsys):
        stats = []
        for name, text in (("fused", FUSED_SORTS), ("one-sort", ONE_SORT)):
            argv = command("run", workflow_file(tmp_path, name, text), blast_file,
                           tmp_path / f"out-{name}", "--stats", "--backend", "mpi",
                           "--ranks", "4")
            assert main(argv) == 0
            out = capsys.readouterr().out.splitlines()
            assert out[-1].startswith("  output: written in place by ranks (4 parts, ")
            stats.append(next(line for line in out if line.startswith("stats: ")))
        moved = [line.split(" shuffled payload")[0] for line in stats]
        assert moved[0] == moved[1]

    @pytest.mark.parametrize("param", [
        '<param name="ascending" value="maybe"/>', '<param name="flag" value="up"/>'])
    def test_a_bad_direction_is_one_error_line(self, tmp_path, blast_file, capsys, param):
        text = FUSED_SORTS.replace(
            '<param name="outputPath" value="/user/s1"/>',
            f'<param name="outputPath" value="/user/s1"/>\n    {param}')
        workflow = workflow_file(tmp_path, "bad", text)
        out = tmp_path / "out"
        assert main(command("run", workflow, blast_file, out, "--no-lint")) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: sort operator 'sort1': parameter ")
        line = text.splitlines().index(f"    {param}") + 1
        assert err[0].endswith(f"[{workflow}:{line}]")
        assert not out.exists()

    def test_a_descending_pair_fuses_too(self, tmp_path, blast_file, capsys):
        text = FUSED_SORTS.replace("    \n  </operator>", f"    {DESCENDING}\n  </operator>")
        assert text.count(DESCENDING) == 2
        workflow = workflow_file(tmp_path, "desc", text)
        assert main(command("plan", workflow, blast_file, tmp_path / "out")) == 0
        assert "  elided: sort1 (PAP081 " in capsys.readouterr().out


class TestAnalysisVerbs:
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_a_broken_config_is_reported_like_lint_and_explain(self, tmp_path, capsys, fmt):
        """A duplicated ``<param>``: every analysis verb prints its own
        document and exits 1."""
        text = Path(WORKFLOW).read_text().replace(
            '<param name="key"', '<param name="key" type="KeyId" value="seq_size"/>\n'
            '      <param name="key"', 1)
        workflow = tmp_path / "dup.xml"
        workflow.write_text(text)
        argv = [str(workflow), "--input", INPUT_CFG, "--format", fmt]
        outputs = {}
        for verb in ("lint", "explain"):
            assert main([verb, *argv]) == 1
            outputs[verb] = capsys.readouterr().out
        assert "declares parameter 'key' twice" in outputs["lint"]
        if fmt == "json":
            assert json.loads(outputs["explain"])["summary"]["errors"] == 1
        else:
            assert outputs["explain"].endswith("  1 error(s), 0 warning(s), 0 info\n")


def distribute_chain(tmp_path, *policies):
    """A workflow of back-to-back 4-partition distributes, one per policy."""
    ops, source = [], "$input_path"
    for i, policy in enumerate(policies):
        out = "$output_path" if i == len(policies) - 1 else f"/tmp/d{i}"
        ops.append(f"""
    <operator id="d{i}" operator="Distribute">
      <param name="inputPath" value="{source}"/>
      <param name="outputPath" value="{out}"/>
      <param name="distrPolicy" value="{policy}"/>
      <param name="numPartitions" type="integer" value="4"/>
    </operator>""")
        source = f"$d{i}.outputPath"
    path = tmp_path / f"{'-'.join(policies)}.xml"
    path.write_text(f"""<workflow id="chain" name="chain">
  <arguments>
    <param name="input_path" type="String" format="blast_db"/>
    <param name="output_path" type="String"/>
  </arguments>
  <operators>{"".join(ops)}
  </operators>
</workflow>""")
    return str(path)


def run_parts(workflow, blast_file, out, backend="serial"):
    assert main(["run", "--workflow", workflow, "--input-config", INPUT_CFG,
                 "--arg", f"input_path={blast_file}", "--arg", f"output_path={out}",
                 "--backend", backend, "--ranks", "2"]) == 0
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


class TestDistributeChain:
    """block(4) -> cyclic(4) is not one cyclic(4) distribute, and no backend
    feeds a Distribute's partitions to a later job: the chain is the located
    wiring error PAP037."""

    def test_no_advisory_and_not_one_distribute(self, tmp_path, capsys):
        chain = distribute_chain(tmp_path, "block", "cyclic")
        assert main(["lint", chain, "--input", INPUT_CFG, "--format", "json"]) == 1
        lint = json.loads(capsys.readouterr().out)
        codes = {d["code"] for d in lint["diagnostics"]}
        assert "PAP082" not in codes and "PAP037" in codes
        assert "PAP080" not in codes and "PAP081" not in codes
        assert main(["lint", "--explain", "PAP082"]) == 2
        assert "unknown rule 'PAP082'" in capsys.readouterr().err

    @pytest.mark.parametrize("gate", [[], ["--no-lint"]], ids=["gate", "no-lint"])
    @pytest.mark.parametrize("backend", ["serial", "mpi", "process"])
    def test_run_rejects_the_chain_before_writing(
        self, tmp_path, blast_file, capsys, backend, gate
    ):
        chain = distribute_chain(tmp_path, "block", "cyclic")
        out = tmp_path / "out"
        assert main(["run", "--workflow", chain, "--input-config", INPUT_CFG,
                     "--arg", f"input_path={blast_file}", "--arg", f"output_path={out}",
                     "--backend", backend, "--ranks", "2", *gate]) == 2
        err = capsys.readouterr().err
        assert "operator 'd1': input '/tmp/d0' reads the partitions of distribute 'd0'" in err
        # located at d1's inputPath
        assert f"{chain}:14" in err
        assert not out.exists()


class TestLintExplainAdvisories:
    @pytest.mark.parametrize("code", ["PAP080", "PAP081"])
    def test_explain_says_the_planner_skips_it(self, capsys, code):
        assert main(["lint", "--explain", code]) == 0
        out = capsys.readouterr().out
        assert "good: the planner skips it" in out

    def test_explain_pap083_is_an_unknown_rule(self, capsys):
        """PAP083 is retired: its only fix would have changed the part files."""
        assert main(["lint", "--explain", "PAP083"]) == 2
        assert "unknown rule 'PAP083'" in capsys.readouterr().err

    def test_explain_pap084_points_at_the_planner(self, capsys):
        assert main(["lint", "--explain", "PAP084"]) == 0
        out = capsys.readouterr().out
        assert "the planner skips the hotspot" in out
        assert "pruning" not in out

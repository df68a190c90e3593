"""`papar optimize` and the `--optimize` flags, end to end over the CLI.

These tests drive the same entry point a user does (``repro.cli.main``)
on the shipped configurations: the optimize report in text and JSON, the
``plan --optimize`` preamble, ``run --optimize`` writing bit-identical
part files in place, a distribute -> distribute chain left alone (no
advisory, no rewrite), and ``lint --explain`` teaching the applied
rewrite for every structural PAP08x code (PAP083 is an advisory only).
"""

import json
from pathlib import Path

import pytest

from repro.blast import generate_index
from repro.cli import main
from repro.formats import BLAST_INDEX_SCHEMA, write_binary

REPO = Path(__file__).resolve().parents[2]
WORKFLOW = str(REPO / "configs" / "blast_partition.xml")
INPUT_CFG = str(REPO / "configs" / "blast_db.xml")


@pytest.fixture
def blast_file(tmp_path):
    index = generate_index("env_nr", num_sequences=300, seed=5)
    path = tmp_path / "db.index"
    write_binary(path, index, BLAST_INDEX_SCHEMA, header=b"\x00" * 32)
    return path


def optimize_args(extra=()):
    return ["optimize", WORKFLOW, "--input", INPUT_CFG,
            "--assume-records", "1000"] + list(extra)


class TestOptimizeCommand:
    def test_text_report_on_shipped_blast(self, capsys):
        assert main(optimize_args()) == 0
        out = capsys.readouterr().out
        assert "optimize workflow 'blast_partition'" in out
        assert "0 rewrite(s) applied, 0 exchange(s) removed\n" in out
        assert "plan already minimal: no rewrite fired" in out
        assert "PAP083" in out  # the advisory, in the explain dumps
        assert "== original plan ==" in out
        assert "== optimized plan ==" in out

    def test_json_report_on_shipped_blast(self, capsys):
        assert main(optimize_args(["--format", "json"])) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == 2
        assert doc["tool"] == "papar-optimize"
        assert doc["workflow"] == "blast_partition"
        summary = doc["summary"]
        # the shipped pipeline is structurally minimal: nothing fires
        assert summary["changed"] is False
        assert summary["passes_fired"] == []
        assert summary["rewrites"] == []
        assert "pruning" not in summary
        assert summary["est_bytes_after"] == summary["est_bytes_before"]

    def test_hybrid_cut_is_already_minimal(self, capsys):
        rc = main([
            "optimize", str(REPO / "configs" / "hybrid_cut.xml"),
            "--input", str(REPO / "configs" / "graph_edge.xml"),
            "--assume-records", "1000", "--format", "json",
        ])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["summary"]["changed"] is False
        assert doc["summary"]["rewrites"] == []

    def test_memory_budget_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(optimize_args(["--memory-budget", "64MB"]))
        assert exc.value.code == 2
        assert "unrecognized arguments: --memory-budget" in capsys.readouterr().err


class TestPlanRunOptimize:
    def base_args(self, blast_file, tmp_path):
        return [
            "--workflow", WORKFLOW,
            "--input-config", INPUT_CFG,
            "--arg", f"input_path={blast_file}",
            "--arg", f"output_path={tmp_path / 'out'}",
            "--arg", "num_partitions=4",
        ]

    def test_plan_optimize_prints_summary(self, blast_file, tmp_path, capsys):
        rc = main(["plan"] + self.base_args(blast_file, tmp_path) + ["--optimize"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "optimizer: 0 rewrite(s), 0 exchange(s) removed\n" in out
        assert "2 job(s)" in out

    @pytest.mark.parametrize("backend", ["serial", "mpi", "mapreduce", "process"])
    def test_run_optimize_bit_identical_part_files(
        self, blast_file, tmp_path, capsys, backend
    ):
        plain_dir = tmp_path / "plain"
        opt_dir = tmp_path / "opt"
        base = [
            "--workflow", WORKFLOW,
            "--input-config", INPUT_CFG,
            "--arg", f"input_path={blast_file}",
            "--arg", "num_partitions=4",
            "--backend", backend, "--ranks", "2",
        ]
        assert main(["run"] + base + ["--arg", f"output_path={plain_dir}"]) == 0
        assert main(["run"] + base + ["--arg", f"output_path={opt_dir}",
                                      "--optimize"]) == 0
        plain = sorted(p.name for p in plain_dir.iterdir())
        assert plain == sorted(p.name for p in opt_dir.iterdir())
        for name in plain:
            assert (plain_dir / name).read_bytes() == (opt_dir / name).read_bytes()

    def test_run_optimize_stats_write_in_place(self, blast_file, tmp_path, capsys):
        rc = main(
            ["run"] + self.base_args(blast_file, tmp_path)
            + ["--optimize", "--stats", "--backend", "mpi", "--ranks", "4"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "wrote 4 partition(s)" in out
        assert "optimizer: passes fired: none; " in out
        assert "PAP083" not in out
        assert "measured shuffle payload:" in out
        assert out.splitlines()[-1].startswith("  output: written in place by ranks (4 parts, ")


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
    """block(4) -> cyclic(4) is not one cyclic(4) distribute, whatever the
    stride-permutation algebra says; the analyzer no longer claims it is."""

    def test_no_advisory_no_rewrite_and_not_one_distribute(
        self, tmp_path, blast_file, capsys
    ):
        chain = distribute_chain(tmp_path, "block", "cyclic")
        assert main(["lint", chain, "--input", INPUT_CFG, "--format", "json"]) == 0
        lint = json.loads(capsys.readouterr().out)
        assert "PAP082" not in {d["code"] for d in lint["diagnostics"]}
        assert main(["optimize", chain, "--input", INPUT_CFG,
                     "--assume-records", "300", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["summary"]["passes_fired"] == []
        assert doc["after"]["operators"] == doc["before"]["operators"]
        single = distribute_chain(tmp_path, "cyclic")
        assert (run_parts(chain, blast_file, tmp_path / "chain")
                != run_parts(single, blast_file, tmp_path / "single"))
        assert main(["lint", "--explain", "PAP082"]) == 2
        assert "unknown rule 'PAP082'" in capsys.readouterr().err

    @pytest.mark.xfail(strict=True, reason="a job reading a Distribute's "
                       "output gets only partition 0 of it on serial")
    def test_chain_keeps_every_record(self, tmp_path, blast_file):
        chain = distribute_chain(tmp_path, "block", "cyclic")
        parts = run_parts(chain, blast_file, tmp_path / "chain")
        assert sum(map(len, parts.values())) == 300 * BLAST_INDEX_SCHEMA.itemsize

    @pytest.mark.xfail(strict=True, raises=AttributeError,
                       reason="the SPMD runtimes crash on a job reading a "
                       "Distribute's {partition: Dataset} output")
    @pytest.mark.parametrize("backend", ["mpi", "process"])
    def test_spmd_parts_equal_serial(self, tmp_path, blast_file, backend):
        chain = distribute_chain(tmp_path, "block", "cyclic")
        assert (run_parts(chain, blast_file, tmp_path / backend, backend)
                == run_parts(chain, blast_file, tmp_path / "serial"))


class TestLintExplainAdvisories:
    @pytest.mark.parametrize("code", ["PAP080", "PAP081"])
    def test_explain_shows_applied_rewrite(self, capsys, code):
        assert main(["lint", "--explain", code]) == 0
        out = capsys.readouterr().out
        assert "applied rewrite" in out

    def test_explain_pap083_is_advisory_only(self, capsys):
        assert main(["lint", "--explain", "PAP083"]) == 0
        out = capsys.readouterr().out
        assert "Advisory only: no optimizer pass applies it." in out
        assert "applied rewrite" not in out
        assert "--optimize" not in out

    def test_explain_pap084_points_at_optimizer(self, capsys):
        assert main(["lint", "--explain", "PAP084"]) == 0
        out = capsys.readouterr().out
        assert "papar optimize" in out
        assert "pruning" not in out

"""The CLI observability flags: --trace / --metrics / --timeline round-trip."""

import json

import pytest

from repro.blast import generate_index
from repro.cli import main
from repro.config import BLAST_INPUT_XML
from repro.config.examples import BLAST_WORKFLOW_XML
from repro.formats import BLAST_INDEX_SCHEMA, write_binary
from repro.obs import METRICS_VERSION


@pytest.fixture
def config_files(tmp_path):
    index = generate_index("env_nr", num_sequences=200, seed=2)
    data_path = tmp_path / "db.index"
    write_binary(data_path, index, BLAST_INDEX_SCHEMA, header=b"\x00" * 32)
    input_cfg = tmp_path / "blast_db.xml"
    input_cfg.write_text(BLAST_INPUT_XML)
    wf_cfg = tmp_path / "workflow.xml"
    wf_cfg.write_text(BLAST_WORKFLOW_XML)
    return input_cfg, wf_cfg, data_path


def base_args(config_files, tmp_path):
    input_cfg, wf_cfg, data_path = config_files
    return [
        "run",
        "--input-config", str(input_cfg),
        "--workflow", str(wf_cfg),
        "--arg", f"input_path={data_path}",
        "--arg", f"output_path={tmp_path / 'out'}",
        "--arg", "num_partitions=3",
        "--backend", "mpi", "--ranks", "2",
    ]


class TestCLIObservability:
    def test_trace_and_metrics_round_trip(self, config_files, tmp_path, capsys):
        trace = tmp_path / "t.json"
        metrics = tmp_path / "m.json"
        rc = main(base_args(config_files, tmp_path)
                  + ["--trace", str(trace), "--metrics", str(metrics)])
        assert rc == 0
        out = capsys.readouterr().out
        assert f"wrote trace {trace}" in out
        assert f"wrote metrics {metrics}" in out

        doc = json.loads(trace.read_text())
        events = doc["traceEvents"]
        assert {e["ph"] for e in events} <= {"X", "i", "M"}
        assert {e["pid"] for e in events if e["ph"] == "X" and e["cat"] == "job"} == {0, 1}
        assert all(e["dur"] >= 0 for e in events if e["ph"] == "X")

        m = json.loads(metrics.read_text())
        assert m["schema"] == "papar.metrics"
        assert m["version"] == METRICS_VERSION
        assert m["counters"]["comm.sent_bytes"]["total"] > 0
        assert m["run"]["backend"] == "mpi"
        assert m["run"]["ranks"] == 2
        assert m["run"]["partitions"] == 3

    def test_the_run_is_measured_from_its_plan(self, config_files, tmp_path, capsys):
        """The reported makespan is the plan span's wall duration: the
        imports and input read before the plan are not the run's time."""
        trace = tmp_path / "t.json"
        metrics = tmp_path / "m.json"
        args = base_args(config_files, tmp_path)
        args[args.index("--ranks") + 1] = "4"
        rc = main(args + ["--trace", str(trace), "--metrics", str(metrics), "--timeline"])
        assert rc == 0
        out = capsys.readouterr().out
        (plan,) = [e for e in json.loads(trace.read_text())["traceEvents"]
                   if e["ph"] == "X" and e["cat"] == "plan"]
        plan_s = plan["dur"] / 1e6
        makespan = json.loads(metrics.read_text())["spans"]["makespan_wall_s"]
        assert makespan == pytest.approx(plan_s, abs=1e-3)
        assert f"makespan {makespan:.6f}s" in out

    def test_timeline_printed(self, config_files, tmp_path, capsys):
        rc = main(base_args(config_files, tmp_path) + ["--timeline"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "timeline (" in out
        assert "critical path" in out
        assert "legend:" in out

    def test_forked_ranks_get_gantt_bars(self, config_files, tmp_path, capsys):
        args = base_args(config_files, tmp_path)
        args[args.index("--backend") + 1] = "process"
        rc = main(args + ["--timeline"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "(no rank spans recorded)" not in out
        for rank in (0, 1):
            (bar,) = [line for line in out.splitlines() if line.startswith(f"  rank   {rank} |")]
            assert bar.split("|")[1].strip(), f"rank {rank} has an empty bar"

    def test_flags_off_means_no_artifacts_mentioned(self, config_files, tmp_path, capsys):
        rc = main(base_args(config_files, tmp_path))
        assert rc == 0
        out = capsys.readouterr().out
        assert "wrote trace" not in out
        assert "timeline (" not in out

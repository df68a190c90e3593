"""File-based partitioning and the command-line driver."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import PaPar
from repro.cli import main
from repro.config import BLAST_INPUT_XML, EDGE_INPUT_XML
from repro.config.examples import BLAST_WORKFLOW_XML, HYBRID_CUT_WORKFLOW_XML
from repro.core.files import find_io_arguments
from repro.errors import WorkflowError
from repro.formats import BLAST_INDEX_SCHEMA, read_binary, write_binary, write_text

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks"))
try:
    from apps.blast import generate_index, mublastp_partition
finally:
    sys.path.pop(0)


@pytest.fixture
def blast_index_file(tmp_path):
    index = generate_index("env_nr", num_sequences=200, seed=2)
    path = tmp_path / "db.index"
    write_binary(path, index, BLAST_INDEX_SCHEMA, header=b"\x00" * 32)
    return path, index


@pytest.fixture
def papar():
    p = PaPar()
    p.register_input(BLAST_INPUT_XML)
    p.register_input(EDGE_INPUT_XML)
    return p


class TestPartitionFiles:
    def test_binary_roundtrip_matches_native(self, papar, blast_index_file, tmp_path):
        path, index = blast_index_file
        out_dir = tmp_path / "parts"
        result = papar.partition_files(
            BLAST_WORKFLOW_XML,
            {"input_path": str(path), "output_path": str(out_dir), "num_partitions": 4},
        )
        assert len(result.output_paths) == 4
        native = mublastp_partition(index, 4, policy="cyclic")
        for file_path, expected in zip(result.output_paths, native):
            back = read_binary(file_path, BLAST_INDEX_SCHEMA)
            np.testing.assert_array_equal(back, expected)

    def test_text_workflow_files(self, papar, tmp_path):
        edges = [(2, 1), (3, 1), (4, 1), (5, 1), (1, 2), (3, 2), (1, 6)]
        in_path = tmp_path / "edges.txt"
        from repro.formats import EDGE_LIST_SCHEMA

        write_text(in_path, edges, EDGE_LIST_SCHEMA)
        out_dir = tmp_path / "parts"
        result = papar.partition_files(
            HYBRID_CUT_WORKFLOW_XML,
            {
                "input_file": str(in_path),
                "output_path": str(out_dir),
                "num_partitions": 3,
                "threshold": 4,
            },
        )
        assert len(result.output_paths) == 3
        # output lines carry the indegree attribute added by the count add-on
        content = (out_dir / "part-00000").read_text()
        first_line = content.splitlines()[0]
        assert len(first_line.split("\t")) == 3

    def test_missing_path_args_rejected(self, papar):
        with pytest.raises(WorkflowError, match="needs"):
            papar.partition_files(BLAST_WORKFLOW_XML, {"num_partitions": 2})

    def test_find_io_arguments(self, papar):
        spec = papar.load_workflow(BLAST_WORKFLOW_XML)
        assert find_io_arguments(spec) == ("input_path", "output_path")

    def test_find_io_arguments_missing(self, papar):
        spec = papar.load_workflow(
            "<workflow id='x'><operators>"
            "<operator id='a' operator='Sort'><param name='key' value='k'/></operator>"
            "</operators></workflow>"
        )
        with pytest.raises(WorkflowError, match="path arguments"):
            find_io_arguments(spec)


class TestCLI:
    @pytest.fixture
    def config_files(self, tmp_path, blast_index_file):
        path, index = blast_index_file
        input_cfg = tmp_path / "blast_db.xml"
        input_cfg.write_text(BLAST_INPUT_XML)
        wf_cfg = tmp_path / "workflow.xml"
        wf_cfg.write_text(BLAST_WORKFLOW_XML)
        return input_cfg, wf_cfg, path, index

    def base_args(self, config_files, tmp_path):
        input_cfg, wf_cfg, data_path, _ = config_files
        return [
            "--input-config", str(input_cfg),
            "--workflow", str(wf_cfg),
            "--arg", f"input_path={data_path}",
            "--arg", f"output_path={tmp_path / 'out'}",
            "--arg", "num_partitions=3",
        ]

    def test_plan_command(self, config_files, tmp_path, capsys):
        assert main(["plan"] + self.base_args(config_files, tmp_path)) == 0
        out = capsys.readouterr().out
        assert "2 job(s)" in out
        assert "sort (Sort)" in out
        assert "distr (Distribute)" in out

    def test_codegen_command_to_file(self, config_files, tmp_path, capsys):
        out_file = tmp_path / "partitioner.py"
        rc = main(
            ["codegen"] + self.base_args(config_files, tmp_path) + ["-o", str(out_file)]
        )
        assert rc == 0
        source = out_file.read_text()
        compile(source, str(out_file), "exec")
        assert "blast_partition" in source

    def test_codegen_command_to_stdout(self, config_files, tmp_path, capsys):
        assert main(["codegen"] + self.base_args(config_files, tmp_path)) == 0
        assert "def run(" in capsys.readouterr().out

    @pytest.mark.parametrize("backend", ["serial", "mpi", "mapreduce"])
    def test_run_command(self, config_files, tmp_path, capsys, backend):
        rc = main(
            ["run"] + self.base_args(config_files, tmp_path)
            + ["--backend", backend, "--ranks", "1" if backend == "serial" else "2"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "wrote 3 partition(s)" in out
        _, _, _, index = config_files
        native = mublastp_partition(index, 3, policy="cyclic")
        back = read_binary(tmp_path / "out" / "part-00001", BLAST_INDEX_SCHEMA)
        np.testing.assert_array_equal(back, native[1])

    def test_run_process_gang_restart(self, config_files, tmp_path, capsys):
        """End-to-end CLI chaos: a --crash-agent kill must be survived via
        --checkpoint-dir / --max-attempts gang-restart, with the classified
        crash in the printed fault report."""
        marker = tmp_path / "crash-fired"
        rc = main(
            ["run"] + self.base_args(config_files, tmp_path) + [
                "--backend", "process", "--ranks", "2",
                "--checkpoint-dir", str(tmp_path / "ckpt"),
                "--max-attempts", "3",
                "--crash-agent", f"kill:rank=1,job=1,marker={marker}",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "wrote 3 partition(s)" in out
        assert "fault tolerance: 2 attempt(s)" in out
        assert "s wall" in out
        assert "crash: attempt 1 rank 1 signal (SIGKILL)" in out
        assert marker.exists()
        import os

        assert "PAPAR_CRASH_AGENT" not in os.environ
        _, _, _, index = config_files
        native = mublastp_partition(index, 3, policy="cyclic")
        back = read_binary(tmp_path / "out" / "part-00001", BLAST_INDEX_SCHEMA)
        np.testing.assert_array_equal(back, native[1])

    def test_run_bad_crash_agent_spec(self, config_files, tmp_path, capsys):
        rc = main(
            ["run"] + self.base_args(config_files, tmp_path) + [
                "--backend", "process", "--ranks", "2",
                "--crash-agent", "explode:rank=1",
            ]
        )
        assert rc == 2
        assert "crash-agent" in capsys.readouterr().err

    def test_bad_arg_pair(self, config_files, tmp_path, capsys):
        rc = main(
            ["plan"] + self.base_args(config_files, tmp_path) + ["--arg", "oops"]
        )
        assert rc == 2
        assert "name=value" in capsys.readouterr().err

    def test_subprocess_entry_point(self, config_files, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "plan"] + self.base_args(config_files, tmp_path),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "2 job(s)" in proc.stdout

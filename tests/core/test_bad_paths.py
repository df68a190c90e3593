"""A missing or unreadable path ends every command in one ``error:`` line.

The configuration loaders classify a file they cannot read as a
``ConfigError`` and the input loader as a ``FormatError``, both naming the
path, so the CLI prints one line and exits 2 — never a traceback.
"""

import os
import subprocess
import sys

import pytest

from repro.blast import generate_index
from repro.cli import main
from repro.formats import BLAST_INDEX_SCHEMA, write_binary

#: every command that reads the two configuration files
COMMANDS = ("lint", "explain", "plan", "codegen", "run", "serve")


@pytest.fixture
def files(pytestconfig, tmp_path):
    configs = pytestconfig.rootpath / "configs"
    index = tmp_path / "db.index"
    write_binary(index, generate_index("env_nr", num_sequences=50, seed=1),
                 BLAST_INDEX_SCHEMA, header=b"\x00" * 32)
    return {
        "workflow": str(configs / "blast_partition.xml"),
        "input config": str(configs / "blast_db.xml"),
        "input file": str(index),
        "missing": str(tmp_path / "nonexistent.xml"),
        "directory": str(tmp_path),
        "out": str(tmp_path / "out"),
    }


def argv(command, files, workflow, input_config, input_file):
    """The command line of ``command`` over the three given paths."""
    args = ["--arg", f"input_path={input_file}", "--arg", f"output_path={files['out']}",
            "--arg", "num_partitions=2"]
    if command in ("lint", "explain"):
        return [command, workflow, "--input", input_config, *args]
    return [command, "--workflow", workflow, "--input-config", input_config, *args,
            *(["--port", "0"] if command == "serve" else [])]


def assert_one_error_line(err, bad_path):
    lines = err.strip().splitlines()
    assert len(lines) == 1, err
    assert lines[0].startswith("error: ") and repr(bad_path) in lines[0], err
    assert "Traceback" not in err


@pytest.mark.parametrize("bad", ["missing", "directory"])
@pytest.mark.parametrize("which", ["workflow", "input config"])
@pytest.mark.parametrize("command", COMMANDS)
def test_an_unreadable_configuration(command, which, bad, files, capsys):
    paths = {k: files[k] for k in ("workflow", "input config", "input file")}
    paths[which] = files[bad]
    assert main(argv(command, files, *paths.values())) == 2
    captured = capsys.readouterr()
    assert_one_error_line(captured.err, files[bad])
    assert "cannot read configuration" in captured.err


@pytest.mark.parametrize("bad", ["missing", "directory"])
@pytest.mark.parametrize("command", ["run", "serve"])
def test_an_unreadable_input_file(command, bad, files, capsys):
    line = argv(command, files, files["workflow"], files["input config"], files[bad])
    assert main(line) == 2
    captured = capsys.readouterr()
    assert_one_error_line(captured.err, files[bad])
    assert "cannot read input file" in captured.err
    assert not os.path.exists(files["out"])


def test_a_real_process_prints_no_traceback(files, pytestconfig):
    line = argv("serve", files, files["workflow"], files["input config"], files["missing"])
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *line], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(pytestconfig.rootpath / "src")}, timeout=120,
    )
    assert proc.returncode == 2
    assert_one_error_line(proc.stderr, files["missing"])

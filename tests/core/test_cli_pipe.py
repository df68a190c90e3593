"""A reader that stops early (``repro explain ... | head -1``) ends the
command quietly: exit 1, nothing on stderr, no ``BrokenPipeError``
traceback.

The child writes into a one-page pipe, so its report cannot fit: after the
test reads the first line and closes the read end, the child's next write
fails with ``EPIPE`` every time, not only when a race goes one way.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

fcntl = pytest.importorskip("fcntl")

REPO = Path(__file__).resolve().parents[2]
INPUT_CFG = str(REPO / "configs" / "blast_db.xml")


def long_workflow(stages=40):
    """Sorts on alternating keys (nothing to rewrite) feeding one deal: a
    plan whose JSON report runs to tens of KB."""
    ops, source = [], "$input_path"
    for i in range(stages):
        key = ("seq_size", "seq_start")[i % 2]
        ops.append(
            f'<operator id="s{i}" operator="Sort">'
            f'<param name="key" type="KeyId" value="{key}"/>'
            f'<param name="inputPath" value="{source}"/>'
            f'<param name="outputPath" value="/tmp/s{i}"/></operator>'
        )
        source = f"$s{i}.outputPath"
    ops.append(
        '<operator id="distr" operator="Distribute">'
        f'<param name="inputPath" value="{source}"/>'
        '<param name="outputPath" value="$output_path"/>'
        '<param name="distrPolicy" value="cyclic"/>'
        '<param name="numPartitions" type="integer" value="4"/></operator>'
    )
    return (
        '<workflow id="long" name="long"><arguments>'
        '<param name="input_path" type="String" format="blast_db"/>'
        '<param name="output_path" type="String"/>'
        f'</arguments><operators>{"".join(ops)}</operators></workflow>'
    )


@pytest.mark.parametrize("command", ["explain"])
def test_a_closed_stdout_pipe_exits_quietly(tmp_path, command):
    workflow = tmp_path / "long.xml"
    workflow.write_text(long_workflow())
    read_fd, write_fd = os.pipe()
    try:
        fcntl.fcntl(write_fd, fcntl.F_SETPIPE_SZ, 4096)
    except (AttributeError, OSError):
        os.close(read_fd)
        os.close(write_fd)
        pytest.skip("cannot shrink a pipe on this platform")
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", command, str(workflow),
         "--input", INPUT_CFG, "--format", "json"],
        stdout=write_fd, stderr=subprocess.PIPE, env=env,
    )
    os.close(write_fd)
    first = b""
    while not first.endswith(b"\n"):
        byte = os.read(read_fd, 1)
        if not byte:
            break
        first += byte
    os.close(read_fd)
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert first == b"{\n"
    assert b"Traceback" not in stderr
    assert stderr == b""


def test_a_broken_pipe_that_is_not_stdout_still_raises(monkeypatch):
    """A worker's or a socket's closed pipe is a failure, not a reader
    that stopped early: stdout still has its reader here."""
    from repro import cli

    def lost_worker(ns):
        raise BrokenPipeError(32, "Broken pipe")

    read_fd, write_fd = os.pipe()
    with os.fdopen(read_fd, "rb"), os.fdopen(write_fd, "w") as stdout:
        monkeypatch.setattr(sys, "stdout", stdout)
        monkeypatch.setattr("repro.commands.codegen.cmd_codegen", lost_worker)
        with pytest.raises(BrokenPipeError):
            cli.main(["codegen", "--workflow", "wf.xml"])

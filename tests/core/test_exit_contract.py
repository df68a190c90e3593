"""How ``python -m repro`` ends: a one-shot command leaves at its last write.

``repro/__main__.py`` ends ``lint``/``explain``/``plan``/``codegen``/``run``
by running the ``atexit`` handlers, flushing stdout and stderr and calling
``os._exit`` — no interpreter teardown.  These children pin what that must
not change: the bytes a reader gets, the exit codes and messages, the spill
directory, the shared memory and the rank processes a run releases itself,
and handlers a caller registered before ``runpy``.
"""

import glob
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.formats import BLAST_INDEX_SCHEMA, write_binary

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks"))
try:
    from apps.blast import generate_index
finally:
    sys.path.pop(0)

REPO = Path(__file__).resolve().parents[2]
WORKFLOW = str(REPO / "configs" / "blast_partition.xml")
INPUT_CFG = str(REPO / "configs" / "blast_db.xml")

#: runs ``python -m repro`` the way a wrapper would: ``argv[1]`` is Python
#: to execute first, the rest is the command line
BOOT = """\
import runpy, sys
exec(sys.argv[1])
sys.argv = ["repro"] + sys.argv[2:]
runpy.run_module("repro", run_name="__main__", alter_sys=True)
"""


def env(**extra):
    """The children's environment: ``PYTHONPATH=src`` and, whatever this
    process runs with, a block-buffered stdout (Python's default on a pipe)."""
    base = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return {**base, "PYTHONPATH": str(REPO / "src"), **extra}


def child(*argv, prelude=None, **kwargs):
    """One ``python -m repro`` (or, with ``prelude``, ``BOOT``) child, piped."""
    cmd = ([sys.executable, "-m", "repro"] if prelude is None
           else [sys.executable, "-c", BOOT, prelude])
    return subprocess.run([*cmd, *map(str, argv)], capture_output=True, text=True,
                          timeout=300, **{"env": env(), **kwargs})


@pytest.fixture(scope="module")
def blast_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("exit") / "db.index"
    write_binary(path, generate_index("env_nr", num_sequences=3000, seed=5),
                 BLAST_INDEX_SCHEMA, header=b"\x00" * 32)
    return path


def run_args(blast_file, out, partitions=8):
    return ["--workflow", WORKFLOW, "--input-config", INPUT_CFG,
            "--arg", f"input_path={blast_file}", "--arg", f"output_path={out}",
            "--arg", f"num_partitions={partitions}"]


def parts(out):
    return {p.name: p.read_bytes() for p in sorted(Path(out).glob("part-*"))}


def walls(text):
    """``text`` with the wall-clock figures of ``--stats`` masked."""
    return re.sub(r"\d+\.\d{4}\b", "#", text)


@pytest.mark.parametrize("backend", ["serial", "mpi", "mapreduce", "process"])
def test_run_stats_reads_as_in_process_and_writes_the_same_parts(
    tmp_path, blast_file, capsys, backend
):
    out = tmp_path / "out"
    argv = ["run", *run_args(blast_file, out), "--backend", backend, "--stats"]
    argv += [] if backend == "serial" else ["--ranks", "2"]
    got = child(*argv)
    assert got.returncode == 0, got.stderr
    written = parts(out)
    assert len(written) == 8
    capsys.readouterr()
    assert main(argv) == 0
    assert walls(got.stdout) == walls(capsys.readouterr().out)
    assert "stats:" in got.stdout
    assert parts(out) == written


def test_explain_reads_as_in_process(blast_file, capsys):
    argv = ["explain", WORKFLOW, "--input", INPUT_CFG, "--arg", f"input_path={blast_file}"]
    got = child(*argv)
    assert got.returncode == 0, got.stderr
    capsys.readouterr()
    assert main(argv) == 0
    assert got.stdout == capsys.readouterr().out
    assert got.stdout


def test_a_lint_error_still_exits_2_with_its_located_message(tmp_path, blast_file):
    got = child("run", *run_args(blast_file, tmp_path / "out", partitions=99999999999))
    assert got.returncode == 2
    assert f"{WORKFLOW}:18: error PAP036" in got.stderr
    assert "fix them or pass --no-lint" in got.stderr
    assert not (tmp_path / "out").exists()


def test_an_unclassified_exception_still_prints_its_traceback_and_exits_1(
    tmp_path, blast_file
):
    prelude = ("import repro.commands.plan\n"
               "def boom(ns):\n"
               "    raise RuntimeError('boom in plan')\n"
               "repro.commands.plan.cmd_plan = boom\n")
    got = child("plan", *run_args(blast_file, tmp_path / "out"), prelude=prelude)
    assert got.returncode == 1
    assert got.stderr.startswith("Traceback (most recent call last):")
    assert got.stderr.rstrip().endswith("RuntimeError: boom in plan")


def test_an_atexit_handler_registered_before_runpy_still_runs(tmp_path, blast_file):
    # the handler prints without flushing: its line reaches the pipe only
    # if the handlers run and the streams are flushed after them
    prelude = "import atexit\natexit.register(print, 'handler ran')\n"
    got = child("plan", *run_args(blast_file, tmp_path / "out"), prelude=prelude)
    assert got.returncode == 0, got.stderr
    assert got.stdout.endswith("handler ran\n")
    assert got.stdout.count("handler ran") == 1


def test_a_one_shot_command_skips_the_teardown_and_serve_help_keeps_it(
    tmp_path, blast_file
):
    # a __del__ reached only by the interpreter's teardown of __main__
    # (its names are bound as defaults: teardown may have cleared the rest)
    prelude = ("import os\n"
               "class Marker:\n"
               "    def __del__(self, path=sys.argv[2], mk=os.open, close=os.close,\n"
               "                flags=os.O_CREAT | os.O_WRONLY):\n"
               "        close(mk(path, flags))\n"
               "_marker = Marker()\n"
               "sys.argv.pop(2)\n")
    done = tmp_path / "torn-down"
    got = child(done, "plan", *run_args(blast_file, tmp_path / "out"), prelude=prelude)
    assert got.returncode == 0, got.stderr
    assert not done.exists()
    # argparse's exit is an exception escaping main: the normal exit
    got = child(done, "serve", "--help", prelude=prelude)
    assert got.returncode == 0, got.stderr
    assert done.exists()


def test_a_spilling_run_leaves_no_spill_directory(tmp_path, blast_file):
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    got = child("run", *run_args(blast_file, tmp_path / "out"), "--memory-budget", "64KB",
                "--stats", env=env(TMPDIR=str(tmp)))
    assert got.returncode == 0, got.stderr
    assert "spill: " in got.stdout and "run(s) written" in got.stdout
    assert list(tmp.glob("papar-spill-*")) == []


def _session(sid):
    """Live pids of session ``sid``, from ``/proc``."""
    found = []
    for stat in glob.glob("/proc/[0-9]*/stat"):
        try:
            with open(stat, "rb") as fh:
                fields = fh.read().rsplit(b")", 1)[1].split()
        except OSError:
            continue
        if fields[0] != b"Z" and int(fields[3]) == sid:
            found.append(int(stat.split("/")[2]))
    return found


@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="needs /dev/shm")
def test_a_process_run_leaves_no_segment_and_no_process(tmp_path, blast_file):
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "run", *run_args(blast_file, tmp_path / "out"),
         "--backend", "process", "--ranks", "2"],
        env=env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    out, err = proc.communicate(timeout=300)
    assert proc.returncode == 0, err
    assert out.startswith("wrote 8 partition(s):")
    assert glob.glob(f"/dev/shm/pp{proc.pid:x}*") == []
    assert _session(proc.pid) == []

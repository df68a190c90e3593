"""``serve`` pays its imports before it says ``serving on``, not after.

Commands import what they run inside their handlers; for the daemon that
must not move start-up work into append or rebuild latency.  A real CLI
daemon records ``sys.modules`` when it prints ``serving on`` and again at
exit, after an append, an online rebuild and a drain: no ``repro`` module
may appear in between.
"""

import os
import subprocess
import sys
import time

from repro.serve import ServeClient

from .conftest import rows_of

#: runs ``python -m repro`` with a tap on stdout that snapshots
#: ``sys.modules`` at the ``serving on`` line, and writes the ``repro``
#: modules first imported after it to ``argv[1]`` at exit
TAPPED_CLI = """\
import atexit, runpy, sys

class Tap:
    def __init__(self, stream):
        self.stream, self.ready = stream, None
    def write(self, text):
        if self.ready is None and text.startswith("serving on"):
            self.ready = set(sys.modules)
        return self.stream.write(text)
    def __getattr__(self, name):
        return getattr(self.stream, name)

sys.stdout = tap = Tap(sys.stdout)

def report(path=sys.argv[1]):
    late = sorted(set(sys.modules) - (tap.ready or set()))
    with open(path, "w") as fh:
        fh.write("\\n".join(m for m in late if m.split(".")[0] == "repro"))

atexit.register(report)
sys.argv = ["repro"] + sys.argv[2:]
runpy.run_module("repro", run_name="__main__", alter_sys=True)
"""


def test_no_repro_module_is_first_imported_after_serving_on(
    pytestconfig, blast_file, blast_index, tmp_path
):
    path, _initial = blast_file
    configs = pytestconfig.rootpath / "configs"
    late_path = tmp_path / "late.txt"
    proc = subprocess.Popen(
        [sys.executable, "-c", TAPPED_CLI, str(late_path), "serve",
         "--workflow", str(configs / "blast_partition.xml"),
         "--input-config", str(configs / "blast_db.xml"),
         "--arg", f"input_path={path}", "--arg", f"output_path={tmp_path / 'out'}",
         "--arg", "num_partitions=4", "--port", "0", "--rebalance-threshold", "0.05"],
        stdout=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": str(pytestconfig.rootpath / "src")},
    )
    try:
        line = proc.stdout.readline()
        assert line.startswith("serving on "), line
        host, port = line.split()[-1].rsplit(":", 1)
        with ServeClient(host, int(port)) as client:
            first = client.query()["generation"]
            client.append_ok(rows_of(blast_index[100:160]))
            deadline = time.monotonic() + 60
            while client.query()["generation"] == first:
                assert time.monotonic() < deadline, "no rebuild happened"
                time.sleep(0.05)
            assert client.query()["log_records"] == 160
            client.drain()
        assert proc.wait(timeout=60) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    assert late_path.read_text() == ""

"""The optimizer's measured effect on its witness workload.

The **fused-exchange** workflow (sort → sort → distribute on one key) is
PAP081's witness: redundant-exchange elimination removes the first sort
and its whole exchange.

* The bytes gate: on the mpi runtime the measured shuffle payload must
  drop by at least 20% while the partitions stay bit-identical.
* The wall-clock witness: ``python -m repro run`` file to file, plain and
  ``--optimize`` in alternating pairs on ``serial`` and ``process@2``,
  medians recorded under ``results/`` and the part files compared byte
  for byte.  It is recorded, not gated: a shared host's wall clock is too
  noisy for a threshold.

The shipped workflows are structurally minimal, so no pass fires on them
(their unread columns are the PAP083 advisory, which nothing applies).

``PAPAR_BENCH_SMOKE=1`` shrinks the inputs for CI; the bytes gate is
identical in both modes because it is a ratio, not a wall-clock number.
"""

import os
import statistics
import subprocess
import sys
import time

import numpy as np
import pytest

from repro import PaPar
from repro.bench import Experiment, shape
from repro.blast import generate_index
from repro.config import BLAST_INPUT_XML
from repro.core.dataset import Dataset
from repro.formats import BLAST_INDEX_SCHEMA, write_binary

SMOKE = bool(int(os.environ.get("PAPAR_BENCH_SMOKE", "0")))
N = 2_000 if SMOKE else 100_000
RANKS = 4
ARGS = {"input_path": "/in", "output_path": "/out", "num_partitions": 4}

#: records and alternating plain/--optimize pairs of the wall-clock witness
WALL_N = 20_000 if SMOKE else 4_000_000
WALL_PAIRS = 1 if SMOKE else 5
REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: the minimum measured bytes-moved reduction the optimizer must deliver
MIN_REDUCTION = 0.20

#: a workload with a genuinely redundant exchange: the second sort keys on
#: the same column, so the first sort's entire shuffle is wasted motion
FUSED_WORKFLOW_XML = """\
<workflow id="fused_exchange" name="fused exchange workload">
  <arguments>
    <param name="input_path" type="hdfs" format="blast_db"/>
    <param name="output_path" type="hdfs" format="blast_db"/>
    <param name="num_partitions" type="integer"/>
  </arguments>
  <operators>
    <operator id="sort1" operator="Sort">
      <param name="key" type="KeyId" value="seq_size"/>
      <param name="inputPath" type="String" value="$input_path"/>
      <param name="outputPath" type="String" value="/user/s1"/>
    </operator>
    <operator id="sort2" operator="Sort">
      <param name="key" type="KeyId" value="seq_size"/>
      <param name="inputPath" type="String" value="$sort1.outputPath"/>
      <param name="outputPath" type="String" value="/user/s2"/>
    </operator>
    <operator id="distr" operator="Distribute">
      <param name="inputPath" type="String" value="$sort2.outputPath"/>
      <param name="outputPath" type="String" value="$output_path"/>
      <param name="distrPolicy" type="DistrPolicy" value="roundRobin"/>
      <param name="numPartitions" type="integer" value="$num_partitions"/>
    </operator>
  </operators>
</workflow>
"""


@pytest.fixture(scope="module")
def papar():
    p = PaPar()
    p.register_input(BLAST_INPUT_XML)
    return p


@pytest.fixture(scope="module")
def data():
    return Dataset.from_array(
        BLAST_INDEX_SCHEMA, generate_index("env_nr", num_sequences=N, seed=61)
    )


def measure(papar, workflow_xml, data):
    """Run plain and optimized on the mpi runtime; return both results."""
    kw = dict(data=data, backend="mpi", num_ranks=RANKS)
    plain = papar.run(workflow_xml, ARGS, **kw)
    optimized = papar.run(workflow_xml, ARGS, optimize=True, **kw)
    return plain, optimized


def shuffle_payload(result):
    """The perf-counter shuffle payload (what ``--stats`` reports).

    ``result.bytes_moved`` is the fabric's wire count — pickled bytes of
    rows that changed ranks — while the optimizer summary's
    ``measured_bytes_moved`` is the perf counter: the logical payload of
    every routed row.  The gate must compare like with like, so both
    sides read the perf counter.
    """
    return result.extra.get("perf", {}).get("bytes_moved", result.bytes_moved)


def check_identical(plain, optimized):
    for ours, theirs in zip(optimized.partitions, plain.partitions):
        np.testing.assert_array_equal(ours.records, theirs.records)


def test_optimizer_bytes_moved_gate(benchmark, papar, data, reporter):
    plain, optimized = benchmark.pedantic(
        measure, args=(papar, FUSED_WORKFLOW_XML, data), rounds=1, iterations=1
    )
    check_identical(plain, optimized)
    summary = optimized.extra["optimizer"]
    before = shuffle_payload(plain)
    after = summary["measured_bytes_moved"]
    reduction = 1.0 - after / before
    exp = Experiment(
        "Optimizer gate fused_exchange",
        "measured shuffle payload, plain vs --optimize (mpi backend)",
    )
    exp.add(
        workload="fused_exchange",
        records=len(data),
        ranks=RANKS,
        bytes_moved_plain=before,
        bytes_moved_optimized=after,
        reduction_pct=round(100 * reduction, 1),
        rewrites=len(summary["rewrites"]),
        exchanges_removed=summary["exchanges_removed"],
    )
    exp.note(f"partitions bit-identical; payload {before} -> {after} bytes")
    reporter.record(exp)
    shape(summary["passes_fired"] == ["redundant-exchange-elimination"],
          "PAP081 is the only pass that fires")
    shape(summary["exchanges_removed"] >= 1,
          "the fused workload loses at least one exchange")
    shape(
        reduction >= MIN_REDUCTION,
        f"bytes_moved must drop >= {MIN_REDUCTION:.0%}, got {reduction:.1%}",
    )


def _cli_run(workdir, out_dir, backend, ranks, optimize):
    """One ``python -m repro run`` of the fused workflow; its wall seconds."""
    cmd = [
        sys.executable, "-m", "repro", "run",
        "--input-config", os.path.join(REPO, "configs", "blast_db.xml"),
        "--workflow", os.path.join(workdir, "fused.xml"),
        "--arg", f"input_path={os.path.join(workdir, 'db.index')}",
        "--arg", f"output_path={out_dir}", "--arg", "num_partitions=16",
        "--backend", backend, "--ranks", str(ranks),
    ] + (["--optimize"] if optimize else [])
    env = {**os.environ, "PYTHONPATH": os.path.join(REPO, "src"),
           "PYTHONDONTWRITEBYTECODE": "1"}
    start = time.perf_counter()
    subprocess.run(cmd, check=True, env=env, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def _parts(out_dir):
    return {name: open(os.path.join(out_dir, name), "rb").read()
            for name in sorted(os.listdir(out_dir))}


def test_fused_wall_clock_witness(tmp_path, reporter):
    """PAP081's wall-clock witness: recorded, not gated."""
    workdir = str(tmp_path)
    with open(os.path.join(workdir, "fused.xml"), "w") as fh:
        fh.write(FUSED_WORKFLOW_XML)
    write_binary(os.path.join(workdir, "db.index"),
                 generate_index("env_nr", num_sequences=WALL_N, seed=5),
                 BLAST_INDEX_SCHEMA, header=b"\x00" * 32)
    exp = Experiment(
        "Optimizer witness fused_exchange wall",
        "python -m repro run file to file, plain vs --optimize "
        "(alternating pairs, medians)",
    )
    identical = True
    for backend, ranks in (("serial", 1), ("process", 2)):
        walls = {False: [], True: []}
        for _ in range(WALL_PAIRS):
            for optimize in (False, True):
                out_dir = os.path.join(workdir, f"{backend}-{optimize}")
                walls[optimize].append(_cli_run(workdir, out_dir, backend, ranks, optimize))
        identical &= _parts(os.path.join(workdir, f"{backend}-False")) == _parts(
            os.path.join(workdir, f"{backend}-True"))
        plain, optimized = (statistics.median(walls[flag]) for flag in (False, True))
        exp.add(
            backend=backend,
            ranks=ranks,
            records=WALL_N,
            pairs=WALL_PAIRS,
            plain_median_s=round(plain, 3),
            optimized_median_s=round(optimized, 3),
            change_pct=round(100 * (optimized / plain - 1), 1),
        )
    exp.note(f"part files cmp-identical plain vs --optimize: {identical}; "
             f"host: {os.cpu_count()} CPU(s)")
    reporter.record(exp)
    shape(identical, "--optimize writes the same part files")

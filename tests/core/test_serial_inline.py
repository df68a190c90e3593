"""A serial run is the rank program on one rank, run inline.

``--backend serial`` is not a second executor: :class:`SerialRuntime`
launches :meth:`MPIRuntime._rank_program` in the calling thread on a
one-rank communicator.  So a serial run starts no thread, and loads none of
the SPMD machinery — the MPI runtime, the fault layer, the cluster model —
with or without a memory budget.
"""

import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro import PaPar
from repro.blast import generate_index
from repro.config import BLAST_INPUT_XML
from repro.config.examples import BLAST_WORKFLOW_XML
from repro.formats import BLAST_INDEX_SCHEMA, write_binary

SRC = Path(__file__).resolve().parents[2] / "src"
SPMD_PACKAGES = ("repro.mpi", "repro.fault", "repro.cluster")
BUDGETS = [None, "64KB"]

#: a file-to-file serial run in a fresh interpreter; prints the SPMD
#: modules it loaded, one a line
FRESH_RUN = """\
import sys
from repro import PaPar
from repro.config import BLAST_INPUT_XML
from repro.config.examples import BLAST_WORKFLOW_XML
index, out, budget = sys.argv[1], sys.argv[2], sys.argv[3] or None
papar = PaPar()
papar.register_input(BLAST_INPUT_XML)
papar.partition_files(BLAST_WORKFLOW_XML,
                      {"input_path": index, "output_path": out, "num_partitions": 6},
                      memory_budget=budget)
for name in sorted(sys.modules):
    if name.startswith(("repro.mpi", "repro.fault", "repro.cluster")):
        print(name)
"""


def spmd_modules():
    return {
        name for name in sys.modules
        if any(name == pkg or name.startswith(pkg + ".") for pkg in SPMD_PACKAGES)
    }


@pytest.fixture(scope="module")
def index(tmp_path_factory):
    path = tmp_path_factory.mktemp("inline") / "db.index"
    write_binary(path, generate_index("env_nr", num_sequences=20_000, seed=5),
                 BLAST_INDEX_SCHEMA, header=b"\x00" * BLAST_INDEX_SCHEMA.start_position)
    return str(path)


def serial_run(index, out_dir, budget):
    papar = PaPar()
    papar.register_input(BLAST_INPUT_XML)
    return papar.partition_files(
        BLAST_WORKFLOW_XML,
        {"input_path": index, "output_path": str(out_dir), "num_partitions": 6},
        memory_budget=budget,
    )


@pytest.mark.parametrize("budget", BUDGETS)
def test_a_serial_run_starts_no_thread(index, tmp_path, monkeypatch, budget):
    started = []
    real_start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start",
                        lambda self: started.append(self) or real_start(self))
    before = threading.active_count()
    out = serial_run(index, tmp_path / "out", budget)
    assert threading.active_count() == before
    assert started == []
    assert out.result.extra["perf"]["paths"] == {"sort": "narrow", "distr": "in place"}


@pytest.mark.parametrize("budget", BUDGETS)
def test_a_serial_run_loads_no_spmd_module(index, tmp_path, budget):
    before = spmd_modules()
    serial_run(index, tmp_path / "out", budget)
    assert spmd_modules() - before == set()


@pytest.mark.parametrize("budget", BUDGETS)
def test_a_serial_run_loads_no_spmd_module_in_a_fresh_interpreter(index, tmp_path, budget):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    loaded = subprocess.run(
        [sys.executable, "-c", FRESH_RUN, index, str(tmp_path / "out"), budget or ""],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    ).stdout.split()
    assert loaded == []
    assert sorted(os.listdir(tmp_path / "out")) == [f"part-{p:05d}" for p in range(6)]


#: a run from memory: the path arguments are never opened
ARGS = {"input_path": "db.index", "output_path": "out", "num_partitions": 4}


class TestSpmdOptionsAreRefused:
    """One inline rank has no rank count and no simulated clock to give: a
    serial run asked for either refuses, pointing at ``mpi``, instead of
    quietly running one rank in wall time."""

    @pytest.fixture
    def data(self):
        from repro.core.dataset import Dataset

        return Dataset.from_array(
            BLAST_INDEX_SCHEMA, generate_index("env_nr", num_sequences=200, seed=5)
        )

    @staticmethod
    def papar():
        papar = PaPar()
        papar.register_input(BLAST_INPUT_XML)
        return papar

    @pytest.mark.parametrize("ranks", [0, 2, 4])
    def test_a_rank_count_other_than_one(self, data, ranks):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="'mpi'") as caught:
            self.papar().run(BLAST_WORKFLOW_XML, ARGS, data=data,
                             backend="serial", num_ranks=ranks)
        assert f"{ranks} rank(s)" in str(caught.value)

    def test_a_cluster_model(self, data):
        from repro.cluster.model import ClusterModel
        from repro.cluster.network import INFINIBAND_QDR
        from repro.errors import ConfigError

        cluster = ClusterModel(num_nodes=1, ranks_per_node=1, network=INFINIBAND_QDR)
        with pytest.raises(ConfigError, match="cluster model.*'mpi'"):
            self.papar().run(BLAST_WORKFLOW_XML, ARGS, data=data,
                             backend="serial", cluster=cluster)

    def test_one_rank_and_no_cluster_still_run(self, data):
        result = self.papar().run(BLAST_WORKFLOW_XML, ARGS, data=data,
                                  backend="serial", num_ranks=1)
        assert sum(len(p.to_flat().records) for p in result.partitions) == 200

    def test_the_cli_exits_2_with_one_error_line(self, index, tmp_path):
        out = tmp_path / "out"
        config = Path(__file__).resolve().parents[2] / "configs"
        done = subprocess.run(
            [sys.executable, "-m", "repro", "run",
             "--input-config", str(config / "blast_db.xml"),
             "--workflow", str(config / "blast_partition.xml"),
             "--arg", f"input_path={index}", "--arg", f"output_path={out}",
             "--arg", "num_partitions=4", "--backend", "serial", "--ranks", "4"],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 2
        assert done.stderr.splitlines() == [
            "error: the serial backend runs one rank on no cluster model, got 4 "
            "rank(s); use 'mpi' for simulated ranks and time"
        ]
        assert not out.exists() or os.listdir(out) == []

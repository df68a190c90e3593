#!/usr/bin/env python
"""Priced cluster experiments: simulated time from a run's counts.

Shows the machinery behind the paper's scalability figures: run the same
PaPar partitioner on simulated clusters of 1-16 nodes, compare InfiniBand
against Ethernet, and price the counts of a small run by hand.

Run:  python examples/cluster_simulation.py
"""

import sys
from pathlib import Path

import numpy as np

from repro import PaPar
from repro.cluster import ClusterModel, ETHERNET_10G, INFINIBAND_QDR, price
from repro.config import BLAST_INPUT_XML
from repro.config.examples import BLAST_WORKFLOW_XML
from repro.core.dataset import Dataset
from repro.core.perf import JobCounts
from repro.formats import BLAST_INDEX_SCHEMA
from repro.mpi import run_mpi

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
try:
    from apps.blast import generate_index
finally:
    sys.path.pop(0)

NUM_SEQUENCES = 400_000


def partition_elapsed(data, nodes: int, network) -> float:
    cluster = ClusterModel(num_nodes=nodes, ranks_per_node=2, network=network)
    papar = PaPar()
    papar.register_input(BLAST_INPUT_XML)
    result = papar.run(
        BLAST_WORKFLOW_XML,
        {"input_path": "/in", "output_path": "/out", "num_partitions": nodes * 2},
        data=data,
        backend="mpi",
        num_ranks=cluster.size,
        cluster=cluster,
    )
    return result.elapsed


def main() -> None:
    index = generate_index("env_nr", num_sequences=NUM_SEQUENCES, seed=8)
    data = Dataset.from_array(BLAST_INDEX_SCHEMA, index)
    print(f"partitioning a {NUM_SEQUENCES}-sequence index (priced time)\n")

    # -- strong scaling on two interconnects --------------------------------
    print(f"{'nodes':>5}  {'InfiniBand':>11}  {'10GbE':>11}")
    base_ib = base_eth = None
    for nodes in (1, 2, 4, 8, 16):
        t_ib = partition_elapsed(data, nodes, INFINIBAND_QDR)
        t_eth = partition_elapsed(data, nodes, ETHERNET_10G)
        base_ib = base_ib or t_ib
        base_eth = base_eth or t_eth
        print(
            f"{nodes:>5}  {t_ib * 1e3:>8.2f} ms  {t_eth * 1e3:>8.2f} ms"
            f"   (speedup {base_ib / t_ib:4.1f}x / {base_eth / t_eth:4.1f}x)"
        )
    print("\nRDMA wins once the shuffle dominates — the Figure 15 mechanism.\n")

    # -- pricing the counts of a small run ------------------------------------
    cluster = ClusterModel(num_nodes=2, ranks_per_node=2, network=INFINIBAND_QDR)

    def prog(comm):
        # imbalanced traffic: rank r ships (r + 1) MiB to the next rank
        comm.Send(np.zeros((comm.rank + 1) << 17), dest=(comm.rank + 1) % comm.size)
        comm.Recv(np.empty(comm.size << 17), source=(comm.rank - 1) % comm.size)
        return comm.sent

    run = run_mpi(prog, 4)
    print("what each rank of an imbalanced exchange sent (dest: [bytes, messages]):")
    for rank, sent in enumerate(run.results):
        print(f"  rank {rank}: {sent}")
    step = [JobCounts(sent=sent) for sent in run.results]
    print(f"priced as one job: {price([step], cluster) * 1e3:.3f} ms "
          "(the slowest rank's transfer plus the job overhead)")
    # the same traffic as one job that also sorts 1M records per rank, with
    # rank 1 a 4x straggler: only its compute is stretched
    job = [JobCounts(kernels={"sort": 1_000_000}, sent=sent, slowdown=4.0 if rank == 1 else 1.0)
           for rank, sent in enumerate(run.results)]
    print(f"priced as a job with a straggler: {price([job], cluster) * 1e3:.3f} ms")

if __name__ == "__main__":
    main()

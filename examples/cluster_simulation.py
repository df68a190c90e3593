#!/usr/bin/env python
"""Virtual-time cluster experiments and execution tracing.

Shows the machinery behind the paper's scalability figures: run the same
PaPar partitioner on simulated clusters of 1-16 nodes, compare InfiniBand
against Ethernet, and inspect a per-rank execution trace.

Run:  python examples/cluster_simulation.py
"""

from repro import PaPar
from repro.blast import generate_index
from repro.cluster import ClusterModel, ETHERNET_10G, INFINIBAND_QDR
from repro.config import BLAST_INPUT_XML
from repro.config.examples import BLAST_WORKFLOW_XML
from repro.core.dataset import Dataset
from repro.formats import BLAST_INDEX_SCHEMA
from repro.mpi import SUM, run_mpi
from repro.obs import Recorder, render_timeline

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
    print(f"partitioning a {NUM_SEQUENCES}-sequence index (virtual time)\n")

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

    # -- execution trace of a small run --------------------------------------
    cluster = ClusterModel(num_nodes=2, ranks_per_node=2, network=INFINIBAND_QDR)
    recorder = Recorder()

    def prog(comm):
        # the span puts the rank's compute on the timeline; the wait inside
        # the allreduce shows as idle, fed by the communicator's charge points
        comm.recorder = recorder
        with recorder.span(
            "allreduce-demo", category="job", rank=comm.rank, clock=comm.clock
        ):
            comm.charge_compute(0.002 * (comm.rank + 1))  # imbalanced compute
        return comm.allreduce(comm.rank, SUM)

    run_mpi(prog, 4, cluster=cluster)
    print("per-rank timeline of an imbalanced allreduce:")
    print(render_timeline(recorder))


if __name__ == "__main__":
    main()

#!/usr/bin/env python
"""Explaining a workflow before running it.

Shows the analysis side of the framework: plan the Figure 10 hybrid-cut
workflow from its XML, render the planned dataflow as Graphviz DOT, print
the ``papar explain`` report (how each job runs on the serial and SPMD
backends) before running, then run it on the paper's testbed model.

Run:  python examples/explain_workflow.py
"""

import sys
from pathlib import Path

from repro import PaPar
from repro.analysis import Linter
from repro.analysis.explain import explain, plan_to_dot
from repro.cluster import ClusterModel, INFINIBAND_QDR
from repro.config import EDGE_INPUT_XML
from repro.config.examples import HYBRID_CUT_WORKFLOW_XML

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
try:
    from apps.graph import generate_powerlaw
finally:
    sys.path.pop(0)

NUM_PARTITIONS = 8


def main() -> None:
    papar = PaPar()
    papar.register_input(EDGE_INPUT_XML)
    args = {"input_file": "/in", "output_path": "/out",
            "num_partitions": NUM_PARTITIONS, "threshold": 20}
    plan = papar.plan(HYBRID_CUT_WORKFLOW_XML, args)

    # -- explain: dataflow + the analyzed plan --------------------------------
    print("planned dataflow (Graphviz DOT):")
    print(plan_to_dot(plan))

    g = generate_powerlaw(20_000, 200_000, alpha=2.3, seed=2)
    linter = Linter(schemas={"graph_edge": papar.schema("graph_edge")},
                    assume_records=g.num_edges)
    print(explain(linter, HYBRID_CUT_WORKFLOW_XML, args=args).render_text())

    # -- run it -------------------------------------------------------------------
    cluster = ClusterModel(num_nodes=4, ranks_per_node=2, network=INFINIBAND_QDR)
    result = papar.run(plan, data=g.to_dataset(), backend="mpi",
                       num_ranks=cluster.size, cluster=cluster)
    print(f"\npriced time on 4 nodes: {result.elapsed:.6f}s")
    print(f"partitions: {[p.num_records for p in result.partitions]}")

if __name__ == "__main__":
    main()

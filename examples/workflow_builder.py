#!/usr/bin/env python
"""Building and explaining workflows without XML.

Shows the programmatic side of the framework: construct the hybrid-cut
workflow with :class:`~repro.config.builder.WorkflowBuilder`, render the
planned dataflow as Graphviz DOT, print the ``papar explain`` report
(how each job runs on the serial and SPMD backends) before running, then
run it on the paper's testbed model.

Run:  python examples/workflow_builder.py
"""

from repro import PaPar
from repro.analysis import Linter
from repro.analysis.explain import explain, plan_to_dot
from repro.cluster import ClusterModel, INFINIBAND_QDR
from repro.config import EDGE_INPUT_XML
from repro.config.builder import WorkflowBuilder
from repro.config.serialize import workflow_to_xml
from repro.graph import generate_powerlaw

NUM_PARTITIONS = 8


def main() -> None:
    # -- build the Figure 10 workflow fluently --------------------------------
    wf = (
        WorkflowBuilder("hybrid_cut_built", name="Hybrid-cut (built fluently)")
        .argument("input_file", type="hdfs", format="graph_edge")
        .argument("output_path", type="hdfs", format="graph_edge")
        .argument("num_partitions", type="integer")
        .argument("threshold", type="integer")
        .group("group", key="vertex_b", input_path="$input_file",
               output_path="/tmp/group", addons=[("count", "indegree", None)])
        .split("split", key="$group.$indegree",
               policy="{>=, $threshold},{<, $threshold}",
               output_paths=["/tmp/split/high", "/tmp/split/low"],
               output_formats=["unpack", "orig"],
               input_path="$group.outputPath")
        .distribute("distr", policy="graphVertexCut",
                    num_partitions="$num_partitions",
                    input_path="/tmp/split/", output_path="$output_path")
        .build()
    )
    print("equivalent XML (first 10 lines):")
    for line in workflow_to_xml(wf).splitlines()[:10]:
        print(" ", line)

    papar = PaPar()
    papar.register_input(EDGE_INPUT_XML)
    args = {"input_file": "/in", "output_path": "/out",
            "num_partitions": NUM_PARTITIONS, "threshold": 20}
    plan = papar.plan(wf, args)

    # -- explain: dataflow + the analyzed plan --------------------------------
    print("\nplanned dataflow (Graphviz DOT):")
    print(plan_to_dot(plan))

    g = generate_powerlaw(20_000, 200_000, alpha=2.3, seed=2)
    linter = Linter(schemas={"graph_edge": papar.schema("graph_edge")},
                    assume_records=g.num_edges)
    print(explain(linter, wf, args=args).render_text())

    # -- run it -------------------------------------------------------------------
    cluster = ClusterModel(num_nodes=4, ranks_per_node=2, network=INFINIBAND_QDR)
    result = papar.run(plan, data=g.to_dataset(), backend="mpi",
                       num_ranks=cluster.size, cluster=cluster)
    print(f"\npriced time on 4 nodes: {result.elapsed:.6f}s")
    print(f"partitions: {[p.num_records for p in result.partitions]}")

if __name__ == "__main__":
    main()

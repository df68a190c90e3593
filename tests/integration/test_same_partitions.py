"""Section IV correctness claim: "PaPar can produce the same partitions as
the driving applications" — checked bit-for-bit for both case studies,
on both backends, via both the interpreter and the generated code."""

import sys
from pathlib import Path

import numpy as np
import pytest

from repro import PaPar
from repro.config import BLAST_INPUT_XML, EDGE_INPUT_XML
from repro.config.examples import BLAST_WORKFLOW_XML, HYBRID_CUT_WORKFLOW_XML
from repro.core.dataset import Dataset
from repro.formats import BLAST_INDEX_SCHEMA

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks"))
try:
    from apps.blast import build_index, generate_database, mublastp_partition
    from apps.graph import generate_graph, papar_equivalent_hybrid_cut
finally:
    sys.path.pop(0)

#: a pure-Distribute workflow for the muBLASTP "block" (default) method
BLOCK_WORKFLOW_XML = """\
<workflow id="blast_block" name="BLAST default block partition">
  <arguments>
    <param name="input_path" type="hdfs" format="blast_db"/>
    <param name="output_path" type="hdfs" format="blast_db"/>
    <param name="num_partitions" type="integer"/>
  </arguments>
  <operators>
    <operator id="distr" operator="Distribute">
      <param name="inputPath" type="String" value="$input_path"/>
      <param name="outputPath" type="String" value="$output_path"/>
      <param name="distrPolicy" type="DistrPolicy" value="block"/>
      <param name="numPartitions" type="integer" value="$num_partitions"/>
    </operator>
  </operators>
</workflow>
"""


@pytest.fixture(scope="module")
def papar():
    p = PaPar()
    p.register_input(BLAST_INPUT_XML)
    p.register_input(EDGE_INPUT_XML)
    return p


class TestMuBlastpSamePartitions:
    @pytest.fixture(scope="class")
    def db_index(self):
        db = generate_database("env_nr", num_sequences=1000, seed=21)
        return build_index(db)

    @pytest.mark.parametrize("num_partitions", [2, 8, 16, 32])
    def test_cyclic_partitions_identical(self, papar, db_index, num_partitions):
        native = mublastp_partition(db_index, num_partitions, policy="cyclic")
        result = papar.run(
            BLAST_WORKFLOW_XML,
            {"input_path": "/in", "output_path": "/out", "num_partitions": num_partitions},
            data=Dataset.from_array(BLAST_INDEX_SCHEMA, db_index),
        )
        assert result.num_partitions == num_partitions
        for ours, theirs in zip(result.partitions, native):
            np.testing.assert_array_equal(ours.records, theirs)

    @pytest.mark.parametrize("num_partitions", [2, 16])
    def test_cyclic_partitions_identical_mpi(self, papar, db_index, num_partitions):
        native = mublastp_partition(db_index, num_partitions, policy="cyclic")
        result = papar.run(
            BLAST_WORKFLOW_XML,
            {"input_path": "/in", "output_path": "/out", "num_partitions": num_partitions},
            data=Dataset.from_array(BLAST_INDEX_SCHEMA, db_index),
            backend="mpi",
            num_ranks=4,
        )
        for ours, theirs in zip(result.partitions, native):
            np.testing.assert_array_equal(ours.records, theirs)

    @pytest.mark.parametrize("num_partitions", [2, 8, 32])
    def test_block_partitions_identical(self, papar, db_index, num_partitions):
        native = mublastp_partition(db_index, num_partitions, policy="block")
        result = papar.run(
            BLOCK_WORKFLOW_XML,
            {"input_path": "/in", "output_path": "/out", "num_partitions": num_partitions},
            data=Dataset.from_array(BLAST_INDEX_SCHEMA, db_index),
        )
        for ours, theirs in zip(result.partitions, native):
            np.testing.assert_array_equal(ours.records, theirs)

    def test_generated_code_same_partitions(self, papar, db_index):
        plan = papar.plan(
            BLAST_WORKFLOW_XML,
            {"input_path": "/in", "output_path": "/out", "num_partitions": 8},
        )
        module = papar.compile(plan)
        native = mublastp_partition(db_index, 8, policy="cyclic")
        result = module.run(Dataset.from_array(BLAST_INDEX_SCHEMA, db_index))
        for ours, theirs in zip(result.partitions, native):
            np.testing.assert_array_equal(ours.records, theirs)


class TestHybridCutSamePartitions:
    @pytest.fixture(scope="class")
    def graph(self):
        return generate_graph("google", scale=0.002, seed=13)

    @pytest.mark.parametrize("num_partitions,threshold", [(4, 10), (8, 30), (16, 100)])
    def test_hybrid_partitions_identical(self, papar, graph, num_partitions, threshold):
        native = papar_equivalent_hybrid_cut(graph, num_partitions, threshold)
        result = papar.run(
            HYBRID_CUT_WORKFLOW_XML,
            {
                "input_file": "/in",
                "output_path": "/out",
                "num_partitions": num_partitions,
                "threshold": threshold,
            },
            data=graph.to_dataset(),
        )
        assert result.num_partitions == num_partitions
        for ours, theirs in zip(result.partitions, native):
            got = np.column_stack(
                [ours.records["vertex_a"], ours.records["vertex_b"], ours.records["indegree"]]
            )
            np.testing.assert_array_equal(got, theirs)

    def test_hybrid_partitions_identical_mpi(self, papar, graph):
        native = papar_equivalent_hybrid_cut(graph, 8, 30)
        result = papar.run(
            HYBRID_CUT_WORKFLOW_XML,
            {"input_file": "/in", "output_path": "/out", "num_partitions": 8, "threshold": 30},
            data=graph.to_dataset(),
            backend="mpi",
            num_ranks=4,
        )
        for ours, theirs in zip(result.partitions, native):
            got = np.column_stack(
                [ours.records["vertex_a"], ours.records["vertex_b"], ours.records["indegree"]]
            )
            np.testing.assert_array_equal(got, theirs)

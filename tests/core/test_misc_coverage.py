"""Coverage for remaining framework paths: schema registration, custom
operators through the distributed runtimes, search significance."""

import sys
from pathlib import Path

import numpy as np
import pytest

from repro import PaPar
from repro.config.workflow import Bindings
from repro.core.dataset import Dataset
from repro.core.planner import PlannedJob, WorkflowPlan
from repro.core.runtime import MPIRuntime
from repro.errors import ConfigError
from repro.formats import BLAST_INDEX_SCHEMA, EDGE_LIST_SCHEMA, write_binary
from repro.ops import Distribute
from repro.ops.base import BasicOperator

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks"))
try:
    from apps.blast import INDEX_HEADER, build_index, generate_database
finally:
    sys.path.pop(0)


class TestFrameworkHelpers:
    def test_schema_lookup_unknown(self):
        with pytest.raises(ConfigError, match="registered"):
            PaPar().schema("nothing")

    def test_register_schema_programmatically(self):
        papar = PaPar()
        papar.register_schema(EDGE_LIST_SCHEMA)
        assert papar.schema("graph_edge") is EDGE_LIST_SCHEMA

    def test_write_index_roundtrip(self, tmp_path):
        db = generate_database("env_nr", num_sequences=20, seed=2)
        path = tmp_path / "db.index"
        write_binary(path, build_index(db), BLAST_INDEX_SCHEMA, header=INDEX_HEADER)
        from repro.formats import read_binary

        back = read_binary(path, BLAST_INDEX_SCHEMA)
        np.testing.assert_array_equal(back["seq_size"], db.seq_size)


class Head(BasicOperator):
    """Custom operator: keep the first n entries."""

    name = "Head"

    def __init__(self, n: int) -> None:
        self.n = n

    def apply_local(self, data: Dataset) -> Dataset:
        return data.take(np.arange(min(self.n, len(data))))


class TestCustomOperatorThroughRuntimes:
    def make_plan(self):
        jobs = [
            PlannedJob(op_id="head", operator_name="Head", operator=Head(4),
                       source=None, output_paths=["/tmp/head"]),
            PlannedJob(op_id="distr", operator_name="Distribute",
                       operator=Distribute("cyclic", 2), source="head",
                       source_outputs=[0], output_paths=["/out"]),
        ]
        return WorkflowPlan(workflow_id="custom", jobs=jobs, env=Bindings())

    def test_custom_op_mpi_runtime(self):
        data = Dataset.from_rows(EDGE_LIST_SCHEMA, [(i, i) for i in range(10)])
        result = MPIRuntime(num_ranks=2).execute(self.make_plan(), data)
        # each rank keeps its local head(4): with 5+5 split, 4+4 survive
        total = sum(p.num_records for p in result.partitions)
        assert total == 8

    def test_custom_op_serial_runtime(self):
        from repro.core.runtime import SerialRuntime

        data = Dataset.from_rows(EDGE_LIST_SCHEMA, [(i, i) for i in range(10)])
        result = SerialRuntime().execute(self.make_plan(), data)
        assert sum(p.num_records for p in result.partitions) == 4

"""The wire price of the physical plan: record counts and the wire contract.

PAP084 and ``explain`` price each planned SPMD job by the physical plan
the runtimes dispatch on (:func:`repro.core.physical.physical_plan`):
records x shipped width for a record exchange or a gathered deal, nothing
for a cut or an in-place deal.  Records come from ``--assume-records`` or
a ``stat`` of a bound binary input, never from a scan.  The contract tests
hold the price against what a run measures: the shipped BLAST workflow
plans a cut and an in-place deal and puts at most 1 KiB on the wire (the
deal's scalars); the hybrid-cut workflow plans record exchanges and
measures records x width.
"""

import numpy as np
import pytest

from repro import PaPar
from repro.analysis.engine import Linter, read_configs
from repro.analysis.explain import explain
from repro.formats.binary import write_binary
from repro.formats.records import BLAST_INDEX_SCHEMA, EDGE_LIST_SCHEMA
from repro.formats.text import write_text


@pytest.fixture
def configs(pytestconfig):
    return pytestconfig.rootpath / "configs"


def make_blast_file(path, n, seed=7):
    rng = np.random.default_rng(seed)
    arr = np.zeros(n, dtype=BLAST_INDEX_SCHEMA.dtype)
    for f in BLAST_INDEX_SCHEMA.field_names:
        arr[f] = rng.integers(0, 1 << 20, n)
    write_binary(path, arr, BLAST_INDEX_SCHEMA, header=b"\0" * 32)


def make_edge_file(path, n, seed=11):
    rng = np.random.default_rng(seed)
    rows = [
        (int(a), int(b))
        for a, b in zip(rng.integers(0, 500, n), rng.integers(0, 50, n))
    ]
    write_text(path, rows, EDGE_LIST_SCHEMA)
    return rows


def report_of(configs, workflow, schema, args, **linter):
    """The explain report of a shipped workflow with ``args`` bound."""
    return explain(
        Linter(**linter), **read_configs(str(configs / workflow), [str(configs / schema)]),
        args={k: str(v) for k, v in args.items()},
    )


class TestInputEstimation:
    def test_binary_row_count_is_exact(self, tmp_path, configs):
        path = tmp_path / "db.index"
        make_blast_file(path, 321)
        report = report_of(configs, "blast_partition.xml", "blast_db.xml",
                           {"input_path": path})
        assert report.records == 321

    def test_a_text_input_is_never_scanned(self, tmp_path, configs):
        path = tmp_path / "edges.txt"
        make_edge_file(path, 123)
        report = report_of(configs, "hybrid_cut.xml", "graph_edge.xml", {"input_file": path})
        assert report.records is None
        assert report.operators[0]["spmd"]["wire_bytes"] is None
        assert report_of(configs, "hybrid_cut.xml", "graph_edge.xml", {"input_file": path},
                         assume_records=123).records == 123

    def test_missing_file_is_unknown(self, tmp_path, configs):
        report = report_of(configs, "blast_partition.xml", "blast_db.xml",
                           {"input_path": tmp_path / "nope"})
        assert report.records is None


class TestAccuracyContract:
    """The priced wire bytes against what a run measures."""

    def run(self, configs, workflow, schema, args, ranks):
        papar = PaPar()
        papar.register_input_file(str(configs / schema))
        return papar.partition_files(
            papar.load_workflow_file(str(configs / workflow)), args, backend="mpi",
            num_ranks=ranks,
        ).result

    def test_blast_estimate_matches_stats(self, tmp_path, configs):
        idx = tmp_path / "db.index"
        make_blast_file(idx, 4000)
        args = {"input_path": idx, "output_path": str(tmp_path / "out") + "/",
                "num_partitions": 4, "num_reducers": 2}
        report = report_of(configs, "blast_partition.xml", "blast_db.xml", args)
        assert [op["spmd"]["path"] for op in report.operators] == ["cut", "in place"]
        assert [op["spmd"]["wire_bytes"] for op in report.operators] == [0, 0]
        for ranks in (2, 4):
            result = self.run(configs, "blast_partition.xml", "blast_db.xml", args, ranks)
            assert result.perf["paths"] == {"sort": "cut", "distr": "in place"}
            assert 0 < result.bytes_moved <= 1024

    def test_hybrid_estimate_matches_stats(self, tmp_path, configs):
        edges = tmp_path / "edges.txt"
        make_edge_file(edges, 2000)
        args = {"input_file": edges, "output_path": str(tmp_path / "gout") + "/",
                "num_partitions": 4, "threshold": 10}
        report = report_of(configs, "hybrid_cut.xml", "graph_edge.xml", args,
                           assume_records=2000)
        planned = {op["id"]: op["spmd"] for op in report.operators}
        assert planned["group"]["path"] == "records"
        assert planned["distr"]["path"] == "gathered (text output)"
        estimated = sum(op["wire_bytes"] for op in planned.values())
        result = self.run(configs, "hybrid_cut.xml", "graph_edge.xml", args, 2)
        measured = result.perf["bytes_moved"]
        assert result.bytes_moved > 1024
        assert abs(estimated - measured) / measured < 0.20

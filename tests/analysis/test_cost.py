"""Exchange-cost estimation: file-backed row counts and the accuracy contract.

The headline test pins the acceptance criterion of the cost model: the
statically estimated bytes_moved per exchange must land within 20% of the
``perf['bytes_moved']`` counter a real ``--stats`` run records.  In
practice the model is exact for both shipped case studies, because the
runtimes charge every exchange the full payload of the redistributed
stream — precisely what rows x record-width computes.
"""

import numpy as np
import pytest

from repro import PaPar
from repro.analysis.cost import estimate_input_rows, sample_group_ratio
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


class TestInputEstimation:
    def test_binary_row_count_is_exact(self, tmp_path):
        path = tmp_path / "db.index"
        make_blast_file(path, 321)
        assert estimate_input_rows(str(path), BLAST_INDEX_SCHEMA) == 321

    def test_text_row_count_is_exact(self, tmp_path):
        path = tmp_path / "edges.txt"
        make_edge_file(path, 123)
        assert estimate_input_rows(str(path), EDGE_LIST_SCHEMA) == 123

    def test_missing_file_is_unknown(self, tmp_path):
        assert estimate_input_rows(str(tmp_path / "nope"), BLAST_INDEX_SCHEMA) is None

    def test_group_ratio_sampled_from_head(self, tmp_path):
        path = tmp_path / "edges.txt"
        make_edge_file(path, 500)
        ratio = sample_group_ratio(str(path), EDGE_LIST_SCHEMA, "vertex_b")
        assert ratio is not None
        assert 0.0 < ratio <= 0.2  # 50 distinct targets over 500 rows

    def test_group_ratio_unknown_key(self, tmp_path):
        path = tmp_path / "edges.txt"
        make_edge_file(path, 10)
        assert sample_group_ratio(str(path), EDGE_LIST_SCHEMA, "nope") is None


class TestAccuracyContract:
    """Estimated bytes per exchange within 20% of a measured --stats run."""

    def _measured_bytes(self, papar, workflow_path, args, ranks=2):
        workflow = papar.load_workflow_file(str(workflow_path))
        out = papar.partition_files(
            workflow, args, backend="mpi", num_ranks=ranks
        )
        return out.result.extra["perf"]["bytes_moved"]

    def test_blast_estimate_matches_stats(self, tmp_path, configs):
        idx = tmp_path / "db.index"
        make_blast_file(idx, 4000)
        args = {
            "input_path": str(idx),
            "output_path": str(tmp_path / "out") + "/",
            "num_partitions": 4,
            "num_reducers": 2,
        }
        papar = PaPar()
        papar.register_input_file(str(configs / "blast_db.xml"))
        measured = self._measured_bytes(papar, configs / "blast_partition.xml", args)

        report = explain(
            Linter(), **read_configs(str(configs / "blast_partition.xml"), [str(configs / "blast_db.xml")]),
            args={k: str(v) for k, v in args.items()},
        )
        assert all(e["measured"] for e in report.exchanges)
        estimated = sum(e["est_bytes"] for e in report.exchanges)
        assert measured > 0
        assert abs(estimated - measured) / measured < 0.20

    def test_hybrid_estimate_matches_stats(self, tmp_path, configs):
        edges = tmp_path / "edges.txt"
        make_edge_file(edges, 2000)
        args = {
            "input_file": str(edges),
            "output_path": str(tmp_path / "gout") + "/",
            "num_partitions": 4,
            "threshold": 10,
        }
        papar = PaPar()
        papar.register_input_file(str(configs / "graph_edge.xml"))
        measured = self._measured_bytes(papar, configs / "hybrid_cut.xml", args)

        report = explain(
            Linter(), **read_configs(str(configs / "hybrid_cut.xml"), [str(configs / "graph_edge.xml")]),
            args={k: str(v) for k, v in args.items()},
        )
        estimated = sum(e["est_bytes"] for e in report.exchanges)
        assert measured > 0
        assert abs(estimated - measured) / measured < 0.20

    def test_pruning_estimate_scales_with_rows(self, tmp_path, configs):
        idx = tmp_path / "db.index"
        make_blast_file(idx, 1000)
        report = explain(
            Linter(), **read_configs(str(configs / "blast_partition.xml"), [str(configs / "blast_db.xml")]),
            args={"input_path": str(idx)},
        )
        # blast: 3 of 4 integer columns unused; one intermediate exchange
        assert report.pruning["unused_columns"] == [
            "seq_start", "desc_start", "desc_size",
        ]
        assert report.pruning["est_bytes_saved"] == 1000 * 12

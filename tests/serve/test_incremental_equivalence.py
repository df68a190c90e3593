"""The streaming bit-identity contract: N incremental appends plus a
drift-triggered online rebalance produce exactly the partitions of one cold
batch run over the concatenated input — across rank counts and both
case-study workflows.  The log-as-ground-truth design makes this hold: a
rebalance reruns the full workflow over the accumulated log, which *is* the
concatenated input in arrival order."""

import numpy as np
import pytest

from repro.config.examples import BLAST_WORKFLOW_XML, HYBRID_CUT_WORKFLOW_XML
from repro.core.dataset import Dataset
from repro.formats import BLAST_INDEX_SCHEMA, EDGE_LIST_SCHEMA

from tests.serve._driver import dispatch, fold_tail, partition_records, run_scenario
from tests.serve.conftest import rows_of

RANKS = [1, 4, 8]


def stream(papar, workflow, args, append_batches, ranks):
    """Warm-start, append every batch, rebalance, return final partitions."""

    async def scenario(server):
        for rows in append_batches:
            response = await dispatch(server, {"op": "append", "rows": rows})
            assert response["ok"], response
        await fold_tail(server)
        assert server.state.drift_fraction == 0.0
        gen = server.state.current
        return [partition_records(gen, pid)
                for pid in range(gen.num_partitions)]

    server, parts = run_scenario(
        papar, workflow, args, scenario,
        backend="mpi", num_ranks=ranks,
        # low enough that appending ~40% of the corpus trips the drift
        # trigger organically; fold_tail only covers the final sliver
        rebalance_threshold=0.05,
    )
    assert server.rebalance_events, "no online rebalance ever triggered"
    return parts


def cold(papar, workflow, args, schema, full_records):
    result = papar.run(
        workflow, args, data=Dataset.from_array(schema, full_records)
    )
    return [np.asarray(p.to_flat().records) for p in result.partitions]


class TestBlastEquivalence:
    @pytest.mark.parametrize("ranks", RANKS)
    def test_appends_match_cold_batch(
        self, papar, blast_file, blast_index, tmp_path, ranks
    ):
        path, initial = blast_file
        args = {"input_path": path, "output_path": str(tmp_path / "out"),
                "num_partitions": 8}
        appended = blast_index[100:]
        batches = [rows_of(appended[i:i + 20])
                   for i in range(0, len(appended), 20)]
        streamed = stream(papar, BLAST_WORKFLOW_XML, args, batches, ranks)
        reference = cold(
            papar, BLAST_WORKFLOW_XML, args, BLAST_INDEX_SCHEMA,
            np.concatenate([initial, appended]),
        )
        assert len(streamed) == len(reference) == 8
        for ours, theirs in zip(streamed, reference):
            np.testing.assert_array_equal(ours, theirs, err_msg=f"ranks={ranks}")


class TestHybridCutEquivalence:
    @pytest.mark.parametrize("ranks", RANKS)
    def test_appends_match_cold_batch(
        self, papar, edges_file, graph_edges, tmp_path, ranks
    ):
        path, initial = edges_file
        args = {"input_file": path, "output_path": str(tmp_path / "out"),
                "num_partitions": 4, "threshold": 30}
        appended = graph_edges[len(initial):]
        third = max(1, len(appended) // 3)
        batches = [rows_of(appended[i:i + third])
                   for i in range(0, len(appended), third)]
        streamed = stream(papar, HYBRID_CUT_WORKFLOW_XML, args, batches, ranks)
        reference = cold(
            papar, HYBRID_CUT_WORKFLOW_XML, args, EDGE_LIST_SCHEMA,
            np.concatenate([initial, appended]),
        )
        assert len(streamed) == len(reference) == 4
        for ours, theirs in zip(streamed, reference):
            np.testing.assert_array_equal(ours, theirs, err_msg=f"ranks={ranks}")

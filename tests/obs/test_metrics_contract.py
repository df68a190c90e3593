"""The versioned metrics JSON contract (schema "papar.metrics", version 1).

These tests pin the document layout: a version bump is required before any
key here may change shape.
"""

import json

import pytest

from repro.obs import (
    METRICS_VERSION,
    SERVE_METRICS_VERSION,
    Recorder,
    metrics_json,
    record_perf,
    record_rebalance,
    record_serve_request,
    serve_metrics_json,
    write_metrics,
)


def seeded_recorder():
    rec = Recorder()
    rec.record_span("plan:wf", "plan", rank=None, start_virtual=0.0, end_virtual=4.0)
    rec.record_span("sort", "job", rank=0, start_virtual=0.0, end_virtual=2.5)
    rec.record_span("distr", "job", rank=0, start_virtual=2.5, end_virtual=4.0)
    rec.instant("crash", category="fault", rank=0, ts_virtual=1.0)
    rec.count("comm.sent_bytes", 100, rank=0)
    rec.count("comm.sent_bytes", 50, rank=1)
    rec.gauge("perf.phase.sort.wall_s", 0.25)
    for v in (1.0, 2.0, 3.0, 4.0):
        rec.observe("shuffle_ms", v)
    return rec


class TestMetricsContract:
    def test_envelope(self):
        doc = metrics_json(seeded_recorder())
        assert doc["schema"] == "papar.metrics"
        assert doc["version"] == METRICS_VERSION == 1
        assert set(doc) == {
            "schema", "version", "time_basis", "counters",
            "gauges", "histograms", "spans", "run",
        }

    def test_counters_carry_total_and_per_rank(self):
        doc = metrics_json(seeded_recorder())
        sent = doc["counters"]["comm.sent_bytes"]
        assert sent["total"] == 150
        assert sent["per_rank"] == {"0": 100, "1": 50}

    def test_gauges_mirror_the_counter_shape(self):
        doc = metrics_json(seeded_recorder())
        assert doc["gauges"]["perf.phase.sort.wall_s"]["total"] == 0.25

    def test_histogram_summary_statistics(self):
        doc = metrics_json(seeded_recorder())
        h = doc["histograms"]["shuffle_ms"]
        assert h["count"] == 4
        assert (h["min"], h["max"]) == (1.0, 4.0)
        assert h["mean"] == pytest.approx(2.5)
        assert h["p50"] == 3.0  # nearest-rank of 4 sorted samples
        assert h["p95"] == 4.0
        assert h["p99"] == 4.0

    def test_span_rollups(self):
        doc = metrics_json(seeded_recorder())
        spans = doc["spans"]
        assert spans["count"] == 3
        assert spans["instants"] == 1
        assert spans["makespan_virtual_s"] == 4.0
        # rank 0's two job spans: 2.5 + 1.5 simulated seconds busy
        assert spans["per_rank_busy_virtual_s"]["0"] == pytest.approx(4.0)

    def test_run_block_passes_through(self):
        doc = metrics_json(seeded_recorder(), run={"backend": "mpi", "ranks": 8})
        assert doc["run"] == {"backend": "mpi", "ranks": 8}
        assert metrics_json(seeded_recorder())["run"] == {}

    def test_time_basis_fallback(self):
        assert metrics_json(seeded_recorder())["time_basis"] == "virtual"
        assert metrics_json(Recorder())["time_basis"] == "wall"

    def test_in_place_output_is_two_more_counters(self):
        """What the ranks wrote themselves is additive: same envelope, same
        counter shape, same version."""
        perf = {"records_moved": 8, "bytes_moved": 128, "phases": {}}
        gathered = dict(perf, output={"mode": "gathered", "reason": "text output"})
        in_place = dict(perf, output={"mode": "in_place", "parts": 4, "bytes": 128})
        docs = {}
        for name, summary in (("plain", perf), ("gathered", gathered), ("in_place", in_place)):
            rec = seeded_recorder()
            record_perf(rec, summary)
            docs[name] = metrics_json(rec)
        assert docs["plain"] == docs["gathered"]
        assert docs["in_place"]["version"] == METRICS_VERSION == 1
        assert set(docs["in_place"]) == set(docs["plain"])
        added = set(docs["in_place"]["counters"]) - set(docs["plain"]["counters"])
        assert added == {"output.in_place_parts", "output.in_place_bytes"}
        assert docs["in_place"]["counters"]["output.in_place_parts"] == {
            "total": 4, "per_rank": {},
        }
        assert docs["in_place"]["counters"]["output.in_place_bytes"]["total"] == 128

    def test_written_file_round_trips(self, tmp_path):
        path = tmp_path / "metrics.json"
        returned = write_metrics(str(path), seeded_recorder(), run={"ranks": 2})
        assert json.loads(path.read_text()) == returned


def serve_seeded_recorder():
    rec = Recorder()
    record_serve_request(rec, "query")
    record_serve_request(rec, "append", latency_ms=2.0, records=10,
                         encoding="frames")
    record_serve_request(rec, "append", latency_ms=6.0, records=30,
                         encoding="json")
    record_serve_request(rec, "append", rejected=True, encoding="frames")
    record_rebalance(rec, generation=1, reason="drift", wall_s=0.5, records=40)
    rec.count("serve.snapshots")
    rec.count("serve.coalesced_batches", 3)
    rec.gauge("serve.queue_depth", 2)
    return rec


class TestServeMetricsContract:
    """The "papar.serve" document (version 1): serving-shaped rollups over
    the generic metrics stream.  Layout changes require a version bump."""

    def test_envelope(self):
        doc = serve_metrics_json(serve_seeded_recorder())
        assert doc["schema"] == "papar.serve"
        assert doc["version"] == SERVE_METRICS_VERSION == 1
        assert set(doc) == {
            "schema", "version", "requests", "rejected", "appended_records",
            "append_frames", "append_json",
            "coalesced_batches", "rebalances", "snapshots", "queue_depth",
            "append_latency_ms", "server", "metrics",
        }

    def test_per_verb_request_counts(self):
        doc = serve_metrics_json(serve_seeded_recorder())
        assert doc["requests"] == {"query": 1, "append": 3}
        assert doc["rejected"] == 1
        assert doc["appended_records"] == 40
        # accepted appends per wire encoding; the rejected one counts nowhere
        assert (doc["append_frames"], doc["append_json"]) == (1, 1)
        assert doc["coalesced_batches"] == 3
        assert doc["rebalances"] == 1
        assert doc["snapshots"] == 1
        assert doc["queue_depth"] == 2

    def test_append_latency_distribution(self):
        h = serve_metrics_json(serve_seeded_recorder())["append_latency_ms"]
        assert h["count"] == 2
        assert (h["min"], h["max"]) == (2.0, 6.0)
        assert set(h) == {"count", "min", "max", "mean", "p50", "p95", "p99"}

    def test_empty_recorder_still_has_the_full_shape(self):
        doc = serve_metrics_json(Recorder())
        assert doc["requests"] == {}
        assert (doc["append_frames"], doc["append_json"]) == (0, 0)
        assert doc["append_latency_ms"]["count"] == 0
        assert set(doc["append_latency_ms"]) == {
            "count", "min", "max", "mean", "p50", "p95", "p99",
        }

    def test_server_block_passes_through(self):
        doc = serve_metrics_json(serve_seeded_recorder(),
                                 server={"generation": 4})
        assert doc["server"] == {"generation": 4}

    def test_base_document_is_embedded(self):
        doc = serve_metrics_json(serve_seeded_recorder())
        assert doc["metrics"]["schema"] == "papar.metrics"
        assert "serve.rebalance_wall_s" in doc["metrics"]["histograms"]

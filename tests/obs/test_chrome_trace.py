"""The Chrome trace-event exporter: loadable format, one track per rank."""

import json

import numpy as np
import pytest

from repro.obs import DRIVER_PID, Recorder, chrome_trace, write_chrome_trace


def seeded_recorder():
    rec = Recorder()
    rec.record_span("plan:wf", "plan", rank=None, start_virtual=0.0, end_virtual=4.0)
    rec.record_span("sort", "job", rank=0, start_virtual=0.0, end_virtual=2.0,
                    attrs={"job_index": 0})
    rec.record_span("sort", "job", rank=1, start_virtual=0.0, end_virtual=3.0)
    rec.instant("crash", category="fault", rank=1, ts_virtual=1.5)
    return rec


class TestChromeTrace:
    def test_top_level_shape(self):
        doc = chrome_trace(seeded_recorder())
        assert set(doc) == {"traceEvents", "displayTimeUnit", "otherData"}
        assert doc["displayTimeUnit"] == "ms"
        assert doc["otherData"]["time_basis"] == "virtual"

    def test_spans_become_complete_events_in_microseconds(self):
        doc = chrome_trace(seeded_recorder())
        x = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(x) == 3
        rank0 = next(e for e in x if e["pid"] == 0)
        assert rank0["name"] == "sort"
        assert rank0["cat"] == "job"
        assert rank0["ts"] == 0.0
        assert rank0["dur"] == pytest.approx(2.0 * 1e6)
        assert rank0["args"] == {"job_index": 0}

    def test_one_process_per_rank_and_a_driver_track(self):
        doc = chrome_trace(seeded_recorder())
        x_pids = {e["pid"] for e in doc["traceEvents"] if e["ph"] in ("X", "i")}
        assert x_pids == {0, 1, DRIVER_PID}
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        names = {e["pid"]: e["args"]["name"] for e in meta
                 if e["name"] == "process_name"}
        assert names == {0: "rank 0", 1: "rank 1", DRIVER_PID: "driver"}
        sort_index = {e["pid"]: e["args"]["sort_index"] for e in meta
                      if e["name"] == "process_sort_index"}
        assert sort_index[DRIVER_PID] == -1  # driver sorts above the ranks

    def test_instants_are_process_scoped(self):
        doc = chrome_trace(seeded_recorder())
        inst = next(e for e in doc["traceEvents"] if e["ph"] == "i")
        assert inst["name"] == "crash"
        assert inst["s"] == "p"
        assert inst["pid"] == 1
        assert inst["ts"] == pytest.approx(1.5 * 1e6)

    def test_wall_fallback_when_no_virtual_time(self):
        rec = Recorder()
        with rec.span("only-wall"):
            pass
        doc = chrome_trace(rec)
        assert doc["otherData"]["time_basis"] == "wall"
        assert doc["traceEvents"][0]["dur"] >= 0.0

    def test_explicit_basis_validated(self):
        with pytest.raises(ValueError, match="time_basis"):
            chrome_trace(Recorder(), time_basis="simulated")

    def test_written_file_is_plain_json(self, tmp_path):
        path = tmp_path / "trace.json"
        returned = write_chrome_trace(str(path), seeded_recorder())
        loaded = json.loads(path.read_text())
        assert loaded == returned
        assert len(loaded["traceEvents"]) > 0

    def test_events_are_ordered_by_content(self):
        """pid, ts, the longest span first, then name: not completion order."""
        rec = Recorder()
        rec.record_span("b", "job", rank=0, start_virtual=1.0, end_virtual=2.0)
        rec.record_span("a", "job", rank=0, start_virtual=1.0, end_virtual=2.0)
        rec.record_span("outer", "job", rank=0, start_virtual=1.0, end_virtual=5.0)
        rec.record_span("first", "job", rank=1, start_virtual=0.0, end_virtual=1.0)
        rec.record_span("early", "job", rank=0, start_virtual=0.5, end_virtual=0.6)
        events = [e for e in chrome_trace(rec)["traceEvents"] if e["ph"] == "X"]
        assert [e["name"] for e in events] == ["early", "outer", "a", "b", "first"]


def test_two_identical_virtual_time_runs_write_the_same_bytes(tmp_path):
    """The BLAST workflow on mpi@4 under a cluster model, twice: the ranks
    finish their spans in a different order each run, the trace does not."""
    from repro import PaPar
    from repro.cluster import INFINIBAND_QDR, ClusterModel
    from repro.config import BLAST_INPUT_XML
    from repro.config.examples import BLAST_WORKFLOW_XML
    from repro.core.dataset import Dataset
    from repro.formats import BLAST_INDEX_SCHEMA

    papar = PaPar()
    papar.register_input(BLAST_INPUT_XML)
    sizes = np.random.default_rng(17).integers(10, 800, size=300)
    rows = [(i, int(s), i, 40) for i, s in enumerate(sizes)]
    traces = []
    for run in range(2):
        rec = Recorder()
        papar.run(BLAST_WORKFLOW_XML,
                  {"input_path": "/in", "output_path": "/out", "num_partitions": 4},
                  data=Dataset.from_rows(BLAST_INDEX_SCHEMA, rows), backend="mpi",
                  num_ranks=4, recorder=rec,
                  cluster=ClusterModel(num_nodes=2, ranks_per_node=2, network=INFINIBAND_QDR))
        path = tmp_path / f"trace-{run}.json"
        write_chrome_trace(str(path), rec)
        traces.append(path.read_bytes())
    assert chrome_trace(rec)["otherData"]["time_basis"] == "virtual"
    assert traces[0] == traces[1]

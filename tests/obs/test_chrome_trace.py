"""The Chrome trace-event exporter: loadable format, one track per rank."""

import json

import pytest

from repro.obs import DRIVER_PID, Recorder, chrome_trace, write_chrome_trace


def seeded_recorder():
    rec = Recorder()
    rec.record_span("plan:wf", "plan", rank=None, start_wall=0.0, end_wall=4.0)
    rec.record_span("sort", "job", rank=0, start_wall=0.0, end_wall=2.0,
                    attrs={"job_index": 0})
    rec.record_span("sort", "job", rank=1, start_wall=0.0, end_wall=3.0)
    rec.instant("crash", category="fault", rank=1)
    return rec


class TestChromeTrace:
    def test_top_level_shape(self):
        doc = chrome_trace(seeded_recorder())
        assert set(doc) == {"traceEvents", "displayTimeUnit", "otherData"}
        assert doc["displayTimeUnit"] == "ms"
        assert doc["otherData"] == {"tool": "papar-obs"}

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
        assert inst["ts"] >= 0.0  # wall microseconds since the recorder began

    def test_wall_fallback_when_no_virtual_time(self):
        """Every trace is wall time: a span measured by the recorder itself."""
        rec = Recorder()
        with rec.span("only-wall"):
            pass
        doc = chrome_trace(rec)
        assert doc["traceEvents"][0]["dur"] >= 0.0

    def test_written_file_is_plain_json(self, tmp_path):
        path = tmp_path / "trace.json"
        returned = write_chrome_trace(str(path), seeded_recorder())
        loaded = json.loads(path.read_text())
        assert loaded == returned
        assert len(loaded["traceEvents"]) > 0

    def test_events_are_ordered_by_content(self):
        """pid, ts, the longest span first, then name: not completion order."""
        rec = Recorder()
        rec.record_span("b", "job", rank=0, start_wall=1.0, end_wall=2.0)
        rec.record_span("a", "job", rank=0, start_wall=1.0, end_wall=2.0)
        rec.record_span("outer", "job", rank=0, start_wall=1.0, end_wall=5.0)
        rec.record_span("first", "job", rank=1, start_wall=0.0, end_wall=1.0)
        rec.record_span("early", "job", rank=0, start_wall=0.5, end_wall=0.6)
        events = [e for e in chrome_trace(rec)["traceEvents"] if e["ph"] == "X"]
        assert [e["name"] for e in events] == ["early", "outer", "a", "b", "first"]


"""Adapters folding PerfCounters and fault reports into a recorder."""

from repro.obs import Recorder, record_fault_report, record_perf


class TestRecordPerf:
    def test_summary_becomes_counters_and_gauges(self):
        rec = Recorder()
        record_perf(rec, {
            "records_moved": 10, "bytes_moved": 800,
            "phases": {"sort": {"wall_s": 0.5, "virtual_s": 1.5}},
        })
        assert rec.counter_total("shuffle.records_moved") == 10
        assert rec.gauges[("perf.phase.sort.wall_s", None)] == 0.5
        assert rec.gauges[("perf.phase.sort.virtual_s", None)] == 1.5

    def test_none_summary_is_a_noop(self):
        rec = Recorder()
        record_perf(rec, None)
        assert not rec.counters


class TestRecordFaultReport:
    def test_report_becomes_counters_and_instants(self):
        rec = Recorder()
        record_fault_report(rec, {
            "attempts": 3,
            "backoff_virtual_s": 0.75,
            "recovered_jobs": ["sort"],
            "failures": ["attempt 1: MPIError", "attempt 2: MPIError"],
            "injected": {
                "counts": {"crash": 2},
                "fired": ["crash rank=1 job=0"],
            },
        })
        assert rec.counter_total("fault.attempts") == 3
        assert rec.counter_total("fault.backoff_virtual_s") == 0.75
        assert rec.counter_total("fault.recovered_jobs") == 1
        assert rec.counter_total("fault.injected.crash") == 2
        # failures are recorded live by the recovery loop, not replayed here
        assert [i.category for i in rec.instants] == ["fault.injected"]

    def test_none_report_is_a_noop(self):
        rec = Recorder()
        record_fault_report(rec, None)
        assert not rec.counters and not rec.instants

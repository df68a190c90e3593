"""Span recording: nesting, cross-thread parenting, metrics, thread safety."""

import threading

import pytest

from repro.obs import Recorder


class TestSpanNesting:
    def test_implicit_nesting_follows_the_thread_stack(self):
        rec = Recorder()
        with rec.span("outer") as outer:
            with rec.span("inner"):
                pass
        inner, done_outer = rec.spans
        assert inner.name == "inner"
        assert inner.parent_id == outer.span_id
        assert done_outer.parent_id is None

    def test_siblings_share_a_parent(self):
        rec = Recorder()
        with rec.span("root") as root:
            with rec.span("a"):
                pass
            with rec.span("b"):
                pass
        a, b, _ = rec.spans
        assert a.parent_id == b.parent_id == root.span_id

    def test_explicit_parent_overrides_the_stack(self):
        rec = Recorder()
        with rec.span("root") as root:
            with rec.span("unrelated"):
                with rec.span("child", parent=root):
                    pass
        child = next(s for s in rec.spans if s.name == "child")
        assert child.parent_id == root.span_id

    def test_parent_accepts_a_raw_span_id(self):
        rec = Recorder()
        with rec.span("root") as root:
            pass
        with rec.span("late", parent=root.span_id):
            pass
        assert rec.spans[1].parent_id == root.span_id

    def test_handle_annotate_lands_in_attrs(self):
        rec = Recorder()
        with rec.span("job", attrs={"a": 1}) as h:
            h.annotate(records=42)
        assert rec.spans[0].attrs == {"a": 1, "records": 42}

    def test_span_survives_an_exception(self):
        rec = Recorder()
        with pytest.raises(RuntimeError):
            with rec.span("doomed"):
                raise RuntimeError("boom")
        assert [s.name for s in rec.spans] == ["doomed"]

    def test_wall_clock_read_at_enter_and_exit(self):
        rec = Recorder()
        before = rec.wall_now()
        with rec.span("phase"):
            inside = rec.wall_now()
        span = rec.spans[0]
        assert before <= span.start_wall <= inside <= span.end_wall <= rec.wall_now()
        assert span.wall_duration == span.end_wall - span.start_wall


class TestConcurrency:
    def test_rank_threads_keep_independent_stacks(self):
        """Each thread's spans nest among themselves, all under one root."""
        rec = Recorder()
        n_threads, n_spans = 8, 25

        def rank_program(rank, root):
            for i in range(n_spans):
                with rec.span(f"job{i}", rank=rank, parent=root):
                    with rec.span(f"phase{i}", rank=rank):
                        pass

        with rec.span("plan") as root:
            threads = [
                threading.Thread(target=rank_program, args=(r, root))
                for r in range(n_threads)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

        assert len(rec.spans) == n_threads * n_spans * 2 + 1
        ids = [s.span_id for s in rec.spans]
        assert len(set(ids)) == len(ids)
        by_id = {s.span_id: s for s in rec.spans}
        for rank in range(n_threads):
            spans = rec.rank_spans(rank)
            assert len(spans) == n_spans * 2
            for s in spans:
                if s.name.startswith("phase"):
                    # nested under this rank's own job span, never another rank's
                    assert by_id[s.parent_id].rank == rank
                else:
                    assert s.parent_id == root.span_id

    def test_concurrent_counters_do_not_lose_increments(self):
        rec = Recorder()

        def bump(rank):
            for _ in range(1000):
                rec.count("hits", 1, rank=rank)

        threads = [threading.Thread(target=bump, args=(r,)) for r in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert rec.counter_total("hits") == 6000
        assert rec.counters[("hits", 3)] == 1000


class TestMetricsAndQueries:
    def test_counters_split_by_rank_and_aggregate(self):
        rec = Recorder()
        rec.count("bytes", 10, rank=0)
        rec.count("bytes", 5, rank=1)
        rec.count("bytes", 2)  # global slot
        assert rec.counter_total("bytes") == 17

    def test_gauge_keeps_the_last_value(self):
        rec = Recorder()
        rec.gauge("load", 1.0, rank=0)
        rec.gauge("load", 7.0, rank=0)
        assert rec.gauges[("load", 0)] == 7.0

    def test_histogram_collects_samples(self):
        rec = Recorder()
        for v in (3, 1, 2):
            rec.observe("lat", v)
        assert rec.histograms["lat"] == [3.0, 1.0, 2.0]

    def test_a_window_keeps_the_newest_spans_and_counts_the_rest(self):
        rec = Recorder(window=3)
        for i in range(5):
            rec.record_span(f"s{i}", "serve", rank=None, start_wall=0.0, end_wall=float(i))
        with rec.span("s5"):
            pass
        assert [s.name for s in rec.spans] == ["s3", "s4", "s5"]
        assert rec.spans_dropped == 3
        assert rec.makespan_wall() >= 4.0
        assert Recorder().spans_dropped == 0

    def test_a_window_samples_histograms_but_counts_exactly(self):
        rec = Recorder(window=8)
        for v in range(1000):
            rec.observe("lat", v)
        samples = rec.histograms["lat"]
        assert len(samples) == 8 and set(samples) <= set(map(float, range(1000)))
        assert rec.histogram_totals["lat"] == [1000, sum(range(1000)), 0.0, 999.0]
        # a uniform reservoir: not just the first or the last eight
        assert max(samples) > 8 and min(samples) < 992
        from repro.obs import metrics_json

        doc = metrics_json(rec)
        assert doc["histograms"]["lat"] == {
            "count": 1000, "min": 0.0, "max": 999.0, "mean": 499.5,
            **{p: doc["histograms"]["lat"][p] for p in ("p50", "p95", "p99")},
        }
        assert doc["histograms"]["lat"]["p99"] in samples
        assert doc["spans"]["dropped"] == 0

    def test_instant_records_the_wall_time_it_fired(self):
        rec = Recorder()
        rec.instant("fired", category="fault", rank=2)
        rec.instant("marked")
        assert rec.instants[0].rank == 2
        assert 0.0 <= rec.instants[0].ts_wall <= rec.instants[1].ts_wall <= rec.wall_now()

    def test_record_span_appends_pre_measured_intervals(self):
        rec = Recorder()
        rec.record_span("compute", "trace", rank=1, start_wall=0.5, end_wall=1.5)
        span = rec.spans[0]
        assert (span.rank, span.wall_duration) == (1, 1.0)

    def test_makespans_and_ranks(self):
        rec = Recorder()
        rec.record_span("a", "job", rank=0, start_wall=0.0, end_wall=2.0)
        rec.record_span("b", "job", rank=3, start_wall=1.0, end_wall=5.0)
        assert rec.makespan_wall() == 5.0
        assert rec.ranks() == [0, 3]
        assert [s.name for s in rec.rank_spans(3)] == ["b"]


"""The terminal Gantt / critical-path renderer."""

from repro.obs import Recorder, print_timeline, render_timeline


def seeded_recorder():
    rec = Recorder()
    rec.record_span("plan:wf", "plan", rank=None, start_wall=0.0, end_wall=4.0)
    for rank, (sort_end, distr_end) in enumerate([(2.0, 3.0), (2.5, 4.0)]):
        rec.record_span("sort", "job", rank=rank, start_wall=0.0,
                        end_wall=sort_end, attrs={"operator": "sort"})
        rec.record_span("distr", "job", rank=rank, start_wall=sort_end,
                        end_wall=distr_end, attrs={"operator": "distribute"})
    return rec


class TestRenderTimeline:
    def test_one_gantt_bar_per_rank(self):
        text = render_timeline(seeded_recorder())
        assert "timeline (wall time, makespan 4.000000s)" in text
        assert "rank   0 |" in text
        assert "rank   1 |" in text
        assert "legend:" in text

    def test_glyphs_reflect_operators(self):
        lines = render_timeline(seeded_recorder()).splitlines()
        rank0 = next(line for line in lines if line.startswith("  rank   0"))
        bar = rank0.split("|")[1]
        assert "s" in bar and "d" in bar

    def test_busiest_and_critical_path(self):
        text = render_timeline(seeded_recorder())
        # rank 1 works 4.0s of a 4.0s makespan and finishes last
        assert "busiest rank: 1" in text
        assert "critical path (rank 1, finishes last):" in text
        assert "62.5% of makespan" in text  # sort: 2.5 / 4.0
        assert "37.5% of makespan" in text  # distr: 1.5 / 4.0

    def test_top_spans_listed(self):
        text = render_timeline(seeded_recorder())
        assert "top spans:" in text
        assert "job:sort" in text

    def test_empty_recorder_degrades_gracefully(self):
        text = render_timeline(Recorder())
        assert "(no rank spans recorded)" in text

    def test_print_timeline_noop_without_recorder(self, capsys):
        print_timeline(None)
        assert capsys.readouterr().out == ""
        print_timeline(seeded_recorder())
        assert "timeline" in capsys.readouterr().out

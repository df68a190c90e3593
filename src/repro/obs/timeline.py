"""Terminal Gantt rendering and the critical-path summary.

:func:`render_timeline` turns a :class:`~repro.obs.span.Recorder` into the
text block printed by ``python -m repro run --timeline``: one Gantt bar per
rank over the run's makespan, the busiest rank, the idle fraction of the
total rank-time, the top-5 longest spans, and the critical path — the job
chain of the rank that finishes last, which is the chain any speedup must
shorten.  Every interval is wall time.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.span import Recorder, Span

#: Gantt cell glyphs, by span category (fallback '#')
_GLYPHS = {"sort": "s", "group": "g", "split": "/", "distribute": "d", "shuffle": "x"}


def _bar(spans: list[Span], makespan: float, width: int) -> str:
    cells = [" "] * width
    for span in spans:
        lo = int(span.start_wall / makespan * width)
        hi = max(lo + 1, int(span.end_wall / makespan * width + 0.5))
        glyph = _GLYPHS.get(span.attrs.get("operator", span.category), "#")
        for i in range(lo, min(hi, width)):
            cells[i] = glyph
    return "".join(cells)


def _job_spans(recorder: Recorder, rank: int) -> list[Span]:
    """A rank's top-level job spans, ordered by start time."""
    spans = [s for s in recorder.rank_spans(rank) if s.category == "job"]
    return sorted(spans, key=lambda s: (s.start_wall, s.span_id))


def render_timeline(recorder: Recorder, width: int = 64) -> str:
    """The full terminal summary: Gantt, idle table, top spans, critical path."""
    makespan = recorder.makespan_wall()
    ranks = recorder.ranks()
    lines = [f"timeline (wall time, makespan {makespan:.6f}s)"]
    if not ranks or makespan <= 0.0:
        lines.append("  (no rank spans recorded)")
        return "\n".join(lines)

    # -- Gantt: one bar per rank over [0, makespan) -------------------------
    busy: dict[int, float] = {}
    for rank in ranks:
        spans = _job_spans(recorder, rank)
        busy[rank] = sum(s.wall_duration for s in spans)
        lines.append(f"  rank {rank:>3} |{_bar(spans, makespan, width)}|")
    legend = "  ".join(f"{g}={name}" for name, g in _GLYPHS.items())
    lines.append(f"  legend: {legend}  #=other")

    # -- busiest rank and idle fractions ------------------------------------
    busiest = max(busy, key=lambda r: (busy[r], -r))
    lines.append(
        f"busiest rank: {busiest} "
        f"({busy[busiest]:.6f}s busy, {busy[busiest] / makespan:.1%} of makespan)"
    )
    total_idle = sum(makespan - b for b in busy.values())
    lines.append(f"idle: {total_idle / (makespan * len(ranks)):.1%} of total rank-time")

    # -- top-5 spans by duration ---------------------------------------------
    candidates = [s for s in recorder.spans if s.rank is not None]
    top = sorted(candidates, key=lambda s: (-s.wall_duration, s.span_id))[:5]
    if top:
        lines.append("top spans:")
        for span in top:
            lines.append(
                f"  {span.wall_duration:>12.6f}s  rank {span.rank}  "
                f"{span.category}:{span.name}"
            )

    # -- critical path: the job chain of the last-finishing rank --------------
    def rank_end(rank: int) -> float:
        return max((s.end_wall for s in recorder.rank_spans(rank)), default=0.0)

    critical_rank = max(ranks, key=lambda r: (rank_end(r), -r))
    chain = _job_spans(recorder, critical_rank)
    if chain:
        lines.append(f"critical path (rank {critical_rank}, finishes last):")
        for span in chain:
            d = span.wall_duration
            lines.append(
                f"  {span.name:<24} {d:>12.6f}s  {d / makespan:>6.1%} of makespan"
            )
    return "\n".join(lines)


def print_timeline(recorder: Optional[Recorder], width: int = 64) -> None:
    """Print :func:`render_timeline` (no-op without a recorder)."""
    if recorder is not None:
        print(render_timeline(recorder, width=width))

"""Spans and the thread-safe :class:`Recorder` they are written to.

A :class:`Span` is one named interval of wall time (``perf_counter``, what
the Python process actually spent) on one rank's timeline; what the
modelled hardware would spend is priced from the run's counts instead
(:func:`repro.cluster.model.price`).  Spans nest — plan → job → operator phase
→ shuffle — through a per-thread stack, which matches the execution model
exactly: every simulated MPI rank is one thread, so implicit nesting per
thread gives each rank its own well-formed span tree, all hanging off the
driver's root ``plan`` span.

The :class:`Recorder` is the single sink for the whole run: spans, instant
events (fault firings, retries, marks) and metrics (counters, gauges,
histograms) all land here, and the exporters in
:mod:`repro.obs.export` / :mod:`repro.obs.timeline` read only this object.

Nothing in this module is imported by the runtimes' fast path: a runtime
without a recorder never touches ``repro.obs`` (guarded by
``tests/obs/test_zero_overhead.py``).
"""

from __future__ import annotations

import random
import threading
import time
from collections import deque
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, replace
from typing import Any, Iterable, Iterator, NamedTuple, Optional


class Span(NamedTuple):
    """One completed named interval on one rank's (or the driver's) timeline."""

    #: recorder-unique id (allocation order, stable for a deterministic run)
    span_id: int
    #: id of the enclosing span, or ``None`` for a root
    parent_id: Optional[int]
    name: str
    #: coarse grouping used as the Chrome-trace category ("plan", "job",
    #: "sort", "shuffle", ...)
    category: str
    #: owning rank; ``None`` marks a driver-side span
    rank: Optional[int]
    #: wall-time interval in seconds since the recorder was created
    start_wall: float
    end_wall: float
    #: free-form annotations (job index, record counts, ...)
    attrs: dict[str, Any]

    @property
    def wall_duration(self) -> float:
        """Wall-clock seconds covered by this span."""
        return self.end_wall - self.start_wall


@dataclass(frozen=True)
class InstantEvent:
    """A zero-duration annotation (fault firing, retry, checkpoint, mark)."""

    name: str
    category: str
    rank: Optional[int]
    ts_wall: float
    attrs: dict[str, Any] = field(default_factory=dict)


class _SpanHandle:
    """What :meth:`Recorder.span` yields: the open span's identity.

    Passing a handle as ``parent=`` links spans across threads (the runtimes
    hand the driver's root handle to every rank thread).
    """

    __slots__ = ("span_id", "attrs")

    def __init__(self, span_id: int, attrs: dict[str, Any]) -> None:
        self.span_id = span_id
        self.attrs = attrs

    def annotate(self, **kv: Any) -> None:
        """Attach attributes to the span while it is still open."""
        self.attrs.update(kv)


#: the ``window`` of a long-lived process's recorder (the ``serve`` daemon)
SERVICE_WINDOW = 4096


class Recorder:
    """Thread-safe collector of spans, instant events and metrics.

    One recorder observes one execution (possibly spanning several fault
    -tolerance attempts).  All mutating methods may be called concurrently
    from every rank thread; span nesting is tracked per thread.

    A run ends, so by default everything is kept.  A daemon does not:
    ``window`` bounds what one recorder holds to the newest ``window``
    spans (:attr:`spans_dropped` counts the rest) and a uniform sample of
    ``window`` values per histogram, whose count, sum, min and max stay
    exact (:attr:`histogram_totals`).
    """

    def __init__(self, window: Optional[int] = None) -> None:
        self._lock = threading.Lock()
        self._tls = threading.local()
        self._next_id = 0
        self._wall_epoch = time.perf_counter()
        self._window = window
        self._rng = random.Random(0)
        #: completed spans, in completion order (the newest ``window`` of them)
        self.spans: Any = [] if window is None else deque(maxlen=window)
        #: completed spans no longer held because the window moved past them
        self.spans_dropped = 0
        #: instant events, in emission order
        self.instants: list[InstantEvent] = []
        #: (name, rank) -> accumulated value; rank ``None`` aggregates globally
        self.counters: dict[tuple[str, Optional[int]], float] = {}
        #: (name, rank) -> last value set
        self.gauges: dict[tuple[str, Optional[int]], float] = {}
        #: name -> observed samples (a reservoir of ``window`` of them at most)
        self.histograms: dict[str, list[float]] = {}
        #: name -> ``[count, sum, min, max]`` over every observation, exact
        self.histogram_totals: dict[str, list[float]] = {}

    # -- span recording ------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def _wall_now(self) -> float:
        return time.perf_counter() - self._wall_epoch

    def wall_now(self) -> float:
        """Seconds since this recorder's wall epoch.

        The timestamp basis of every recorded span's wall times — callers
        that measure intervals themselves (the serve daemon's per-request
        spans cross ``await`` boundaries, so a context manager would nest
        wrongly) stamp :meth:`record_span` with values from here.
        """
        return self._wall_now()

    def rebase(self, origin: float) -> None:
        """Move the wall epoch ``origin`` seconds later, re-stamping every
        held span and instant: a run measured from its plan's start, not
        from the imports and input read before it."""
        with self._lock:
            self._wall_epoch += origin
            held = [s._replace(start_wall=s.start_wall - origin, end_wall=s.end_wall - origin)
                    for s in self.spans]
            self.spans.clear()
            self.spans.extend(held)
            self.instants = [replace(e, ts_wall=e.ts_wall - origin) for e in self.instants]

    @contextmanager
    def span(
        self,
        name: str,
        category: str = "",
        rank: Optional[int] = None,
        parent: Any = None,
        attrs: Optional[dict[str, Any]] = None,
    ) -> Iterator[_SpanHandle]:
        """Record an interval of wall time (``perf_counter``).

        ``parent`` (a handle, a span id, or ``None``) overrides the implicit
        per-thread nesting — used to hang rank-thread spans off the driver's
        root span.  The yielded handle can ``annotate(...)`` the open span.
        """
        stack = self._stack()
        if parent is None:
            parent_id: Optional[int] = stack[-1] if stack else None
        else:
            parent_id = parent.span_id if isinstance(parent, _SpanHandle) else int(parent)
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        handle = _SpanHandle(span_id, dict(attrs or {}))
        start_wall = self._wall_now()
        stack.append(span_id)
        try:
            yield handle
        finally:
            stack.pop()
            done = Span(
                span_id=span_id,
                parent_id=parent_id,
                name=name,
                category=category,
                rank=rank,
                start_wall=start_wall,
                end_wall=self._wall_now(),
                attrs=handle.attrs,
            )
            with self._lock:
                self._keep(done)

    def record_span(
        self,
        name: str,
        category: str,
        rank: Optional[int],
        start_wall: float,
        end_wall: float,
        parent: Any = None,
        attrs: Optional[dict[str, Any]] = None,
    ) -> None:
        """Append an already-measured interval (the adapters' entry point)."""
        parent_id = parent.span_id if isinstance(parent, _SpanHandle) else parent
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
            self._keep(
                Span(
                    span_id=span_id,
                    parent_id=parent_id,
                    name=name,
                    category=category,
                    rank=rank,
                    start_wall=start_wall,
                    end_wall=end_wall,
                    attrs=dict(attrs or {}),
                )
            )

    def record_spans(
        self, name: str, category: str, intervals: Iterable[tuple[float, float, dict]]
    ) -> None:
        """Append driver-side wall intervals of one name under one lock —
        ``(start_wall, end_wall, attrs)`` each, ``attrs`` kept as given (a
        daemon's requests, recorded a batch at a time)."""
        with self._lock:
            for start_wall, end_wall, attrs in intervals:
                self._keep(Span(self._next_id, None, name, category, None,
                                start_wall, end_wall, attrs))
                self._next_id += 1

    def _keep(self, span: Span) -> None:
        """Append a completed span (lock held); a full window drops its oldest."""
        if len(self.spans) == self._window:
            self.spans_dropped += 1
        self.spans.append(span)

    def instant(
        self,
        name: str,
        category: str = "mark",
        rank: Optional[int] = None,
        attrs: Optional[dict[str, Any]] = None,
    ) -> None:
        """Record a zero-duration event at the current wall time."""
        event = InstantEvent(
            name=name,
            category=category,
            rank=rank,
            ts_wall=self._wall_now(),
            attrs=dict(attrs or {}),
        )
        with self._lock:
            self.instants.append(event)

    # -- metrics -------------------------------------------------------------

    def count(self, name: str, value: float = 1, rank: Optional[int] = None) -> None:
        """Add ``value`` to counter ``name`` (per rank when ``rank`` is given)."""
        with self._lock:
            key = (name, rank)
            self.counters[key] = self.counters.get(key, 0) + value

    def gauge(self, name: str, value: float, rank: Optional[int] = None) -> None:
        """Set gauge ``name`` to its latest ``value``."""
        with self._lock:
            self.gauges[(name, rank)] = value

    def observe(self, name: str, value: float) -> None:
        """Add one sample to histogram ``name``."""
        self.observe_many(name, (value,))

    def observe_many(self, name: str, values: Iterable[float]) -> None:
        """Add samples to histogram ``name`` in order, under one lock."""
        with self._lock:
            samples = self.histograms.setdefault(name, [])
            totals = self.histogram_totals.get(name)
            for value in values:
                value = float(value)
                if totals is None:
                    totals = self.histogram_totals[name] = [0, 0.0, value, value]
                totals[0] += 1
                totals[1] += value
                totals[2] = min(totals[2], value)
                totals[3] = max(totals[3], value)
                if len(samples) != self._window:
                    samples.append(value)
                else:  # Algorithm R: every observation is equally likely to be held
                    slot = self._rng.randrange(totals[0])
                    if slot < len(samples):
                        samples[slot] = value

    # -- queries -------------------------------------------------------------

    def counter_total(self, name: str) -> float:
        """Sum of counter ``name`` over every rank (and the global slot)."""
        with self._lock:
            return sum(v for (n, _r), v in self.counters.items() if n == name)

    def rank_spans(self, rank: int) -> list[Span]:
        """All completed spans owned by ``rank``, in completion order."""
        with self._lock:
            return [s for s in self.spans if s.rank == rank]

    def makespan_wall(self) -> float:
        """Latest wall end time across all spans."""
        with self._lock:
            return max((s.end_wall for s in self.spans), default=0.0)

    def ranks(self) -> list[int]:
        """Sorted rank ids that own at least one span."""
        with self._lock:
            return sorted({s.rank for s in self.spans if s.rank is not None})


def maybe_span(recorder: Optional[Recorder], *args: Any, **kwargs: Any):
    """``recorder.span(...)`` when a recorder is attached, else a no-op context."""
    if recorder is None:
        return nullcontext()
    return recorder.span(*args, **kwargs)

"""Hierarchical spans over *simulated* time.

The paper's whole evaluation is observational — makespan, per-SeD load
balance (the Figure 4 Gantt), finding time, latency, middleware overhead —
so the reproduction records the same raw material the way a modern
telemetry stack would: as **spans**.  A span is a named interval on a
*track* (a request, a SeD, the engine itself) with a start/end stamp in
simulated seconds, a category, free-form attributes and a parent — the
open-span stack of its track at begin time — forming the
campaign → request → phase hierarchy the exporters and the profiler
consume.

Recording never touches the event queue: a span begin/end is pure Python
bookkeeping around timestamps the call site already read from
``engine.now``, so runs with tracing enabled execute the *identical* event
stream as runs without (the kernel determinism suite pins this).

Lifecycle discipline:

* spans on one track close in LIFO order (children before parents);
  :meth:`SpanStore.end` tolerates a violated order by force-closing the
  intervening spans with status ``"interrupted"`` rather than corrupting
  the stack;
* a crash/dead-letter path closes a whole track at once
  (:meth:`SpanStore.unwind`) with an abnormal status, so failure paths
  never leak open spans;
* whatever is still open when a run finishes is closed by
  :meth:`SpanStore.close_all` with status ``"lost"``.

Normal ends carry status ``"ok"``.  :meth:`SpanStore.find` filters on
status only when asked to; :meth:`SpanStore.gantt` keeps a span that did
not close ``"ok"`` as a ``(start, None, request_id)`` row — its start is
a real stamp, its end marks an abort or a crash, not the end of a solve.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Tuple

__all__ = ["Span", "Mark", "SpanStore"]


class Span:
    """One named interval on a track, in simulated seconds."""

    __slots__ = (
        "span_id",
        "track",
        "name",
        "category",
        "start",
        "end",
        "parent_id",
        "status",
        "attrs",
        "child_time",
    )

    def __init__(
        self,
        span_id: int,
        track: str,
        name: str,
        category: str,
        start: float,
        parent_id: Optional[int],
        attrs: Optional[Dict[str, Any]],
    ):
        self.span_id = span_id
        self.track = track
        self.name = name
        self.category = category
        self.start = start
        #: ``None`` while open; the close stamp afterwards (abnormal closes
        #: stamp the unwind time — ``status`` says whether to trust it).
        self.end: Optional[float] = None
        self.parent_id = parent_id
        #: ``None`` open, ``"ok"`` normal close, ``"error"`` / ``"aborted"``
        #: / ``"interrupted"`` / ``"lost"`` abnormal closes.
        self.status: Optional[str] = None
        self.attrs: Dict[str, Any] = attrs or {}
        #: Summed duration of direct children (maintained at child close),
        #: so ``self_time`` needs no tree walk.
        self.child_time = 0.0

    @property
    def open(self) -> bool:
        return self.status is None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def duration(self) -> Optional[float]:
        if self.end is None:
            return None
        return self.end - self.start

    @property
    def self_time(self) -> Optional[float]:
        """Duration minus time attributed to direct children."""
        d = self.duration
        if d is None:
            return None
        return max(d - self.child_time, 0.0)

    # __slots__ classes pickle fine by default; spans must cross process
    # boundaries inside detached campaign results (the parallel runner).

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "open" if self.open else f"{self.status}@{self.end:g}"
        return (
            f"<Span {self.category}:{self.name} track={self.track!r} "
            f"start={self.start:g} {state}>"
        )


class Mark:
    """An instant event on a track (crash, restart, deregistration, ...)."""

    __slots__ = ("track", "name", "time", "attrs")

    def __init__(
        self,
        track: str,
        name: str,
        time: float,
        attrs: Optional[Dict[str, Any]],
    ):
        self.track = track
        self.name = name
        self.time = time
        self.attrs: Dict[str, Any] = attrs or {}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Mark {self.name} track={self.track!r} t={self.time:g}>"


class SpanStore:
    """Append-only store of spans + instant marks, with per-track stacks."""

    def __init__(self):
        #: Every span ever begun, in begin order.
        self.spans: List[Span] = []
        #: Instant events, in emit order.
        self.marks: List[Mark] = []
        self._open: Dict[str, List[Span]] = {}
        self._next_id = 0

    # -- recording -----------------------------------------------------------

    def begin(
        self,
        track: str,
        name: str,
        t: float,
        category: str = "phase",
        **attrs: Any,
    ) -> Span:
        """Open a span on ``track`` at simulated time ``t``."""
        stack = self._open.get(track)
        if stack is None:
            stack = self._open[track] = []
        parent_id = stack[-1].span_id if stack else None
        span = Span(self._next_id, track, name, category, t, parent_id, attrs or None)
        self._next_id += 1
        self.spans.append(span)
        stack.append(span)
        return span

    def end(self, span: Span, t: float, status: str = "ok", **attrs: Any) -> Span:
        """Close ``span`` at ``t``.

        LIFO per track: ``span`` is expected to be the top of its track's
        stack.  If children were left open above it they are force-closed
        first with status ``"interrupted"`` — the store never corrupts its
        stacks, and the leak is visible in the data instead of silent.
        """
        if not span.open:
            return span
        stack = self._open.get(span.track, [])
        while stack and stack[-1] is not span:
            self._close(stack.pop(), t, "interrupted")
        if stack:
            stack.pop()
        self._close(span, t, status)
        if attrs:
            span.attrs.update(attrs)
        return span

    def _close(self, span: Span, t: float, status: str) -> None:
        span.end = t
        span.status = status
        if span.parent_id is not None:
            stack = self._open.get(span.track)
            if stack and stack[-1].span_id == span.parent_id:
                stack[-1].child_time += t - span.start

    def unwind(self, track: str, t: float, status: str = "aborted") -> int:
        """Close every open span on ``track`` (innermost first); count them.

        The crash/dead-letter path: a SeD dying mid-solve (or a request
        erroring out) must not leak open spans.
        """
        stack = self._open.get(track)
        if not stack:
            return 0
        n = len(stack)
        while stack:
            self._close(stack.pop(), t, status)
        return n

    def close_all(self, t: float) -> int:
        """End-of-run sweep: close whatever is still open, on every track,
        as ``"lost"``."""
        n = 0
        for track in list(self._open):
            n += self.unwind(track, t, "lost")
        return n

    def mark(self, track: str, name: str, t: float, **attrs: Any) -> Mark:
        """Record an instant event (crash, restart, deregistration, ...)."""
        mk = Mark(track, name, t, attrs or None)
        self.marks.append(mk)
        return mk

    # -- introspection ---------------------------------------------------------

    @property
    def open_count(self) -> int:
        return sum(len(stack) for stack in self._open.values())

    def open_spans(self, track: Optional[str] = None) -> List[Span]:
        if track is not None:
            return list(self._open.get(track, []))
        return [s for stack in self._open.values() for s in stack]

    def open_span(self, track: str, name: str) -> Optional[Span]:
        """Innermost open span named ``name`` on ``track``, or None.

        How one component closes a span another component opened (the SeD
        ends the ``transfer`` span the client began).
        """
        for span in reversed(self._open.get(track, ())):
            if span.name == name:
                return span
        return None

    def tracks(self) -> List[str]:
        seen: Dict[str, None] = {}
        for span in self.spans:
            seen.setdefault(span.track, None)
        for mk in self.marks:
            seen.setdefault(mk.track, None)
        return list(seen)

    # -- queries ----------------------------------------------------------------

    def find(
        self,
        name: Optional[str] = None,
        category: Optional[str] = None,
        status: Optional[str] = None,
        **attrs: Any,
    ) -> Iterator[Span]:
        """Spans matching every given filter, in begin order.

        ``attrs`` filters compare against :attr:`Span.attrs` entries
        (a span without the key never matches).
        """
        for span in self.spans:
            if name is not None and span.name != name:
                continue
            if category is not None and span.category != category:
                continue
            if status is not None and span.status != status:
                continue
            if attrs:
                sa = span.attrs
                if any(k not in sa or sa[k] != v for k, v in attrs.items()):
                    continue
            yield span

    def first(self, **kwargs: Any) -> Optional[Span]:
        for span in self.find(**kwargs):
            return span
        return None

    def gantt(
        self,
        category: str = "solve",
        **filters: Any,
    ) -> Dict[str, List[Tuple[float, Optional[float], Any]]]:
        """Per-SeD ``(start, end, request_id)`` rows for a timeline chart.

        Spans that did not close normally contribute ``(start, None, rid)``
        — their start is a real stamp, their end is not (``svg_gantt`` marks
        them; :meth:`Tracer.gantt`, the figures' series, leaves them out).
        """
        chart: Dict[str, List[Tuple[float, Optional[float], Any]]] = {}
        for span in self.find(category=category, **filters):
            group = span.attrs.get("sed")
            if group is None:
                continue
            end = span.end if span.ok else None
            chart.setdefault(group, []).append(
                (span.start, end, span.attrs.get("request_id"))
            )
        for rows in chart.values():
            rows.sort(key=lambda r: (r[0], r[2] if r[2] is not None else -1))
        return chart

"""Unified observability: spans, exporters, profiling.

One :class:`Observability` object travels with a deployment (reachable as
``tracer.obs`` from every client, agent and SeD): a
:class:`~repro.obs.spans.SpanStore` holding the campaign → request → phase
span hierarchy plus crash/restart marks.  It records pure Python data
stamped with simulated time the call site already read — **never** events
— so enabling observability cannot perturb the simulated execution (the
kernel determinism suite pins the event stream with it on and off).

Spans are the only ``observe``-gated record.  A count is a plain attribute
of the component that decides it, always on (``fabric.accounting``,
``DataGridStats``, ``MemoStats``, ``Network.bytes_total``, ...; the table
is in DESIGN.md "Observability") and is read there.

Zero cost when disabled: every emission site guards on ``obs.enabled``
(one attribute read), and components created without an explicit
Observability share the :data:`NULL_OBS` singleton, which is permanently
disabled.
"""

from __future__ import annotations

from .export import chrome_trace, svg_gantt, write_chrome_trace
from .profiling import ProfileRow, aggregate_self_times, profile_report
from .spans import Mark, Span, SpanStore

__all__ = [
    "Mark",
    "NULL_OBS",
    "Observability",
    "ProfileRow",
    "Span",
    "SpanStore",
    "aggregate_self_times",
    "chrome_trace",
    "profile_report",
    "svg_gantt",
    "write_chrome_trace",
]


class Observability:
    """The span store behind one enable switch."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans = SpanStore()

    def finalize(self, t: float) -> int:
        """End-of-run sweep: close any span still open (status ``"lost"``).

        Returns how many were closed — 0 on a healthy run.
        """
        if not self.enabled:
            return 0
        return self.spans.close_all(t)


#: The shared disabled instance every component defaults to.  Emission
#: sites guard on ``obs.enabled``, so nothing is ever recorded into it.
NULL_OBS = Observability(enabled=False)

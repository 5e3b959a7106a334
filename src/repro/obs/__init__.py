"""Unified observability: spans, metrics, exporters, profiling.

One :class:`Observability` object travels with a deployment (reachable as
``tracer.obs`` from every client, agent and SeD): a
:class:`~repro.obs.spans.SpanStore` holding the campaign → request → phase
span hierarchy plus crash/restart marks, and a
:class:`~repro.obs.metrics.MetricsRegistry` of per-SeD/per-cluster
instruments.  Both record pure Python data stamped with simulated time the
call site already read — **never** events — so enabling observability
cannot perturb the simulated execution (the kernel determinism suite pins
the event stream with it on and off).

Zero cost when disabled: every emission site guards on ``obs.enabled``
(one attribute read), and components created without an explicit
Observability share the :data:`NULL_OBS` singleton, which is permanently
disabled.
"""

from __future__ import annotations

from typing import Any

from .export import chrome_trace, svg_gantt, write_chrome_trace
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .profiling import ProfileRow, aggregate_self_times, profile_report
from .spans import Mark, Span, SpanStore

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Mark",
    "MetricsRegistry",
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
    """Span store + metrics registry behind one enable switch."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans = SpanStore()
        self.metrics = MetricsRegistry()

    def finalize(self, t: float) -> int:
        """End-of-run sweep: close any span still open (status ``"lost"``).

        Returns how many were closed — 0 on a healthy run.
        """
        if not self.enabled:
            return 0
        return self.spans.close_all(t)

    def collect_transport(self, fabric: Any, t: float) -> None:
        """Snapshot the transport accounting counters into the registry.

        The per-message counting stays in the fabric's
        :class:`~repro.core.transport.Accounting` (the hot path);
        this folds its totals into the registry at report time so transport
        traffic sits beside the span-derived metrics.
        """
        if not self.enabled:
            return
        acct = fabric.accounting
        self.metrics.counter("transport.messages").inc(acct.messages_sent, t)
        self.metrics.counter("transport.bytes").inc(acct.bytes_sent, t)
        for op, n in sorted(acct.messages_by_op.items()):
            self.metrics.counter("transport.messages_by_op", op=op).inc(n, t)
        self.metrics.counter("transport.dropped").inc(acct.messages_dropped, t)
        self.metrics.counter("transport.dead_letters").inc(acct.dead_letters, t)
        self.metrics.counter("transport.replies_suppressed").inc(
            acct.replies_suppressed, t
        )

    def collect_network(self, network: Any, t: float) -> None:
        """Snapshot the network's byte counters (total and WAN-crossing).

        Like :meth:`collect_transport`, the per-transfer counting lives in
        :class:`~repro.sim.network.Network` itself (plain integer adds on
        the transfer path); this folds the totals into the registry.
        """
        if not self.enabled:
            return
        self.metrics.counter("network.bytes_total").inc(network.bytes_total, t)
        self.metrics.counter("network.bytes_wan").inc(network.bytes_wan, t)

    def collect_data(self, grid: Any, t: float) -> None:
        """Snapshot a :class:`~repro.data.manager.DataGrid`'s counters.

        Hits/misses, bytes moved vs saved, evictions, replica and
        coalescing counts all land as ``data.*`` counters beside the
        transfer spans the managers record live.
        """
        if not self.enabled:
            return
        for name, value in sorted(grid.stats.as_dict().items()):
            self.metrics.counter(f"data.{name}").inc(value, t)


#: The shared disabled instance every component defaults to.  Emission
#: sites guard on ``obs.enabled``, so nothing is ever recorded into it.
NULL_OBS = Observability(enabled=False)

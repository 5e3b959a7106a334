"""LogService-like tracing: the raw material of Figures 4 and 5.

DIET deployments collect middleware events with LogService.  The
:class:`Tracer` plays that role: every phase of every request is recorded
with simulated timestamps, and accessors produce exactly the series the
paper plots —

* **finding time** per request (Figure 5): submit -> SeD chosen;
* **latency** per request (Figure 5): SeD chosen -> solve actually starts
  (data transfer + queue wait + service initiation);
* the **Gantt chart** (Figure 4 left): per-SeD (start, end) solve spans;
* per-SeD **busy time** and request counts (Figure 4 right).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..obs import NULL_OBS, Observability

__all__ = ["RequestTrace", "Tracer"]


@dataclass(slots=True)
class RequestTrace:
    """Lifecycle timestamps of one request (simulated seconds).

    One record per request id, written by the two components that live the
    lifecycle: :meth:`DietClient.call <repro.core.client.DietClient.call>`
    stamps ``submitted_at``, ``found_at`` + ``sed_name``, ``data_sent_at``
    and ``completed_at`` + ``status``; ``SeD._handle_solve`` stamps
    ``data_arrived_at``, ``init_started_at`` and the solve window.  A
    request that never completes keeps ``completed_at`` and ``status`` None.

    ``slots=True``: campaigns create one record per request and stamp each
    field once — slots make those attribute writes cheaper and the records
    smaller.
    """

    request_id: int
    service: str
    submitted_at: Optional[float] = None
    found_at: Optional[float] = None
    sed_name: Optional[str] = None
    data_sent_at: Optional[float] = None
    #: SeD side: solve request delivered, the queue wait begins.
    data_arrived_at: Optional[float] = None
    #: SeD side: job slot granted, service initiation begins.
    init_started_at: Optional[float] = None
    solve_started_at: Optional[float] = None
    solve_ended_at: Optional[float] = None
    completed_at: Optional[float] = None
    status: Optional[int] = None

    @property
    def finding_time(self) -> Optional[float]:
        if self.submitted_at is None or self.found_at is None:
            return None
        return self.found_at - self.submitted_at

    @property
    def latency(self) -> Optional[float]:
        """Paper §5.2: client->SeD data send + service initiation, including
        the wait for the SeD to become free."""
        if self.found_at is None or self.solve_started_at is None:
            return None
        return self.solve_started_at - self.found_at

    @property
    def queue_wait(self) -> Optional[float]:
        """Time between data arrival at the SeD and the job slot opening —
        the workload-induced wait the paper excludes from overhead."""
        if self.data_arrived_at is None or self.init_started_at is None:
            return None
        return self.init_started_at - self.data_arrived_at

    @property
    def initiation_time(self) -> Optional[float]:
        """Pure service initiation (fork + MPI env setup), queue wait
        excluded — the paper's §5.2 "about 20.8 ms" per execution."""
        if self.init_started_at is None or self.solve_started_at is None:
            return None
        return self.solve_started_at - self.init_started_at

    @property
    def solve_duration(self) -> Optional[float]:
        if self.solve_started_at is None or self.solve_ended_at is None:
            return None
        return self.solve_ended_at - self.solve_started_at

    @property
    def total_time(self) -> Optional[float]:
        if self.submitted_at is None or self.completed_at is None:
            return None
        return self.completed_at - self.submitted_at


class Tracer:
    """Collects the :class:`RequestTrace` records of one deployment."""

    def __init__(self, obs: Optional[Observability] = None):
        #: The deployment-wide observability hub; components that hold the
        #: shared tracer reach the span store as ``tracer.obs``.  Defaults to
        #: the permanently-disabled :data:`~repro.obs.NULL_OBS` singleton,
        #: so a bare ``Tracer()`` records exactly what it always did.
        self.obs: Observability = obs if obs is not None else NULL_OBS
        self._traces: Dict[int, RequestTrace] = {}
        #: Records in creation order — the append-only buffer report-time
        #: aggregation works from (the dict above is just the id index).
        self._order: List[RequestTrace] = []

    # -- recording --------------------------------------------------------------

    def trace(self, request_id: int, service: str = "") -> RequestTrace:
        """Get-or-create the record for ``request_id`` (client and SeD each
        call this once per request)."""
        rec = self._traces.get(request_id)
        if rec is None:
            rec = RequestTrace(request_id=request_id, service=service)
            self._traces[request_id] = rec
            self._order.append(rec)
        elif service and not rec.service:
            rec.service = service
        return rec

    # -- series for the figures ----------------------------------------------------

    def all_traces(self, service: Optional[str] = None) -> List[RequestTrace]:
        """Report-time aggregation: sort the append-only record buffer by
        submission time (records are never mutated here, only viewed)."""
        out = self._order if service is None else [
            t for t in self._order if t.service == service]
        return sorted(out, key=lambda t: (t.submitted_at if t.submitted_at is not None
                                          else float("inf"), t.request_id))

    def finding_times(self, service: Optional[str] = None) -> List[float]:
        return [t.finding_time for t in self.all_traces(service)
                if t.finding_time is not None]

    def gantt(self, service: Optional[str] = None) -> Dict[str, List[tuple]]:
        """Per-SeD list of (start, end, request_id) solve spans, sorted."""
        chart: Dict[str, List[tuple]] = {}
        for t in self.all_traces(service):
            if t.sed_name and t.solve_started_at is not None and t.solve_ended_at is not None:
                chart.setdefault(t.sed_name, []).append(
                    (t.solve_started_at, t.solve_ended_at, t.request_id))
        for spans in chart.values():
            spans.sort()
        return chart

    def busy_time_per_sed(self, service: Optional[str] = None) -> Dict[str, float]:
        return {sed: sum(end - start for start, end, _ in spans)
                for sed, spans in self.gantt(service).items()}

    def requests_per_sed(self, service: Optional[str] = None) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for t in self.all_traces(service):
            if t.sed_name is not None:
                counts[t.sed_name] = counts.get(t.sed_name, 0) + 1
        return counts

    # -- export (LogService dumps) ---------------------------------------------------

    _CSV_FIELDS = ("request_id", "service", "sed_name", "submitted_at",
                   "found_at", "data_sent_at", "data_arrived_at",
                   "init_started_at", "solve_started_at",
                   "solve_ended_at", "completed_at", "status",
                   "finding_time", "latency", "queue_wait",
                   "initiation_time", "solve_duration")

    def to_records(self) -> List[dict]:
        """One plain dict per request (raw timestamps + derived metrics)."""
        return [{field: getattr(t, field) for field in self._CSV_FIELDS}
                for t in self.all_traces()]

    def write_csv(self, path: str) -> None:
        """Dump the trace table as CSV (empty cells for missing phases)."""
        import csv

        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=self._CSV_FIELDS)
            writer.writeheader()
            for rec in self.to_records():
                writer.writerow({k: ("" if v is None else v)
                                 for k, v in rec.items()})

    def makespan(self, service: Optional[str] = None) -> Optional[float]:
        traces = [t for t in self.all_traces(service)
                  if t.submitted_at is not None and t.completed_at is not None]
        if not traces:
            return None
        return (max(t.completed_at for t in traces)
                - min(t.submitted_at for t in traces))

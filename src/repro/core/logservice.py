"""LogService: central monitoring as a real middleware component.

DIET deployments run LogCentral, a service that components stream their
events to ("along with omniORB, the monitoring tools, and the client",
§5.1 — the monitoring tools live on the MA node).  The in-process
:class:`~repro.core.statistics.Tracer` gives the *figures* their data; this
component models the monitoring *traffic*: SeDs and the MA post events as
one-way messages that cross the simulated network, arrive with real
latency, and land in the collector's journal.

Events are posted fire-and-forget from a spawned process, so monitoring
never delays the control path (the calibrated finding time is unchanged
whether LogCentral is deployed or not — a test asserts this).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Generator, List, Optional

from ..sim.engine import Engine, Event
from ..sim.network import Host

if TYPE_CHECKING:  # pragma: no cover - typing only (post_event is duck-typed)
    from .transport import Endpoint, TransportFabric

__all__ = ["LogEvent", "LogCentral", "post_event"]


@dataclass(frozen=True)
class LogEvent:
    """One monitoring record as received by LogCentral."""

    recv_time: float       # simulated arrival time at the collector
    sent_time: float       # component-side emission time
    component: str
    kind: str
    info: Dict[str, Any]

    @property
    def transit(self) -> float:
        return self.recv_time - self.sent_time


class LogCentral:
    """The collector: receives ``log_event`` messages, keeps a journal."""

    def __init__(self, fabric: TransportFabric, host: Host,
                 name: str = "LogCentral"):
        self.fabric = fabric
        self.engine: Engine = fabric.engine
        self.name = name
        self.endpoint: Endpoint = fabric.endpoint(name, host.name)
        self.endpoint.on("log_event", self._handle_event)
        self.journal: List[LogEvent] = []

    def launch(self) -> None:
        self.endpoint.start()

    def _handle_event(self, msg) -> Generator[Event, Any, None]:
        payload = msg.payload
        self.journal.append(LogEvent(
            recv_time=self.engine.now,
            sent_time=float(payload.get("time", msg.sent_at)),
            component=str(payload.get("component", msg.src)),
            kind=str(payload.get("kind", "unknown")),
            info=dict(payload.get("info", {}))))
        return
        yield  # pragma: no cover - make this a generator function

    # -- journal queries -----------------------------------------------------------

    def events(self, kind: Optional[str] = None,
               component: Optional[str] = None) -> List[LogEvent]:
        out = self.journal
        if kind is not None:
            out = [e for e in out if e.kind == kind]
        if component is not None:
            out = [e for e in out if e.component == component]
        return list(out)

    def counts_by_kind(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for event in self.journal:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts

    def components_seen(self) -> List[str]:
        return sorted({e.component for e in self.journal})

    def mean_transit(self) -> float:
        if not self.journal:
            raise ValueError("empty journal")
        return sum(e.transit for e in self.journal) / len(self.journal)


def post_event(endpoint: Endpoint, log_central: Optional[str], kind: str,
               **info) -> None:
    """Fire-and-forget monitoring event (no-op without a collector).

    Runs in a spawned process so the caller's control path is not delayed
    by marshalling or transfer time.
    """
    if log_central is None:
        return
    engine = endpoint.fabric.engine
    payload = {"time": engine.now, "component": endpoint.name,
               "kind": kind, "info": info}

    def _poster():
        try:
            yield from endpoint.send(log_central, "log_event", payload)
        except Exception:
            pass  # monitoring must never take the application down

    engine.process(_poster(), name=f"log:{endpoint.name}:{kind}")

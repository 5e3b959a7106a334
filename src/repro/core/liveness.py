"""Heartbeat-based liveness between an agent and its children.

DIET's real hierarchy learns of dead SeDs only when a CORBA call to them
fails; combined with estimate timeouts that makes every scheduling round
pay for every corpse.  The monitor here is the standard fix (and what the
follow-up grid deployments ran operationally): the parent LA pings each
child every ``AgentParams.heartbeat_interval`` seconds, a ping unanswered
within ``heartbeat_timeout`` counts as a miss, and
``heartbeat_miss_threshold`` consecutive misses deregister the child from
the agent — after which scheduling never fans out to it.  A
restarted SeD re-registers explicitly (the ``register`` op), which clears
its miss count and re-adds it to the candidate set.

Probes ride the normal RPC path, so they are charged marshalling + network
time like any other control message and show up in the accounting counters
— liveness is not free, which is exactly the overhead/responsiveness
trade-off the interval expresses.

Deregistration calls :meth:`LocalAgent.remove_child`, which in push
routing mode also invalidates every materialized-table row that arrived
through the dead child and cascades the removals upward (see
:mod:`repro.core.aggregation`) — heartbeats are how push mode learns a
candidate is gone, so push deployments that expect crashes should enable
them; without them stale rows linger until the client's retry path routes
around the dead dispatch.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Tuple, TYPE_CHECKING

from ..sim.engine import Event, Interrupt

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .agent import LocalAgent

__all__ = ["HeartbeatMonitor"]


class HeartbeatMonitor:
    """Pings an agent's children; deregisters the persistently silent.

    The protocol constants are the agent's ``AgentParams.heartbeat_*``; the
    pong timeout is the ``ping`` deadline of the agent's endpoint, like
    every other RPC deadline.
    """

    def __init__(self, agent: "LocalAgent"):
        self.agent = agent
        self._misses: Dict[str, int] = {}
        #: (child, time) re-registrations, in event order.  Deaths are
        #: :attr:`LocalAgent.deregistrations`.
        self.recoveries: List[Tuple[str, float]] = []
        self._proc = None

    def launch(self) -> None:
        """Start the ping loop (idempotent)."""
        if self._proc is None or not self._proc.is_alive:
            self._proc = self.agent.engine.process(
                self._beat_loop(), name=f"heartbeat:{self.agent.name}")

    def stop(self) -> None:
        if self._proc is not None and self._proc.is_alive:
            self._proc.interrupt("monitor stopped")
            self._proc = None

    def note_registered(self, child: str, rejoined: bool) -> None:
        """A child (re-)registered: clear its miss count, log the recovery."""
        self._misses.pop(child, None)
        if rejoined:
            now = self.agent.engine.now
            self.recoveries.append((child, now))
            obs = self.agent.tracer.obs
            if obs.enabled:
                obs.spans.mark(f"agent:{self.agent.name}", "re-register",
                               now, child=child)

    # -- the protocol ---------------------------------------------------------

    def _beat_loop(self) -> Generator[Event, Any, None]:
        engine = self.agent.engine
        try:
            while True:
                yield engine.timeout(self.agent.params.heartbeat_interval)
                # Snapshot: registration during a round must not mutate the
                # list we are iterating; probes run in parallel, in child
                # order, so rounds are deterministic.
                children = list(self.agent.children)
                if not children:
                    continue
                probes = [engine.process(self._probe(c),
                                         name=f"ping:{self.agent.name}->{c}")
                          for c in children]
                yield engine.all_of(probes)
        except Interrupt:
            return

    def _probe(self, child: str) -> Generator[Event, Any, None]:
        try:
            yield from self.agent.endpoint.rpc(child, "ping")
        except Exception:
            # CommunicationError (unresolvable / crashed mid-flight) or
            # DeadlineExceededError (no pong in time): one miss either way.
            misses = self._misses.get(child, 0) + 1
            self._misses[child] = misses
            if misses >= self.agent.params.heartbeat_miss_threshold:
                self._misses.pop(child, None)
                if self.agent.remove_child(child):
                    obs = self.agent.tracer.obs
                    if obs.enabled:
                        obs.spans.mark(f"agent:{self.agent.name}",
                                       "deregister", self.agent.engine.now,
                                       child=child)
            return
        self._misses.pop(child, None)

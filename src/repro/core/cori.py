"""CoRI-like collector of resource information.

DIET's CoRI (Collector of Resource Information) fills the standard tags of
an estimation vector from local probes (CPU load, free memory, ...).  Here
the probes read the simulated host state: queue occupancy of the SeD's job
slot, host speed, free memory from host properties, and a predicted
client->SeD communication time from the network model.

Collection takes simulated time (``collect_time``) — this is a visible part
of the paper's ~50 ms finding time.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from ..sim.engine import Engine, Event
from ..sim.network import Host, Network
from .scheduling import (
    EST_COMMTIME,
    EST_FREECPU,
    EST_FREEMEM,
    EST_NBJOBS,
    EST_SPEED,
    EST_TCOMP,
    EST_TIMESINCELASTSOLVE,
    EstimationVector,
)

__all__ = ["CoRI"]


class CoRI:
    """Per-SeD resource prober."""

    def __init__(self, engine: Engine, host: Host, network: Optional[Network] = None,
                 collect_time: float = 11.3e-3):
        self.engine = engine
        self.host = host
        self.network = network
        self.collect_time = collect_time
        self.last_solve_end: Optional[float] = None

    def note_solve_end(self) -> None:
        self.last_solve_end = self.engine.now

    def collect(self, sed_name: str, n_jobs: int,
                client_host: Optional[str] = None,
                request_nbytes: int = 0,
                predicted_tcomp: Optional[float] = None
                ) -> Generator[Event, Any, EstimationVector]:
        """Process helper: probe the host and build the estimation vector."""
        yield self.engine.timeout(self.collect_time)
        return self.build(sed_name, n_jobs, client_host, request_nbytes,
                          predicted_tcomp)

    def build(self, sed_name: str, n_jobs: int,
              client_host: Optional[str] = None,
              request_nbytes: int = 0,
              predicted_tcomp: Optional[float] = None) -> EstimationVector:
        """Probe the host *now* (no simulated delay) and build the vector.

        Push-mode SeDs pay ``collect_time`` once per state change in their
        push pump and then snapshot with this; pull mode keeps using
        :meth:`collect`, whose delay is part of the per-request finding time.
        """
        host = self.host
        busy = host.cpu.count / max(host.cpu.capacity, 1)
        values = {EST_SPEED: float(host.speed), EST_NBJOBS: float(n_jobs),
                  EST_FREECPU: max(0.0, 1.0 - busy),
                  EST_FREEMEM: float(host.properties.get("memory_gib", 0.0))}
        if self.last_solve_end is not None:
            values[EST_TIMESINCELASTSOLVE] = float(
                self.engine.now - self.last_solve_end)
        if predicted_tcomp is not None:
            values[EST_TCOMP] = float(predicted_tcomp)
        if self.network is not None and client_host is not None:
            values[EST_COMMTIME] = float(self.network.transfer_time(
                client_host, host.name, request_nbytes))
        return EstimationVector(sed_name, values)

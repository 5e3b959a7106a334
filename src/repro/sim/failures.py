"""Crash-and-restart process model for hosts and servers.

The grid experience behind the paper (Grid'5000 best-effort nodes, the CMS
testbeds) is that nodes *disappear* — they do not drain gracefully.  This
module models that as timed outages driven against any *victim* object
exposing ``crash()`` and ``restart()`` (the SeD implements both): at the
scheduled instant the injector calls ``crash()``, which is expected to
interrupt every in-flight activity (solves in ``execute()``, transfers,
RPC handlers), and after the outage duration it calls ``restart()``, after
which the victim is expected to re-join the system on its own (the SeD
re-registers with its LA).

Outages can be written down explicitly (:class:`Outage`) for unit tests, or
drawn from seeded random streams by higher layers (the services workflow
does this) — the injector itself is deliberately deterministic: given the
same outage list it produces the same interleaving.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, List, Sequence

from .engine import Engine, Event

__all__ = ["Outage", "OutageRecord", "FailureInjector"]


@dataclass(frozen=True)
class Outage:
    """One planned outage: crash at ``at``, restart ``duration`` later."""

    at: float
    duration: float

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ValueError(f"outage time must be non-negative, got {self.at}")
        if self.duration <= 0:
            raise ValueError(
                f"outage duration must be positive, got {self.duration}")


@dataclass
class OutageRecord:
    """What actually happened: one executed crash/restart cycle."""

    name: str
    down_at: float
    up_at: float

    @property
    def downtime(self) -> float:
        return self.up_at - self.down_at


class FailureInjector:
    """Drives scheduled outages against crash/restart-capable victims."""

    def __init__(self, engine: Engine):
        self.engine = engine
        #: Completed crash/restart cycles, in restart order.
        self.history: List[OutageRecord] = []
        self._pending = 0

    @property
    def pending(self) -> int:
        """Outages scheduled but not yet completed (restart still ahead)."""
        return self._pending

    def schedule(self, victim: Any, outages: Sequence[Outage]) -> None:
        """Spawn one driver process per outage of ``victim``.

        ``victim`` needs ``crash()``/``restart()`` methods and a ``name``
        attribute; overlapping outages of the same victim are a caller bug
        (``crash()`` on an already-crashed victim may raise).
        """
        name = getattr(victim, "name", repr(victim))
        for outage in sorted(outages, key=lambda o: o.at):
            self._pending += 1
            self.engine.process(self._drive(victim, name, outage),
                                name=f"outage:{name}@{outage.at:g}")

    def _drive(self, victim: Any, name: str,
               outage: Outage) -> Generator[Event, Any, None]:
        yield self.engine.timeout(outage.at)
        down_at = self.engine.now
        victim.crash()
        yield self.engine.timeout(outage.duration)
        victim.restart()
        self.history.append(OutageRecord(name, down_at, self.engine.now))
        self._pending -= 1

"""Per-cluster NFS working-directory model.

§4.1 of the paper: *"The current version of RAMSES requires a NFS working
directory in order to write the output files, hence restricting the possible
types of solving architectures."*  Consequently every stage of one
simulation (IC generation, solve, post-processing) must run on machines
that mount the same NFS volume — in the paper, one cluster.

This module models that constraint: an :class:`NfsVolume` knows which hosts
mount it, tracks used capacity, and charges simulated time for reads and
writes at the NFS server's effective throughput.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Generator, Set, Tuple

from ..sim.engine import Engine, Event

__all__ = ["NfsVolume", "NfsError"]


class NfsError(RuntimeError):
    """Raised on capacity overflow or access from a non-mounting host."""


class NfsVolume:
    """A shared filesystem exported to a fixed set of hosts.

    ``throughput`` is effective bytes/second for sequential access; each
    access takes ``nbytes / throughput`` whatever else is in flight.  A
    volume serves at most two SeDs, each running one solve at a time, and
    no experiment, example or benchmark workload has an access wait on
    another, so the server is not modelled as a queue.
    """

    def __init__(self, engine: Engine, name: str, capacity_bytes: float = 1e12,
                 throughput: float = 60e6):
        if capacity_bytes <= 0 or throughput <= 0:
            raise ValueError("capacity and throughput must be positive")
        self.engine = engine
        self.name = name
        self.capacity_bytes = float(capacity_bytes)
        self.throughput = float(throughput)
        self._mounts: Set[str] = set()
        self._files: Dict[str, int] = {}
        #: In-progress write reservations: token -> (host, nbytes).  Counted
        #: against capacity so two concurrent writes cannot jointly
        #: oversubscribe the volume; released when the write lands — or via
        #: :meth:`release_host` when the writing host crashes mid-write.
        self._reservations: Dict[int, Tuple[str, int]] = {}
        self._resv_tokens = itertools.count()

    # -- mounting ---------------------------------------------------------------

    def export_to(self, host_name: str) -> None:
        self._mounts.add(host_name)

    def is_mounted_on(self, host_name: str) -> bool:
        return host_name in self._mounts

    def _check_mount(self, host_name: str) -> None:
        if host_name not in self._mounts:
            raise NfsError(f"host {host_name!r} does not mount NFS volume {self.name!r}")

    # -- contents ---------------------------------------------------------------

    @property
    def used_bytes(self) -> int:
        return sum(self._files.values())

    @property
    def reserved_bytes(self) -> int:
        """Bytes claimed by writes still in flight."""
        return sum(n for _, n in self._reservations.values())

    def exists(self, path: str) -> bool:
        return path in self._files

    # -- timed access -------------------------------------------------------------

    def write(self, host_name: str, path: str,
              nbytes: int) -> Generator[Event, Any, None]:
        """Process helper: write ``nbytes`` to ``path`` from ``host_name``."""
        self._check_mount(host_name)
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        new_used = (self.used_bytes + self.reserved_bytes
                    - self._files.get(path, 0) + nbytes)
        if new_used > self.capacity_bytes:
            raise NfsError(
                f"volume {self.name!r} full: need {new_used}, capacity {self.capacity_bytes}")
        token = next(self._resv_tokens)
        self._reservations[token] = (host_name, nbytes)
        try:
            yield self.engine.timeout(nbytes / self.throughput)
            if token in self._reservations:
                # Reservation still live (the host did not crash under us):
                # the write lands.
                self._files[path] = nbytes
        finally:
            self._reservations.pop(token, None)

    def release_host(self, host_name: str) -> int:
        """Drop every in-flight write reservation held by ``host_name``.

        Called when the host crashes mid-write: the partial file never
        lands, so its reserved capacity must not leak.  Idempotent; returns
        how many reservations were released.
        """
        stale = [t for t, (h, _) in self._reservations.items() if h == host_name]
        for token in stale:
            del self._reservations[token]
        return len(stale)

    def read_bytes(self, host_name: str,
                   nbytes: int) -> Generator[Event, Any, None]:
        """Charge a timed read of ``nbytes`` without naming a file (used by
        the data manager's cluster-local fast path, where the dataset is a
        sibling's staged copy rather than an entry in ``_files``)."""
        self._check_mount(host_name)
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        yield self.engine.timeout(nbytes / self.throughput)

    def __repr__(self) -> str:
        return f"NfsVolume({self.name!r}, mounts={len(self._mounts)}, files={len(self._files)})"

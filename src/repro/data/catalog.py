"""Hierarchical replica catalog (the DAGDA view of the MA/LA tree).

Each agent in the DIET hierarchy owns a :class:`CatalogNode`.  SeD data
managers register replicas at their LA's node; registrations bubble up to
the MA's root node so the whole hierarchy can answer "who holds data X?".
Lookups mirror service ``find``: a SeD asks its LA first (one hop) and the
LA forwards a miss to the MA (second hop) — the RPC side of that lives in
``core.agent`` ("dm_locate"); this module is the synchronous bookkeeping
underneath, which schedules no events of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

__all__ = ["Replica", "CatalogNode"]


@dataclass(frozen=True)
class Replica:
    """One resident copy of a dataset, as seen by the catalog.

    Plain frozen data so replica lists can cross the simulated wire (and
    real pickles in the parallel runner) unchanged.
    """

    data_id: str
    sed_name: str
    host_name: str
    nbytes: int
    #: Name of the NFS volume the bytes live on ("" for in-memory store
    #: entries).  Lets same-volume readers skip the network entirely.
    volume: str = ""


class CatalogNode:
    """Replica index of one agent; registrations bubble to the parent."""

    def __init__(self, name: str, parent: Optional["CatalogNode"] = None):
        self.name = name
        self.parent = parent
        self._entries: Dict[str, Dict[str, Replica]] = {}

    def register(self, replica: Replica) -> None:
        self._entries.setdefault(replica.data_id, {})[replica.sed_name] = replica
        if self.parent is not None:
            self.parent.register(replica)

    def unregister(self, data_id: str, sed_name: str) -> None:
        copies = self._entries.get(data_id)
        if copies is not None:
            copies.pop(sed_name, None)
            if not copies:
                del self._entries[data_id]
        if self.parent is not None:
            self.parent.unregister(data_id, sed_name)

    def locate(self, data_id: str) -> List[Replica]:
        """All known replicas, in deterministic (sed_name) order."""
        copies = self._entries.get(data_id, {})
        return [copies[k] for k in sorted(copies)]

    def __contains__(self, data_id: str) -> bool:
        return data_id in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        n = sum(len(c) for c in self._entries.values())
        return f"CatalogNode({self.name!r}, {len(self._entries)} ids, {n} replicas)"

"""Replication / placement policies for persistent data.

Pulled data always stays on the pulling SeD — that is DTM's
``DIET_PERSISTENT`` semantic (the data follows the computation and remains
where it was last used), not a policy choice.  Policies decide what happens
*proactively*, the moment a dataset is stored:

* ``none`` — nothing; consumers pull on demand;
* ``per-cluster`` — push one replica to a sibling SeD in the producer's
  cluster (crash resilience at NFS-fast-path cost, no WAN traffic);
* ``eager-broadcast`` — push a replica to one SeD in every *other* cluster
  (WAN cost up front, every cluster local afterwards).

Policies only *decide*; the mechanics (catalog registration, transfers)
live in ``manager``/``transfer``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from .manager import DataManager

__all__ = [
    "ReplicationPolicy",
    "NoReplication",
    "PerClusterReplication",
    "EagerBroadcast",
    "REPLICATION_POLICIES",
    "make_replication_policy",
]


class ReplicationPolicy:
    name = "base"

    def on_store(self, manager: "DataManager", data_id: str, nbytes: int) -> None:
        """Hook fired after ``data_id`` lands in ``manager``'s store."""


class NoReplication(ReplicationPolicy):
    name = "none"


class PerClusterReplication(ReplicationPolicy):
    """Push one replica to a sibling SeD in the producer's own cluster."""

    name = "per-cluster"

    def on_store(self, manager: "DataManager", data_id: str, nbytes: int) -> None:
        grid = manager.grid
        for target in grid.sibling_targets(manager):
            grid.spawn_replication(manager, target, data_id, nbytes)


class EagerBroadcast(ReplicationPolicy):
    """Push a replica to one SeD in every other cluster on store."""

    name = "eager-broadcast"

    def on_store(self, manager: "DataManager", data_id: str, nbytes: int) -> None:
        grid = manager.grid
        for target in grid.broadcast_targets(manager):
            grid.spawn_replication(manager, target, data_id, nbytes)


REPLICATION_POLICIES = {
    NoReplication.name: NoReplication,
    PerClusterReplication.name: PerClusterReplication,
    EagerBroadcast.name: EagerBroadcast,
}


def make_replication_policy(name: str) -> ReplicationPolicy:
    try:
        return REPLICATION_POLICIES[name]()
    except KeyError:
        raise KeyError(
            f"unknown replication policy {name!r}; "
            f"known: {sorted(REPLICATION_POLICIES)}"
        ) from None

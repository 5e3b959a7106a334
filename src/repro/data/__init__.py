"""DAGDA-style distributed data management for the DIET reproduction.

The paper's campaign ships the same initial conditions and restart dumps
over and over because nothing honoured DIET's persistence modes.  This
package is the DTM/DAGDA substitute that does, and it is part of every
stack: one :class:`~repro.data.manager.DataGrid` per deployment (or per
federation, or per component built on its own), one
:class:`~repro.data.manager.DataManager` per SeD on it.

* :mod:`~repro.data.store` — per-SeD content-addressed stores with
  STICKY pinning;
* :mod:`~repro.data.catalog` — the hierarchical replica catalog threaded
  through the MA/LA tree;
* :mod:`~repro.data.transfer` — coalescing peer-to-peer pulls with
  cluster-local NFS fast paths;
* :mod:`~repro.data.policy` — replication policies (none, per-cluster,
  eager-broadcast);
* :mod:`~repro.data.manager` — the per-SeD manager + the stack-wide
  :class:`~repro.data.manager.DataGrid`, including the transfer-cost
  estimate MCT scheduling uses for data locality;
* :mod:`~repro.data.memo` — the grid-wide result memo (``grid.memo``)
  keyed on canonical request descriptors, short-circuiting a submit to a
  replica hit.
"""

from __future__ import annotations

from .catalog import CatalogNode, Replica
from .manager import DataGrid, DataGridStats, DataManager, DataManagerConfig
from .memo import MemoIndex, MemoStats, descriptor_digest, request_descriptor
from .policy import (
    EagerBroadcast,
    NoReplication,
    PerClusterReplication,
    ReplicationPolicy,
    make_replication_policy,
)
from .store import DataStore, StoreEntry, content_digest
from .transfer import TransferManager

__all__ = [
    "CatalogNode",
    "DataGrid",
    "DataGridStats",
    "DataManager",
    "DataManagerConfig",
    "DataStore",
    "EagerBroadcast",
    "MemoIndex",
    "MemoStats",
    "NoReplication",
    "PerClusterReplication",
    "Replica",
    "ReplicationPolicy",
    "StoreEntry",
    "TransferManager",
    "campaign_data_config",
    "content_digest",
    "descriptor_digest",
    "make_replication_policy",
    "policy_keeps_results",
    "request_descriptor",
]

#: Campaign-level ``--data-policy`` values and the manager configuration
#: each one deploys.  ``"volatile"`` is the default: every argument
#: travels by value and nothing persists.
DATA_POLICIES = ("volatile", "persistent", "replicated", "broadcast")


def campaign_data_config(policy: str) -> DataManagerConfig:
    """Map a campaign ``--data-policy`` name to a manager config."""
    if policy in ("volatile", "persistent"):
        return DataManagerConfig()
    if policy == "replicated":
        return DataManagerConfig(replication="per-cluster")
    if policy == "broadcast":
        return DataManagerConfig(replication="eager-broadcast")
    raise ValueError(f"unknown data policy {policy!r}; known: {DATA_POLICIES}")


def policy_keeps_results(policy: str) -> bool:
    """Does this campaign policy persist zoom2 result tarballs on SeDs?"""
    return policy in ("persistent", "replicated", "broadcast")

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
* :mod:`~repro.data.policy` — :data:`~repro.data.policy.DATA_POLICIES`,
  the campaign data policies (volatile, persistent, replicated,
  broadcast): whether results persist and where replicas go, one
  :class:`~repro.data.policy.DataPolicy` record each;
* :mod:`~repro.data.manager` — the per-SeD manager + the stack-wide
  :class:`~repro.data.manager.DataGrid`, including the transfer-cost
  estimate MCT scheduling uses for data locality;
* :mod:`~repro.data.memo` — the grid-wide result memo (``grid.memo``)
  keyed on canonical request descriptors, short-circuiting a submit to a
  replica hit.
"""

from __future__ import annotations

from .catalog import CatalogNode, Replica
from .manager import DataGrid, DataGridStats, DataManager
from .memo import MemoIndex, MemoStats, descriptor_digest, request_descriptor
from .policy import DATA_POLICIES, DataPolicy, lookup_data_policy
from .store import DataStore, StoreEntry, content_digest
from .transfer import TransferManager

__all__ = [
    "CatalogNode",
    "DATA_POLICIES",
    "DataGrid",
    "DataGridStats",
    "DataManager",
    "DataPolicy",
    "DataStore",
    "MemoIndex",
    "MemoStats",
    "Replica",
    "StoreEntry",
    "TransferManager",
    "content_digest",
    "descriptor_digest",
    "lookup_data_policy",
    "request_descriptor",
]

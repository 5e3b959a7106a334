"""Campaign data policies: what persists on the SeDs, and where replicas go.

The paper's data contract is DIET's per-argument persistence mode
(§4.2.3, §4.3.2).  A campaign picks one policy for its zoom and survey
products, and :data:`DATA_POLICIES` is the one place a policy name is
decoded:

* ``volatile`` — every argument travels by value and nothing persists
  (the paper's campaign, the default);
* ``persistent`` — results stay on the producing SeD and the client gets
  a handle; consumers pull on demand;
* ``replicated`` — persistent, and every stored dataset is pushed to one
  sibling SeD in the producer's cluster (crash resilience at
  NFS-fast-path cost, no WAN traffic);
* ``broadcast`` — persistent, and every stored dataset is pushed to one
  SeD in every *other* cluster (WAN cost up front, every cluster local
  afterwards).

Pulled data always stays on the pulling SeD — that is DTM's
``DIET_PERSISTENT`` semantic (the data follows the computation and remains
where it was last used), not a policy choice.  A policy only names the
replica targets; the mechanics (catalog registration, transfers) live in
``manager`` / ``transfer``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from .manager import DataManager

__all__ = ["DataPolicy", "DATA_POLICIES", "lookup_data_policy"]

#: (the grid's managers by SeD name, the owner) -> the managers a dataset
#: the owner just stored is pushed to.
Targets = Callable[[Dict[str, "DataManager"], "DataManager"], List["DataManager"]]


@dataclass(frozen=True)
class DataPolicy:
    """One campaign data policy, as every layer reads it."""

    name: str
    #: Zoom2 tarballs and survey products persist on the producing SeD
    #: (the client gets handles) instead of travelling by value.
    keeps_results: bool
    #: Where a freshly stored dataset is replicated; None pushes nothing.
    replica_targets: Optional[Targets]


def _sibling_targets(
    managers: Dict[str, "DataManager"], owner: "DataManager"
) -> List["DataManager"]:
    """The first (by name) other live SeD in the owner's own cluster, if
    any."""
    for name in sorted(managers):
        mgr = managers[name]
        if (
            mgr is not owner
            and mgr.sed.cluster == owner.sed.cluster
            and not mgr.sed.is_down
        ):
            return [mgr]
    return []


def _broadcast_targets(
    managers: Dict[str, "DataManager"], owner: "DataManager"
) -> List["DataManager"]:
    """One live SeD (first by name) per cluster other than the owner's."""
    by_cluster: Dict[str, "DataManager"] = {}
    for name in sorted(managers):
        mgr = managers[name]
        cluster = mgr.sed.cluster
        if cluster != owner.sed.cluster and not mgr.sed.is_down:
            by_cluster.setdefault(cluster, mgr)
    return [by_cluster[c] for c in sorted(by_cluster)]


#: Every campaign ``--data-policy``, by name, in CLI order.
DATA_POLICIES: Dict[str, DataPolicy] = {
    policy.name: policy
    for policy in (
        DataPolicy("volatile", False, None),
        DataPolicy("persistent", True, None),
        DataPolicy("replicated", True, _sibling_targets),
        DataPolicy("broadcast", True, _broadcast_targets),
    )
}


def lookup_data_policy(name: str) -> DataPolicy:
    """The policy called ``name``; a ValueError names the known ones."""
    try:
        return DATA_POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown data policy {name!r}; known: {', '.join(DATA_POLICIES)}"
        ) from None

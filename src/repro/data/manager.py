"""Per-SeD data managers and the grid-wide DataGrid that connects them.

This is the DTM/DAGDA substitute.  Every stack has exactly one
:class:`DataGrid` — the replica catalog, the result memo, the data policy
and the traffic counters — and every SeD owns a :class:`DataManager`
built on it: a content-addressed store, its LA's catalog node and pull
transfers.  A SeD or agent constructed on its own gets a private grid, so
"standalone" is a grid of one: a handle it cannot find in any catalog is
fetched from the SeD the handle names.

Everything here that is not an explicit transfer is synchronous
bookkeeping: registering replicas and counting stats schedule **zero**
events, so a campaign whose arguments are all volatile runs the recorded
kernel event streams (``tests/data/ref_events_*.json``) unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Generator, Iterable, Optional

from ..core.data import DataHandle, HANDLE_WIRE_BYTES, PersistenceMode
from ..core.exceptions import CommunicationError, DataError
from ..sim.engine import Event
from .catalog import CatalogNode, Replica
from .memo import MemoIndex
from .policy import DataPolicy, lookup_data_policy
from .store import DataStore, content_digest
from .transfer import TransferManager

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from ..core.sed import SeD
    from ..sim.network import Network

__all__ = ["DataGridStats", "DataManager", "DataGrid"]

_PINNED_MODES = (PersistenceMode.STICKY, PersistenceMode.STICKY_RETURN)


@dataclass
class DataGridStats:
    """Plain-int data traffic accounting (picklable, always on)."""

    hits: int = 0
    misses: int = 0
    coalesced: int = 0
    replicas: int = 0
    dedup: int = 0
    #: Bytes pulled SeD-to-SeD (including eager replication pushes).
    bytes_moved: int = 0
    #: Bytes served through a cluster-local NFS fast path.
    bytes_nfs: int = 0
    #: Bytes that did *not* travel thanks to cache hits, handle replies,
    #: coalesced pulls, and content dedup.
    bytes_saved: int = 0


class DataManager:
    """The DAGDA agent of one SeD, built complete on its stack's grid."""

    def __init__(self, sed: "SeD", grid: "DataGrid"):
        self.sed = sed
        self.engine = sed.engine
        self.grid = grid
        #: The parent LA's catalog node (the root for a parentless SeD).
        self.catalog = grid.node(sed.parent)
        self.store = DataStore()
        self.stats = grid.stats
        self.transfers = TransferManager(self)
        grid.managers[sed.name] = self

    @property
    def obs(self):
        return self.sed.tracer.obs

    # -- store side ---------------------------------------------------------------

    def put(
        self, data_id: str, value: Any, nbytes: int, mode: PersistenceMode
    ) -> str:
        """Keep a server copy of a produced argument; returns the canonical
        data id (an existing one when content dedup aliases the value)."""
        pinned = mode in _PINNED_MODES
        digest = content_digest(value)
        existing = self.store.find_digest(digest)
        if existing is not None and existing != data_id:
            entry = self.store.entry(existing)
            entry.pinned = entry.pinned or pinned
            self.stats.dedup += 1
            self.stats.bytes_saved += nbytes
            return existing
        self.store.put(data_id, value, nbytes, pinned=pinned, digest=digest)
        self._register(data_id, nbytes)
        grid = self.grid
        targets = grid.policy.replica_targets
        if targets is not None:
            for target in targets(grid.managers, self):
                grid.spawn_replication(self, target, data_id, nbytes)
        return data_id

    def admit_replica(self, data_id: str, value: Any, nbytes: int) -> None:
        """Keep a fetched copy and advertise it."""
        if data_id in self.store:
            return
        self.store.put(data_id, value, nbytes, digest=content_digest(value))
        self._register(data_id, nbytes)
        self.stats.replicas += 1

    def _register(self, data_id: str, nbytes: int) -> None:
        # Advertise the cluster volume the bytes live on (§4.1: solves
        # write their outputs to the cluster NFS working directory), so
        # same-volume consumers can take the NFS fast path.
        volume = self.sed.nfs.name if self.sed.nfs is not None else ""
        self.catalog.register(
            Replica(
                data_id=data_id,
                sed_name=self.sed.name,
                host_name=self.sed.host.name,
                nbytes=nbytes,
                volume=volume,
            )
        )

    def note_reply_handle(self, nbytes: int) -> None:
        """A reply shipped a 64-byte handle instead of ``nbytes`` of data."""
        self.stats.bytes_saved += max(0, nbytes - HANDLE_WIRE_BYTES)

    # -- wire side ----------------------------------------------------------------

    def serve(self, data_id: str, allow_pinned: bool = False) -> tuple:
        """Look up a datum for a peer fetch; raises :class:`DataError` on a
        miss or a pinned (STICKY — never moves) entry.

        ``allow_pinned`` serves pinned entries anyway — the memo-hit
        return path: stickiness forbids SeD-to-SeD replication, not
        returning result bytes to a client.
        """
        entry = self.store.entry(data_id)
        if entry is None:
            raise DataError(f"no persistent data {data_id!r} on {self.sed.name}")
        if entry.pinned and not allow_pinned:
            raise DataError(f"data {data_id!r} is sticky on {self.sed.name}")
        return entry.value, entry.nbytes

    def resolve(self, handle: DataHandle) -> Generator[Event, Any, Any]:
        """Materialize a handle on this SeD ("Data downloading")."""
        entry = self.store.entry(handle.data_id)
        if entry is not None:
            self.stats.hits += 1
            self.stats.bytes_saved += entry.nbytes
            return entry.value
        self.stats.misses += 1
        value = yield from self.transfers.pull(handle)
        return value

    # -- failure model ------------------------------------------------------------

    def on_crash(self) -> None:
        """Volatile state dies with the process."""
        for data_id in self.store.data_ids():
            self.catalog.unregister(data_id, self.sed.name)
        # Memoized results owned by this SeD died with its store; a client
        # already holding a hit falls back to a re-solve.
        self.grid.memo.invalidate_owner(self.sed.name)
        self.store.clear()


class DataGrid:
    """One stack's data fabric: catalog tree, result memo, data policy,
    traffic counters — and the managers built on it.

    A federation shares one grid across its hierarchies, so handles and
    memo hits resolve across grids.
    """

    def __init__(self, network: "Network", policy: str = "volatile"):
        self.network = network
        self.engine = network.engine
        #: The campaign data policy (:data:`~repro.data.policy.DATA_POLICIES`)
        #: every manager on this grid stores and replicates under.
        self.policy: DataPolicy = lookup_data_policy(policy)
        self.root = CatalogNode("MA")
        self._nodes: Dict[str, CatalogNode] = {}
        #: Request→result index consulted by every MA, populated by every
        #: SeD; counts nothing until a client sends memo keys.
        self.memo = MemoIndex()
        self.managers: Dict[str, DataManager] = {}
        self.stats = DataGridStats()

    def node(self, name: Optional[str], root: bool = False) -> CatalogNode:
        """The catalog node of agent ``name`` (created on first use): the
        root for a parentless agent (``root``) or a parentless SeD (``name``
        None), else a child of the root."""
        if name is None:
            return self.root
        existing = self._nodes.get(name)
        if existing is None:
            existing = self._nodes[name] = (
                self.root if root else CatalogNode(name, parent=self.root)
            )
        return existing

    # -- scheduling hook ----------------------------------------------------------

    def transfer_cost(
        self, handles: Iterable[DataHandle], candidates: Iterable[str]
    ) -> Dict[str, float]:
        """Estimated seconds each candidate SeD would spend pulling the
        non-resident handles — the data-locality term MCT adds to its
        completion estimate.  Pure computation over the analytic
        ``transfer_time`` model; no events."""
        costs = {name: 0.0 for name in candidates}
        for handle in handles:
            replicas = self.root.locate(handle.data_id)
            for name in costs:
                mgr = self.managers.get(name)
                if mgr is None:
                    continue
                if handle.data_id in mgr.store:
                    continue  # resident: free
                dst = mgr.sed.host.name
                options = []
                for r in replicas:
                    if r.host_name == dst:
                        options.append(0.0)
                    else:
                        options.append(
                            self.network.transfer_time(
                                r.host_name, dst, r.nbytes or handle.nbytes
                            )
                        )
                if not options:
                    origin = self.managers.get(handle.sed_name)
                    src = origin.sed.host.name if origin else handle.sed_name
                    options = [self.network.transfer_time(src, dst, handle.nbytes)]
                costs[name] += min(options)
        return costs

    # -- replication mechanics ----------------------------------------------------

    def spawn_replication(
        self, owner: DataManager, target: DataManager, data_id: str, nbytes: int
    ) -> None:
        """Background best-effort push of one replica (policy-initiated)."""

        def _replicate() -> Generator[Event, Any, None]:
            try:
                value = yield from target.sed.endpoint.rpc(
                    owner.sed.name, "dm_fetch", data_id
                )
            except (DataError, CommunicationError):
                return  # owner gone or restarted meanwhile: never fatal
            if target.sed.is_down:
                return  # the copy died with the target's volatile store
            self.stats.bytes_moved += nbytes
            target.admit_replica(data_id, value, nbytes)

        self.engine.process(
            _replicate(), name=f"replicate:{data_id}->{target.sed.name}"
        )

"""Per-SeD data managers and the grid-wide DataGrid that connects them.

This is the DTM/DAGDA substitute.  Every stack has exactly one
:class:`DataGrid` — the replica catalog, the result memo, the per-SeD
configuration and the traffic counters — and every SeD owns a
:class:`DataManager` built on it: a content-addressed store, its LA's
catalog node, pull transfers and a replication policy.  A SeD or agent
constructed on its own gets a private grid, so "standalone" is a grid of
one: a handle it cannot find in any catalog is fetched from the SeD the
handle names.

Everything here that is not an explicit transfer is synchronous
bookkeeping: registering replicas and counting stats schedule **zero**
events, so a campaign whose arguments are all volatile runs the recorded
kernel event streams (``tests/data/ref_events_*.json``) unchanged.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Any, Dict, Generator, Iterable, List, Optional

from ..core.data import DataHandle, HANDLE_WIRE_BYTES, PersistenceMode
from ..core.exceptions import CommunicationError, DataError
from ..platform.nfs import NfsError
from ..sim.engine import Event
from ..sim.network import NetworkError
from .catalog import CatalogNode, Replica
from .memo import MemoIndex
from .policy import make_replication_policy
from .store import DataStore, content_digest
from .transfer import TransferManager

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from ..core.sed import SeD
    from ..platform.nfs import NfsVolume
    from ..sim.network import Network

__all__ = ["DataManagerConfig", "DataGridStats", "DataManager", "DataGrid"]

_PINNED_MODES = (PersistenceMode.STICKY, PersistenceMode.STICKY_RETURN)


@dataclass(frozen=True)
class DataManagerConfig:
    """Per-SeD data-manager knobs, one set per :class:`DataGrid`."""

    #: Replication policy name ("none", "per-cluster", "eager-broadcast").
    replication: str = "none"


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
    checkpoint_pulls: int = 0

    def as_dict(self) -> Dict[str, int]:
        return asdict(self)


class DataManager:
    """The DAGDA agent of one SeD, built complete on its stack's grid."""

    def __init__(self, sed: "SeD", grid: "DataGrid"):
        self.sed = sed
        self.engine = sed.engine
        self.grid = grid
        #: The parent LA's catalog node (the root for a parentless SeD).
        self.catalog = grid.node(sed.parent)
        self.store = DataStore()
        self.replication = make_replication_policy(grid.config.replication)
        self.stats = grid.stats
        self.transfers = TransferManager(self)
        #: Checkpoint registrations survive a crash of this SeD: the bytes
        #: live on the cluster NFS volume, not in the SeD process.
        self._checkpoints: Dict[str, Replica] = {}
        grid.managers[sed.name] = self
        if sed.nfs is not None:
            grid.volumes[sed.nfs.name] = sed.nfs

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
        self.replication.on_store(self, data_id, nbytes)
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

    # -- checkpoints --------------------------------------------------------------

    def register_checkpoint(
        self, path: str, nbytes: int, volume: "NfsVolume"
    ) -> None:
        """Advertise an NFS-resident checkpoint dump through the catalog."""
        replica = Replica(
            data_id=f"ckpt:{path}",
            sed_name=self.sed.name,
            host_name=self.sed.host.name,
            nbytes=nbytes,
            volume=volume.name,
        )
        self._checkpoints[path] = replica
        self.catalog.register(replica)

    def unregister_checkpoint(self, path: str) -> None:
        replica = self._checkpoints.pop(path, None)
        if replica is not None:
            self.catalog.unregister(replica.data_id, self.sed.name)

    def pull_checkpoint(self, path: str) -> Generator[Event, Any, bool]:
        """Stage a remote cluster's checkpoint dump onto the local volume.

        The §4.1 resume gate required the dump on *this* cluster's NFS; with
        the catalog a restarted job can locate the dump wherever it was
        written, stream it volume-to-volume, and resume.  Returns True when
        ``path`` now exists locally.
        """
        if self.sed.parent is None or self.sed.nfs is None:
            return False
        data_id = f"ckpt:{path}"
        try:
            raw = yield from self.sed.endpoint.rpc(
                self.sed.parent, "dm_locate", data_id
            )
        except CommunicationError:
            return False
        remote = [r for r in raw if r.volume and r.volume != self.sed.nfs.name]
        if not remote:
            return False
        source = min(remote, key=lambda r: r.sed_name)
        volume = self.grid.volumes.get(source.volume)
        if volume is None or not volume.exists(path):
            return False
        hosts = volume.mounts()
        if not hosts:
            return False
        src_host = hosts[0]
        try:
            nbytes = yield from volume.read(src_host, path)
            yield from self.sed.fabric.network.transfer(
                src_host, self.sed.host.name, nbytes
            )
            yield from self.sed.nfs.write(self.sed.host.name, path, nbytes)
        except (NfsError, NetworkError):
            # Dump unlinked or volume full meanwhile: restart from scratch.
            # (An Interrupt — this SeD crashing mid-pull — must unwind.)
            return False
        self.stats.checkpoint_pulls += 1
        self.stats.bytes_moved += nbytes
        self.register_checkpoint(path, nbytes, self.sed.nfs)
        return True

    # -- failure model ------------------------------------------------------------

    def on_crash(self) -> None:
        """Volatile state dies with the process; NFS checkpoints survive."""
        for data_id in self.store.data_ids():
            self.catalog.unregister(data_id, self.sed.name)
        # Memoized results owned by this SeD died with its store; a client
        # already holding a hit falls back to a re-solve.
        self.grid.memo.invalidate_owner(self.sed.name)
        self.store.clear()


class DataGrid:
    """One stack's data fabric: catalog tree, result memo, per-SeD manager
    configuration, traffic counters — and the managers built on it.

    A federation shares one grid across its hierarchies, so handles and
    memo hits resolve across grids.
    """

    def __init__(
        self,
        network: "Network",
        config: Optional[DataManagerConfig] = None,
    ):
        self.network = network
        self.engine = network.engine
        self.config = config or DataManagerConfig()
        self.root = CatalogNode("MA")
        self._nodes: Dict[str, CatalogNode] = {}
        #: Request→result index consulted by every MA, populated by every
        #: SeD; counts nothing until a client sends memo keys.
        self.memo = MemoIndex()
        self.managers: Dict[str, DataManager] = {}
        self.volumes: Dict[str, "NfsVolume"] = {}
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

    def sibling_targets(self, owner: DataManager) -> List[DataManager]:
        """The first (by name) other SeD in the owner's own cluster, if any
        — the per-cluster policy's intra-cluster redundancy target."""
        for name in sorted(self.managers):
            mgr = self.managers[name]
            if mgr is not owner and mgr.sed.cluster == owner.sed.cluster:
                return [mgr]
        return []

    def broadcast_targets(self, owner: DataManager) -> List[DataManager]:
        """One SeD (first by name) per cluster other than the owner's."""
        by_cluster: Dict[str, DataManager] = {}
        for name in sorted(self.managers):
            mgr = self.managers[name]
            cluster = mgr.sed.cluster
            if cluster == owner.sed.cluster:
                continue
            by_cluster.setdefault(cluster, mgr)
        return [by_cluster[c] for c in sorted(by_cluster)]

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
            self.stats.bytes_moved += nbytes
            target.admit_replica(data_id, value, nbytes)

        self.engine.process(
            _replicate(), name=f"replicate:{data_id}->{target.sed.name}"
        )

"""Peer-to-peer pull transfers of persistent data.

When a SeD resolves a non-resident handle it *pulls* the bytes from the
best replica rather than having the producer push them: the consumer knows
it needs the data now, the producer does not.  Two DAGDA-ish refinements
on top of a plain RPC fetch:

* **in-flight coalescing** — concurrent pulls of the same ``data_id`` on
  one SeD share a single wire transfer; late requesters park on the same
  :class:`~repro.sim.engine.Event` and wake with the value;
* **NFS fast path** — if a replica lives on the same NFS volume this SeD
  mounts (cluster-local data, e.g. a checkpoint written by a sibling), the
  bytes come off the volume at NFS throughput instead of crossing the
  network SeD-to-SeD.

Replica ranking uses :meth:`sim.network.Network.transfer_time` — the same
latency/bandwidth model the actual transfer will pay — so "nearest" means
nearest in simulated seconds, with ``sed_name`` as the deterministic tie
break.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Generator, List, Tuple

from ..core.exceptions import CommunicationError, DataError
from ..sim.engine import Event
from .catalog import Replica

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from ..core.data import DataHandle
    from .manager import DataManager

__all__ = ["TransferManager"]


class TransferManager:
    """Pull-side transfer logic of one SeD's data manager."""

    def __init__(self, manager: "DataManager"):
        self.manager = manager
        self._inflight: Dict[str, Event] = {}

    def pull(self, handle: "DataHandle") -> Generator[Event, Any, Any]:
        """Materialize ``handle`` locally; returns the value.

        Concurrent pulls of the same id coalesce onto the first one's
        transfer.  Raises :class:`DataError` when no replica can serve it.
        """
        mgr = self.manager
        waiter = self._inflight.get(handle.data_id)
        if waiter is not None:
            mgr.stats.coalesced += 1
            mgr.stats.bytes_saved += handle.nbytes
            value = yield waiter  # re-raises if the leading pull failed
            return value
        done = Event(mgr.engine)
        self._inflight[handle.data_id] = done
        try:
            value = yield from self._pull_once(handle)
        except BaseException as exc:
            self._inflight.pop(handle.data_id, None)
            done.fail(exc)
            raise
        self._inflight.pop(handle.data_id, None)
        done.succeed(value)
        return value

    def _pull_once(self, handle: "DataHandle") -> Generator[Event, Any, Any]:
        mgr = self.manager
        obs = mgr.obs
        span = None
        if obs.enabled:
            span = obs.spans.begin(
                f"data:{mgr.sed.name}",
                "pull",
                mgr.engine.now,
                "data",
                data_id=handle.data_id,
                nbytes=handle.nbytes,
                sed=mgr.sed.name,
            )
        try:
            replicas = yield from self._locate(handle)
            value, via = yield from self._fetch(handle, replicas)
        except BaseException:
            if span is not None:
                obs.spans.end(span, mgr.engine.now, "error")
            raise
        if span is not None:
            span.attrs["via"] = via
            obs.spans.end(span, mgr.engine.now)
        # DTM's DIET_PERSISTENT semantic: the data follows the computation
        # and stays on the SeD that pulled it.
        mgr.admit_replica(handle.data_id, value, handle.nbytes)
        return value

    def _locate(self, handle: "DataHandle") -> Generator[Event, Any, List[Replica]]:
        """Ask the agent hierarchy for replicas (LA first, MA on miss —
        the catalog side of service ``find``'s hop accounting)."""
        mgr = self.manager
        replicas: List[Replica] = []
        if mgr.sed.parent is not None:
            raw = yield from mgr.sed.endpoint.rpc(
                mgr.sed.parent, "dm_locate", handle.data_id
            )
            replicas = [r for r in raw if r.sed_name != mgr.sed.name]
        if not replicas:
            # Catalog knows nothing (a parentless SeD, or a handle minted
            # outside this grid): trust the handle's origin SeD.  Its host
            # is not needed — a lone candidate is never ranked.
            replicas = [
                Replica(
                    data_id=handle.data_id,
                    sed_name=handle.sed_name,
                    host_name="",
                    nbytes=handle.nbytes,
                )
            ]
        return replicas

    def _fetch(
        self, handle: "DataHandle", replicas: List[Replica]
    ) -> Generator[Event, Any, Tuple[Any, str]]:
        """Try replicas nearest-first; returns ``(value, via)`` where via
        is ``"nfs"`` or ``"net"``."""
        mgr = self.manager
        my_host = mgr.sed.host.name
        network = mgr.sed.fabric.network

        def _rank(r: Replica) -> Tuple[float, str]:
            cost = network.transfer_time(
                r.host_name, my_host, r.nbytes or handle.nbytes
            )
            return cost, r.sed_name

        ranked = sorted(replicas, key=_rank) if len(replicas) > 1 else replicas
        last_error: Exception = DataError(f"no replica of {handle.data_id!r} reachable")
        for rep in ranked:
            try:
                if mgr.sed.nfs is not None and rep.volume == mgr.sed.nfs.name:
                    # The volume this SeD mounts: a sibling already staged
                    # the bytes here, read them instead of a SeD-to-SeD pull.
                    nbytes = rep.nbytes or handle.nbytes
                    yield from mgr.sed.nfs.read_bytes(my_host, nbytes)
                    value = yield from self._peer_value(rep, handle)
                    mgr.stats.bytes_nfs += nbytes
                    return value, "nfs"
                value = yield from mgr.sed.endpoint.rpc(
                    rep.sed_name, "dm_fetch", handle.data_id
                )
                mgr.stats.bytes_moved += rep.nbytes or handle.nbytes
                return value, "net"
            except (DataError, CommunicationError) as exc:
                last_error = exc
        raise DataError(f"all replicas of {handle.data_id!r} failed: {last_error}")

    def _peer_value(
        self, rep: Replica, handle: "DataHandle"
    ) -> Generator[Event, Any, Any]:
        """Value for an NFS fast-path read: from the peer's local store if
        this process can see it, else a zero-cost control RPC."""
        mgr = self.manager
        peer = mgr.grid.managers.get(rep.sed_name)
        if peer is not None:
            entry = peer.store.entry(handle.data_id)
            if entry is not None and not entry.pinned:  # sticky never moves
                return entry.value
        value = yield from mgr.sed.endpoint.rpc(
            rep.sed_name, "dm_fetch", handle.data_id
        )
        return value

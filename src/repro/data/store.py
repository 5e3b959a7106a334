"""Per-host content-addressed data stores (the DAGDA cache of one SeD).

Each SeD owns one :class:`DataStore`: a byte-capacity-bounded map of
``data_id -> StoreEntry`` holding the persisted argument values of past
solves plus any replicas pulled from peers.  DAGDA semantics (Caron et al.,
"DAGDA: Data Arrangement for Grid and Distributed Applications"):

* entries are *content-addressed* — a digest over the value lets the store
  recognize a dataset it already holds under another id and alias it
  instead of storing the bytes twice;
* ``DIET_STICKY`` entries are *pinned*: never evicted, never shipped to a
  peer;
* when capacity runs out, unpinned entries are evicted by a pluggable
  policy (LRU by default; a cost-aware policy keeps the entries that are
  expensive to refetch).

The store is pure bookkeeping over simulated timestamps its callers already
read — it never schedules events, so an idle data manager cannot perturb
the kernel determinism suite's recorded streams.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from ..core.exceptions import DataError

__all__ = [
    "StoreEntry",
    "DataStore",
    "StoreFullError",
    "EvictionPolicy",
    "LRUEviction",
    "CostAwareEviction",
    "EVICTION_POLICIES",
    "make_eviction",
    "content_digest",
]


class StoreFullError(DataError):
    """Capacity exhausted and nothing evictable (everything is pinned)."""


def content_digest(value: Any) -> str:
    """Stable digest of a stored value (the content address).

    Values are simulation payloads (FileRefs, numpy arrays, scalars); the
    digest only has to be deterministic within one process, so a canonical
    repr is hashed rather than a full serialization.
    """
    h = hashlib.sha256()
    tobytes = getattr(value, "tobytes", None)
    if tobytes is not None:  # numpy arrays and friends
        h.update(b"nd:")
        h.update(tobytes())
    else:
        h.update(repr(value).encode())
    return h.hexdigest()


@dataclass
class StoreEntry:
    """One resident dataset."""

    data_id: str
    value: Any
    nbytes: int
    #: DIET_STICKY: pinned entries are never evicted and never move.
    pinned: bool
    #: Estimated seconds to refetch this entry from its nearest replica
    #: (consumed by cost-aware eviction).
    cost: float
    created: float
    last_used: float
    #: Monotone insertion counter — the deterministic tie-break every
    #: eviction ranking ends with.
    seq: int
    digest: str = ""


class EvictionPolicy:
    """Ranks unpinned entries; the lowest-ranked is evicted first."""

    name = "base"

    def rank(self, entry: StoreEntry) -> tuple:
        raise NotImplementedError


class LRUEviction(EvictionPolicy):
    """Evict the least-recently-used entry first."""

    name = "lru"

    def rank(self, entry: StoreEntry) -> tuple:
        return (entry.last_used, entry.seq)


class CostAwareEviction(EvictionPolicy):
    """Evict the entry that is cheapest to refetch first.

    DAGDA's cost-based replacement: losing a dataset that a peer can
    restream in milliseconds is almost free; losing the only copy of a
    multi-GB restart dump costs a WAN transfer.  Ties fall back to LRU.
    """

    name = "cost"

    def rank(self, entry: StoreEntry) -> tuple:
        return (entry.cost, entry.last_used, entry.seq)


EVICTION_POLICIES = {
    LRUEviction.name: LRUEviction,
    CostAwareEviction.name: CostAwareEviction,
}


def make_eviction(name: str) -> EvictionPolicy:
    try:
        return EVICTION_POLICIES[name]()
    except KeyError:
        raise KeyError(
            f"unknown eviction policy {name!r}; known: {sorted(EVICTION_POLICIES)}"
        ) from None


class DataStore:
    """A capacity-bounded, content-addressed entry map."""

    def __init__(
        self,
        capacity_bytes: Optional[float] = None,
        eviction: Optional[EvictionPolicy] = None,
    ):
        if capacity_bytes is not None and capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive (or None)")
        self.capacity_bytes = capacity_bytes
        self.eviction = eviction or LRUEviction()
        self._entries: Dict[str, StoreEntry] = {}
        self._by_digest: Dict[str, str] = {}
        #: Insertion counter behind ``StoreEntry.seq``; only ever compared
        #: within this store.
        self._seqs = itertools.count()
        self.used_bytes = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, data_id: str) -> bool:
        return data_id in self._entries

    def clear(self) -> None:
        self._entries.clear()
        self._by_digest.clear()
        self.used_bytes = 0

    # -- entry access -------------------------------------------------------------

    def entry(self, data_id: str) -> Optional[StoreEntry]:
        return self._entries.get(data_id)

    def data_ids(self) -> List[str]:
        return list(self._entries)

    def entries(self) -> List[StoreEntry]:
        return list(self._entries.values())

    def find_digest(self, digest: str) -> Optional[str]:
        """data_id of the resident entry with this content address."""
        return self._by_digest.get(digest)

    @property
    def pinned_bytes(self) -> int:
        return sum(e.nbytes for e in self._entries.values() if e.pinned)

    # -- mutation -----------------------------------------------------------------

    def put(
        self,
        data_id: str,
        value: Any,
        nbytes: int,
        *,
        now: float,
        pinned: bool = False,
        cost: float = 0.0,
        digest: str = "",
    ) -> List[StoreEntry]:
        """Insert (or overwrite) an entry; returns the entries evicted to
        make room.  Raises :class:`StoreFullError` when the capacity cannot
        be met by evicting unpinned entries."""
        if nbytes < 0:
            raise DataError("data size must be non-negative")
        evicted = []
        old = self._entries.get(data_id)
        free_after = self.used_bytes - (old.nbytes if old else 0)
        if self.capacity_bytes is not None:
            if nbytes > self.capacity_bytes:
                raise StoreFullError(
                    f"{data_id!r} ({nbytes} B) exceeds store capacity "
                    f"{self.capacity_bytes:.0f} B"
                )
            while free_after + nbytes > self.capacity_bytes:
                victim = self._pick_victim(exclude=data_id)
                if victim is None:
                    raise StoreFullError(
                        f"cannot fit {data_id!r} ({nbytes} B): "
                        f"{self.pinned_bytes} B pinned of "
                        f"{self.capacity_bytes:.0f} B capacity"
                    )
                self.remove(victim.data_id)
                evicted.append(victim)
                free_after = self.used_bytes - (
                    old.nbytes if old and old.data_id in self._entries else 0
                )
        if old is not None:
            self.remove(data_id)
        entry = StoreEntry(
            data_id=data_id,
            value=value,
            nbytes=nbytes,
            pinned=pinned,
            cost=cost,
            created=now,
            last_used=now,
            seq=next(self._seqs),
            digest=digest,
        )
        self._entries[data_id] = entry
        if digest:
            self._by_digest[digest] = data_id
        self.used_bytes += nbytes
        return evicted

    def _pick_victim(self, exclude: str) -> Optional[StoreEntry]:
        candidates = [
            e for e in self._entries.values() if not e.pinned and e.data_id != exclude
        ]
        if not candidates:
            return None
        return min(candidates, key=self.eviction.rank)

    def remove(self, data_id: str) -> Optional[StoreEntry]:
        entry = self._entries.pop(data_id, None)
        if entry is None:
            return None
        self.used_bytes -= entry.nbytes
        if entry.digest and self._by_digest.get(entry.digest) == data_id:
            del self._by_digest[entry.digest]
        return entry

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        cap = "inf" if self.capacity_bytes is None else f"{self.capacity_bytes:.0f}"
        return f"DataStore({len(self._entries)} entries, {self.used_bytes}/{cap} B)"

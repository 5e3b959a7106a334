"""Per-host content-addressed data stores (the DAGDA cache of one SeD).

Each SeD owns one :class:`DataStore`: an unbounded map of
``data_id -> StoreEntry`` holding the persisted argument values of past
solves plus any replicas pulled from peers.  DAGDA semantics (Caron et al.,
"DAGDA: Data Arrangement for Grid and Distributed Applications"):

* entries are *content-addressed* — a digest over the value lets the store
  recognize a dataset it already holds under another id and alias it
  instead of storing the bytes twice;
* ``DIET_STICKY`` entries are *pinned*: never shipped to a peer.

The data manager never drops an entry from a live SeD's store; the store
empties when its SeD crashes (it is process memory), so the catalog's
replicas of a live SeD are exactly its store.
The store is pure bookkeeping — it never schedules events, so an idle data
manager cannot perturb the kernel determinism suite's recorded streams.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from ..core.exceptions import DataError

__all__ = [
    "StoreEntry",
    "DataStore",
    "content_digest",
]


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
    #: DIET_STICKY: pinned entries never move to a peer.
    pinned: bool
    digest: str = ""


class DataStore:
    """A content-addressed entry map."""

    def __init__(self) -> None:
        self._entries: Dict[str, StoreEntry] = {}
        self._by_digest: Dict[str, str] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, data_id: str) -> bool:
        return data_id in self._entries

    def clear(self) -> None:
        self._entries.clear()
        self._by_digest.clear()

    # -- entry access -------------------------------------------------------------

    def entry(self, data_id: str) -> Optional[StoreEntry]:
        return self._entries.get(data_id)

    def data_ids(self) -> List[str]:
        return list(self._entries)

    def find_digest(self, digest: str) -> Optional[str]:
        """data_id of the resident entry with this content address."""
        return self._by_digest.get(digest)

    # -- mutation -----------------------------------------------------------------

    def put(
        self,
        data_id: str,
        value: Any,
        nbytes: int,
        *,
        pinned: bool = False,
        digest: str = "",
    ) -> None:
        """Insert (or overwrite) an entry."""
        if nbytes < 0:
            raise DataError("data size must be non-negative")
        if data_id in self._entries:
            self.remove(data_id)
        self._entries[data_id] = StoreEntry(
            data_id=data_id, value=value, nbytes=nbytes, pinned=pinned,
            digest=digest)
        if digest:
            self._by_digest[digest] = data_id

    def remove(self, data_id: str) -> Optional[StoreEntry]:
        entry = self._entries.pop(data_id, None)
        if entry is None:
            return None
        if entry.digest and self._by_digest.get(entry.digest) == data_id:
            del self._by_digest[entry.digest]
        return entry

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"DataStore({len(self._entries)} entries)"

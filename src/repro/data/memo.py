"""Grid-wide result memoization keyed on canonical request descriptors.

At millions of Zipf-distributed clients many requests are byte-identical —
same IC seed, same zoom target, same cosmology — yet each one walks the
full schedule-and-solve path.  The stores are already content-addressed
(sha256); this module adds the missing request→result index in front of
the solve (ROADMAP item 5):

* :func:`request_descriptor` / :func:`descriptor_digest` canonicalize a
  client profile into a key: the service signature plus every IN/INOUT
  value, normalized (arrays to raw bytes, files to path+content, handles
  to their identity) and settled through
  :func:`~repro.experiments.runner.canonical_pickle` so the same logical
  request always hashes to the same key, on any worker, in any process;
* :class:`MemoIndex` is the federation-wide index mapping keys to
  :class:`~repro.core.requests.MemoHit` entries (persistent OUT/INOUT
  handles on the owning SeD).  Master Agents consult it before scheduling
  (both routing modes) and SeDs populate it on successful solves whose
  outputs all kept a server copy — a VOLATILE output leaves nothing to
  point at, so such requests are never memoized;
* invalidation rides the existing crash cascade: a SeD crash drops every
  entry it owned (:meth:`MemoIndex.invalidate_owner`, called from the
  data manager's crash cleanup and the agents' ``remove_child``) — a
  live SeD never drops a stored datum, so an entry whose owner is up is
  servable.  A client that pulled a hit whose owner died mid-fetch falls
  back to a normal re-solve, which repopulates the index.

Everything here is synchronous bookkeeping — lookups and population
schedule **zero** events.  Every stack carries one index
(:attr:`repro.data.manager.DataGrid.memo`); whether a request is memoized
is decided by the request: the client sends a key (``memo_enabled``) and
every OUT argument keeps a server copy.  An index nobody sends keys to
counts nothing.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Any, Dict, Optional, Set, Tuple

from ..core.data import DataHandle, Direction, FileRef

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from ..core.profile import Profile
    from ..core.requests import MemoHit

__all__ = ["MemoIndex", "MemoStats", "descriptor_digest", "request_descriptor"]


def _normalize(value: Any) -> Any:
    """A stable, picklable stand-in for one argument value.

    Arrays hash by dtype/shape/raw bytes (object identity and memory
    layout must not matter), files by logical path + size + inline
    content, handles by their frozen identity triple.  Scalars and
    strings pass through — ``canonical_pickle`` settles those.
    """
    import numpy as np

    if isinstance(value, np.ndarray):
        arr = np.ascontiguousarray(value)
        return ("ndarray", arr.dtype.str, arr.shape, arr.tobytes())
    if isinstance(value, FileRef):
        return ("file", value.path, value.nbytes, value.content)
    if isinstance(value, DataHandle):
        return ("handle", value.data_id, value.sed_name, value.nbytes)
    return value


def request_descriptor(profile: "Profile") -> Tuple:
    """The canonical descriptor of one request: what must match for two
    submits to be the same computation.

    Covers the service path, the full argument signature (direction,
    composite/base type, persistence mode — a PERSISTENT result is not
    interchangeable with a STICKY one) and every IN/INOUT *value*.  OUT
    slots contribute their declaration only: their values are client-side
    placeholders (or a previous call's results) and must not fragment the
    key space.
    """
    args = []
    for arg in profile.arguments:
        desc = arg.desc
        shape = (
            arg.direction.value,
            desc.composite.value,
            desc.base.cname,
            desc.persistence.value,
        )
        if arg.direction is Direction.OUT:
            args.append(shape)
        else:
            args.append(shape + (_normalize(arg.value),))
    return ("diet-request", profile.path, tuple(args))


def descriptor_digest(profile: "Profile") -> str:
    """sha256 of the canonically pickled descriptor — the memo key."""
    # Imported lazily: experiments imports the core deployment modules at
    # package level, so a module-level import here would cycle.
    from ..experiments.runner import canonical_pickle

    raw = canonical_pickle(request_descriptor(profile))
    return hashlib.sha256(raw).hexdigest()


@dataclass
class MemoStats:
    """Plain-int memo accounting (picklable, always on)."""

    hits: int = 0
    misses: int = 0
    invalidations: int = 0
    populated: int = 0

    def as_dict(self) -> Dict[str, int]:
        return asdict(self)

    @property
    def hit_rate(self) -> float:
        """Hits over lookups, 0.0 before the first lookup."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0


class MemoIndex:
    """The grid-wide request→result index, shared by every agent and SeD.

    Pure synchronous bookkeeping over plain dicts — safe to consult from
    inside a scheduling decision.  :attr:`stats` is the one record of its
    hits, misses, populations and invalidations, always on.
    """

    def __init__(self) -> None:
        self.stats = MemoStats()
        self._entries: Dict[str, "MemoHit"] = {}
        self._by_owner: Dict[str, Set[str]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    # -- population (SeD side) ---------------------------------------------------

    def put(self, hit: "MemoHit") -> bool:
        """Register a solved result; first writer wins (a concurrent solve
        of the same key on another SeD produced equivalent data — keeping
        the incumbent avoids churning the owner index).  True if stored.
        """
        if hit.key in self._entries:
            return False
        self._entries[hit.key] = hit
        self._by_owner.setdefault(hit.owner, set()).add(hit.key)
        self.stats.populated += 1
        return True

    # -- lookup (MA side) --------------------------------------------------------

    def lookup(self, key: str) -> Optional["MemoHit"]:
        """Consult the index for one submit, counting hit or miss."""
        hit = self._entries.get(key)
        if hit is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return hit

    def peek(self, key: str) -> Optional["MemoHit"]:
        """Like :meth:`lookup` but without touching the counters."""
        return self._entries.get(key)

    # -- invalidation ------------------------------------------------------------

    def invalidate_owner(self, owner: str) -> int:
        """Drop every entry owned by a crashed/deregistered SeD."""
        keys = self._by_owner.pop(owner, ())
        for key in keys:
            del self._entries[key]
        self.stats.invalidations += len(keys)
        return len(keys)

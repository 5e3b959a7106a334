"""The kernel's C hot core: event heap + Timeout, with a pure-Python fallback.

``_simcore.c`` keeps the event queue's three ordering keys unboxed beside
each event pointer (sift comparisons become C double/long compares instead
of Python tuple comparisons) and provides a C ``Timeout`` whose constructor
schedules itself into that heap in a single call — the kernel's hottest
allocation site with no Python frame at all.  The heap owns the sequence
counter: ``push(when, prio, obj)`` stamps the next seq itself, so pop order
is bit-identical to ``heapq`` over ``(when, prio, seq, obj)`` tuples.

The extension is built on first import with whatever ``cc`` the box has and
cached next to the source (or under the system temp dir when the package
directory is read-only).  Anything going wrong — no compiler, no headers,
sandboxed filesystem — degrades to :class:`PyEventHeap` (plain ``heapq``
behind the same API) and the pure-Python ``Timeout`` defined in
``engine.py``, with one ``RuntimeWarning`` that carries the reason.
``REPRO_PURE_PY=1`` forces the fallback (no build attempted, no warning);
the determinism suite runs against both implementations.
"""

from __future__ import annotations

import os
import warnings
from heapq import heappop, heappush
from typing import Optional

from .cbuild import build_and_load

__all__ = ["EventHeap", "PyEventHeap", "CTimeout", "HEAP_IMPL"]

_INF = float("inf")


class PyEventHeap:
    """Pure-Python fallback: a heapq-managed list behind the C heap's API.

    Entries are ``(when, prio, seq, obj)`` tuples; ``seq`` is stamped at
    push from :attr:`count`, exactly like the C heap, so the two pop in the
    same total order.
    """

    __slots__ = ("_entries", "count", "now")

    def __init__(self):
        self._entries: list = []
        #: Total entries ever pushed (== the next sequence number).
        self.count = 0
        #: Simulation clock: time of the last popped entry.
        self.now = 0.0

    def push(self, when: float, prio: int, obj: object) -> None:
        seq = self.count
        self.count = seq + 1
        heappush(self._entries, (when, prio, seq, obj))

    def pushnow(self, prio: int, obj: object) -> None:
        seq = self.count
        self.count = seq + 1
        heappush(self._entries, (self.now, prio, seq, obj))

    def pushdelay(self, delay: float, prio: int, obj: object) -> None:
        seq = self.count
        self.count = seq + 1
        heappush(self._entries, (self.now + delay, prio, seq, obj))

    def pop(self) -> tuple:
        entry = heappop(self._entries)
        self.now = entry[0]
        return entry

    def pop2(self) -> tuple:
        entry = heappop(self._entries)
        self.now = entry[0]
        return entry[0], entry[3]

    def peektime(self) -> float:
        entries = self._entries
        return entries[0][0] if entries else _INF

    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)


def _smoke(mod) -> bool:
    # Smoke-test ordering and the Timeout fast path before trusting the
    # extension for every simulation.
    heap = mod.EventHeap()
    for when, prio in [(2.0, 1), (1.0, 1), (1.0, 0), (1.0, 1)]:
        heap.push(when, prio, object())
    keys = [heap.pop()[:3] for _ in range(len(heap))]
    if keys != sorted(keys) or keys != [(1.0, 0, 2), (1.0, 1, 1),
                                        (1.0, 1, 3), (2.0, 1, 0)]:
        return False
    if heap.peektime() != _INF or heap.count != 4 or heap.now != 2.0:
        return False

    # Timeout fast path: the heap owns the clock, so the constructor
    # schedules relative to queue.now.  It accepts the heap directly (the
    # Engine's bound ``timeout`` factory) or any object with a ``_queue``.
    queue = mod.EventHeap()
    queue.now = 1.5
    t = mod.Timeout(queue, 2.5, value="v", priority=0)
    if not (t.delay == 2.5 and t._ok and t._scheduled and t.value == "v"
            and not t.processed and t.callbacks == []
            and type(t).__name__ == "Timeout"):
        return False
    if queue.pop2() != (4.0, t) or queue.now != 4.0:
        return False

    # drain(): watcherless timeouts are consumed without callbacks and the
    # clock clamps to `until` when the next event lies beyond it.
    queue = mod.EventHeap()
    mod.Timeout(queue, 1.0)
    far = mod.Timeout(queue, 9.0)
    code = mod.drain(object(), queue, 5.0, True, None)
    if code != 1 or queue.now != 5.0 or len(queue) != 1:
        return False
    if mod.drain(object(), queue, float("inf"), False, None) != 0:
        return False
    if not far.processed:
        return False
    return True


_mod = None
if not os.environ.get("REPRO_PURE_PY"):
    try:
        _mod, _why = build_and_load(
            os.path.join(os.path.dirname(__file__), "_simcore.c"),
            "_simcore", smoke=_smoke)
    except Exception as exc:  # pragma: no cover - any build breakage means fallback
        _mod, _why = None, f"{type(exc).__name__}: {exc}"
    if _mod is None:
        warnings.warn(f"_simcore: C extension not usable ({_why}); running on "
                      "the pure-Python event heap", RuntimeWarning)

#: C Timeout type, or None when running on the pure-Python fallback.
CTimeout: Optional[type] = _mod.Timeout if _mod is not None else None
EventHeap = _mod.EventHeap if _mod is not None else PyEventHeap
#: Raw extension module (exposes drain()/configure()); None on fallback.
_C = _mod
#: "c" or "python" — surfaced in benchmark exports so regression numbers
#: are never compared across implementations by accident.
HEAP_IMPL = "c" if _mod is not None else "python"

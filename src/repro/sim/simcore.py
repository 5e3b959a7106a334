"""The kernel's C hot core: event heap, Event, Process and Timeout, with a
pure-Python fallback.

``_simcore.c`` keeps the event queue's three ordering keys unboxed beside
each event pointer (sift comparisons become C double/long compares instead
of Python tuple comparisons) and implements the event family as C types:
``Event`` (``Request``, ``AnyOf`` and ``AllOf`` subclass it in Python),
``Process`` — its own resume callback, resumed by the C dispatch loop
through struct fields — and ``Timeout``, whose constructor schedules itself
into that heap in a single call.  The heap owns the sequence counter:
``push(when, prio, obj)`` stamps the next seq itself, so pop order is
bit-identical to ``heapq`` over ``(when, prio, seq, obj)`` tuples.

The extension is built on first import with whatever ``cc`` the box has and
cached next to the source (or under the system temp dir when the package
directory is read-only).  Anything going wrong — no compiler, no headers,
sandboxed filesystem, a smoke check that fails — degrades to
:class:`PyEventHeap` (plain ``heapq`` behind the same API) and the
pure-Python event classes defined in ``engine.py``, with one
``RuntimeWarning`` that carries the reason.  ``REPRO_PURE_PY=1`` forces the
fallback (no build attempted, no warning); the determinism suite runs
against both implementations.
"""

from __future__ import annotations

import os
import warnings
from heapq import heapify, heappop, heappush

from .cbuild import build_and_load

__all__ = ["EventHeap", "PyEventHeap", "HEAP_IMPL"]

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

    def remove(self, obj: object) -> None:
        """Unschedule ``obj`` without dispatching it (pop order of the rest
        is the same total order)."""
        entries = self._entries
        for i, entry in enumerate(entries):
            if entry[3] is obj:
                break
        else:
            raise ValueError("remove(): object is not scheduled")
        last = entries.pop()
        if i < len(entries):
            entries[i] = last
            heapify(entries)

    def peektime(self) -> float:
        entries = self._entries
        return entries[0][0] if entries else _INF

    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise RuntimeError(f"smoke check failed: {what}")


def _smoke(mod) -> bool:
    # Exercise heap ordering and the event types before trusting the
    # extension for every simulation; a failed check raises with its
    # reason, which the fallback warning carries.
    heap = mod.EventHeap()
    for when, prio in [(2.0, 1), (1.0, 1), (1.0, 0), (1.0, 1)]:
        heap.push(when, prio, object())
    keys = [heap.pop()[:3] for _ in range(len(heap))]
    _expect(keys == [(1.0, 0, 2), (1.0, 1, 1), (1.0, 1, 3), (2.0, 1, 0)],
            f"heap pop order {keys}")
    _expect(heap.peektime() == _INF and heap.count == 4 and heap.now == 2.0,
            "heap clock and count")

    # Timeout fast path: the heap owns the clock, so the constructor
    # schedules relative to queue.now.  It accepts the heap directly (the
    # Engine's bound ``timeout`` factory) or any object with a ``_queue``.
    queue = mod.EventHeap()
    queue.now = 1.5
    t = mod.Timeout(queue, 2.5, value="v", priority=0)
    _expect(t.delay == 2.5 and t._ok and t._scheduled and t.value == "v"
            and not t.processed and t.callbacks == [],
            "Timeout fields")
    _expect(queue.pop2() == (4.0, t) and queue.now == 4.0, "Timeout push")

    # timeout_at() schedules at the absolute instant; remove() unschedules.
    at = queue.timeout_at(4.25)
    gone = queue.timeout_at(4.0)
    queue.remove(gone)
    _expect(len(queue) == 1 and at.delay == 0.25
            and queue.pop2() == (4.25, at), "timeout_at / remove")

    # drain(): watcherless timeouts are consumed without callbacks and the
    # clock clamps to `until` when the next event lies beyond it.
    queue = mod.EventHeap()
    mod.Timeout(queue, 1.0)
    far = mod.Timeout(queue, 9.0)
    _expect(mod.drain(queue, 5.0, True, None) == 1 and queue.now == 5.0
            and len(queue) == 1, "drain clamps to until")
    _expect(mod.drain(queue, _INF, False, None) == 0 and far.processed,
            "drain empties the heap")

    # A Process on a fresh heap runs through drain to its return value.
    def returns(value):
        yield mod.Timeout(queue, 1.0)
        return value

    queue = mod.EventHeap()
    proc = mod.Process(queue, returns(7), None)
    _expect(proc.name == "returns" and proc.is_alive, "Process fields")
    _expect(mod.drain(queue, _INF, False, proc) == 2 and proc._value == 7
            and proc.processed and queue.now == 1.0,
            "a Process runs to its return value")

    # A process waiting on an Event wakes with that event's value.
    def waits(event):
        return (yield event) + 1

    event = mod.Event(queue)
    proc = mod.Process(queue, waits(event))
    _expect(mod.drain(queue, _INF, False, None) == 0 and proc.is_alive
            and event.callbacks == [proc], "a Process subscribes to an Event")
    event.succeed(41)
    _expect(mod.drain(queue, _INF, False, proc) == 2 and proc._value == 42,
            "a Process wakes with its Event's value")
    _expect((type(event).__name__, type(proc).__name__, type(t).__name__)
            == ("Event", "Process", "Timeout"), "type names")
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
                      "the pure-Python kernel", RuntimeWarning)

EventHeap = _mod.EventHeap if _mod is not None else PyEventHeap
#: Raw extension module (its event types, drain() and configure()); None
#: on fallback.
_C = _mod
#: "c" or "python" — surfaced in benchmark exports so regression numbers
#: are never compared across implementations by accident.
HEAP_IMPL = "c" if _mod is not None else "python"

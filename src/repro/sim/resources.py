"""Shared-resource primitives for the simulation kernel.

Two primitives cover everything the middleware and platform layers need:

* :class:`Resource` — a counted semaphore with a FIFO wait queue (used for
  CPU slots on compute nodes and the one-job-at-a-time constraint of a SeD);
* :class:`Store` — an unbounded FIFO of Python objects with blocking ``get``
  (used for the master agent's batched-admission queue).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Generator, List, Optional

from .engine import Engine, Event

__all__ = ["Resource", "Request", "Store"]


class Request(Event):
    """A pending claim on a :class:`Resource`; fires when granted.

    The grant carries no value (``yield req`` resumes with ``None``): the
    claim is the request object the caller already holds, and an event
    whose value is itself would be a reference cycle per claim.

    Use inside a process::

        req = resource.request()
        yield req
        try:
            ...
        finally:
            resource.release(req)
    """

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        super().__init__(resource.engine)
        self.resource = resource


class Resource:
    """Counted resource with FIFO granting.

    ``capacity`` claims may be outstanding at once; further requests queue.
    """

    def __init__(self, engine: Engine, capacity: int = 1):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.engine = engine
        self.capacity = capacity
        self._users: List[Request] = []
        self._waiting: Deque[Request] = deque()

    @property
    def count(self) -> int:
        """Number of granted (active) claims."""
        return len(self._users)

    @property
    def queue_length(self) -> int:
        """Number of claims waiting to be granted."""
        return len(self._waiting)

    def request(self) -> Request:
        req = Request(self)
        if len(self._users) < self.capacity:
            self._users.append(req)
            req.succeed()
        else:
            self._waiting.append(req)
        return req

    def release(self, request: Request) -> None:
        """Release a granted claim (or cancel a queued one)."""
        try:
            self._users.remove(request)
        except ValueError:
            # Not granted yet: cancel from the wait queue if present.
            try:
                self._waiting.remove(request)
            except ValueError:
                raise RuntimeError("release() of a request unknown to this resource")
            return
        while self._waiting and len(self._users) < self.capacity:
            nxt = self._waiting.popleft()
            self._users.append(nxt)
            nxt.succeed()

    def acquire(self) -> Generator[Event, Any, Request]:
        """Process helper: ``req = yield from resource.acquire()``.

        Interrupt-safe: if the waiting process is interrupted (e.g. its host
        crashes) while the claim is still queued — or just granted — the
        claim is cancelled/released instead of leaking a phantom user.
        """
        req = self.request()
        try:
            yield req
        except BaseException:
            self.release(req)
            raise
        return req


class Store:
    """Unbounded FIFO store of Python objects with blocking ``get``.

    ``put`` never blocks.  ``get`` returns an event that fires with the next
    item; pending getters are served FIFO.
    """

    def __init__(self, engine: Engine):
        self.engine = engine
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        ev = Event(self.engine)
        if self._items:
            ev.succeed(self._items.popleft())
        else:
            self._getters.append(ev)
        return ev

    def try_get(self) -> Optional[Any]:
        """Non-blocking get; None if empty."""
        return self._items.popleft() if self._items else None


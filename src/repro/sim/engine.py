"""Discrete-event simulation kernel.

The kernel follows the classic event-queue / generator-process design
(similar in spirit to SimPy, reimplemented here so the middleware stack has
no external runtime dependency):

* an :class:`Engine` owns a priority queue of :class:`Event` objects keyed by
  ``(time, priority, sequence)``;
* a :class:`Process` wraps a Python generator; each ``yield``-ed event
  suspends the process until the event triggers, at which point the process
  is resumed with the event's value.

All simulated time is a ``float`` in **seconds**.  The kernel is fully
deterministic: two runs with the same seed and the same process creation
order produce identical event orderings (ties are broken by a monotonically
increasing sequence number).

Hot-path discipline (PR 3): campaigns dispatch hundreds of thousands of
events, so the create/schedule/dispatch/resume cycle is written for
throughput — ``__slots__`` everywhere, scheduling inlined into the
constructors and trigger paths (no per-push closures or helper frames),
single-callback dispatch without copying, and a ``run()`` loop that keeps
the queue and clock in locals.  The determinism suite
(``tests/property/test_kernel_determinism.py``) pins the exact event
stream these fast paths must preserve.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Generator, Iterable, List, Optional

from .simcore import CTimeout, EventHeap, _C

_INF = float("inf")

__all__ = [
    "Engine",
    "Event",
    "Timeout",
    "Process",
    "AnyOf",
    "AllOf",
    "Interrupt",
    "SimulationError",
    "PRIORITY_URGENT",
    "PRIORITY_NORMAL",
    "PRIORITY_LOW",
]

#: Scheduling priorities.  Lower value == dispatched earlier at equal time.
PRIORITY_URGENT = 0
PRIORITY_NORMAL = 1
PRIORITY_LOW = 2

#: Sentinel meaning "event not yet assigned a value".
_PENDING = object()


class SimulationError(RuntimeError):
    """Raised for kernel misuse (double trigger, run with empty queue, ...)."""


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    The ``cause`` attribute carries the value passed to ``interrupt``.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence in simulated time.

    An event starts *pending*; it may be :meth:`succeed`-ed or :meth:`fail`-ed
    exactly once, after which its callbacks run at the current simulation
    time.  Processes subscribe by yielding the event.
    """

    #: ``__weakref__`` lets diagnostics and the cycle-freedom tests watch an
    #: event die without keeping it alive.
    __slots__ = ("engine", "callbacks", "_value", "_ok", "_scheduled",
                 "__weakref__")

    def __init__(self, engine: "Engine"):
        self.engine = engine
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        self._scheduled = False

    # -- state --------------------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to fire (or has fired)."""
        return self._scheduled

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if self._ok is None:
            raise SimulationError("event has not been triggered yet")
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is _PENDING:
            raise SimulationError("event value is not yet available")
        return self._value

    # -- triggering ---------------------------------------------------------

    def succeed(self, value: Any = None, priority: int = PRIORITY_NORMAL) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._scheduled:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self._scheduled = True
        self.engine._queue.pushnow(priority, self)
        return self

    def fail(self, exception: BaseException, priority: int = PRIORITY_NORMAL) -> "Event":
        """Trigger the event with an exception (re-raised in waiters)."""
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        if self._scheduled:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = False
        self._value = exception
        self._scheduled = True
        self.engine._queue.pushnow(priority, self)
        return self

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "processed" if self.processed else ("triggered" if self._scheduled else "pending")
        return f"<{type(self).__name__} {state} at {hex(id(self))}>"


class Timeout(Event):
    """An event that fires automatically after ``delay`` simulated seconds.

    Fast path: a Timeout is *born scheduled* — its outcome is decided at
    creation, so the constructor sets the event state directly and pushes
    the heap entry itself instead of going through
    ``Event.__init__`` + ``succeed`` (three frames saved per event on the
    kernel's single hottest allocation site).
    """

    __slots__ = ("delay",)

    def __init__(self, engine: "Engine", delay: float, value: Any = None,
                 priority: int = PRIORITY_NORMAL):
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        self.engine = engine
        self.callbacks = []
        self._value = value
        self._ok = True
        self._scheduled = True
        self.delay = delay
        engine._queue.pushdelay(delay, priority, self)


if CTimeout is not None:
    # The C fast path: same constructor signature, same duck-typed Event
    # surface, same type __name__ (so determinism event logs match), but
    # the whole create-and-schedule cycle runs without a Python frame.
    Timeout = CTimeout  # noqa: F811


class _ConditionEvent(Event):
    """Base for AnyOf / AllOf composite events.

    Once the condition settles (succeeds or fails) it *detaches* its
    callback from every sibling event that has not fired yet: a late-failing
    sibling must not touch an already-settled condition, and long campaigns
    would otherwise accumulate dead callbacks on long-lived events.
    """

    __slots__ = ("events", "_n_fired", "_n_sub")

    def __init__(self, engine: "Engine", events: Iterable[Event]):
        # Event.__init__ inlined: one condition per fan-out and per wait.
        self.engine = engine
        self.callbacks = []
        self._value = _PENDING
        self._ok = None
        self._scheduled = False
        self.events = list(events)
        self._n_fired = 0
        #: How many children were actually subscribed (settling
        #: mid-registration stops the subscription loop early); _detach
        #: only visits these, so it never has to probe for membership.
        self._n_sub = 0
        if not self.events:
            # An empty condition is immediately true.
            self.succeed({})
            return
        on_fire = self._on_fire
        for ev in self.events:
            cbs = ev.callbacks
            if cbs is None:
                # Already fired and processed: settle synchronously.
                on_fire(ev)
                if self._scheduled:
                    # Settled mid-registration (an already-fired child
                    # decided the outcome): later siblings must not be
                    # subscribed.
                    break
            else:
                cbs.append(on_fire)
                self._n_sub += 1

    def _detach(self) -> None:
        """Drop our callback from every still-pending subscribed child."""
        on_fire = self._on_fire
        events = self.events
        for i in range(self._n_sub):
            cbs = events[i].callbacks
            if cbs is not None:
                try:
                    cbs.remove(on_fire)
                except ValueError:
                    pass

    def _collect(self) -> dict:
        return {ev: ev._value for ev in self.events
                if ev._scheduled and ev.callbacks is None}

    def _on_fire(self, event: Event) -> None:
        raise NotImplementedError


class AnyOf(_ConditionEvent):
    """Fires as soon as any child event fires (value: dict of fired events)."""

    __slots__ = ()

    def _on_fire(self, event: Event) -> None:
        if self._scheduled:
            return
        if not event._ok:
            self.fail(event._value)
        else:
            self.succeed(self._collect())
        self._detach()


class AllOf(_ConditionEvent):
    """Fires once all child events have fired (value: dict of all values)."""

    __slots__ = ()

    def _on_fire(self, event: Event) -> None:
        if self._scheduled:
            return
        if not event._ok:
            self.fail(event._value)
            self._detach()
            return
        self._n_fired += 1
        if self._n_fired == len(self.events):
            self.succeed({ev: ev._value for ev in self.events})
            self._detach()


ProcessGenerator = Generator[Event, Any, Any]


class Process(Event):
    """A generator-based simulated process.

    A process is itself an :class:`Event` that settles (with the generator's
    return value) when the generator finishes, so processes can wait on each
    other simply by yielding the other process; one that returns while nobody
    waits on it is processed on the spot, with no dispatch (:meth:`_finish`).
    """

    __slots__ = ("generator", "name", "_target", "_interrupts", "_defused",
                 "_resume_cb")

    def __init__(self, engine: "Engine", generator: ProcessGenerator,
                 name: Optional[str] = None):
        # Event.__init__ inlined: a campaign spawns one process per
        # handler and fan-out leg.
        self.engine = engine
        self.callbacks = []
        self._value = _PENDING
        self._ok = None
        self._scheduled = False
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        #: Pending interrupts; no list until the first :meth:`interrupt`.
        self._interrupts: Optional[List[Interrupt]] = None
        self._defused = False
        #: The bound resume method, created once.  Every subscription uses
        #: this same object: no bound-method allocation per wake-up, and the
        #: C dispatch loop recognises it by its ``__func__`` to run the
        #: resume fully in C.  It is the process's one reference to itself
        #: (process -> method -> process); ``_finish`` drops it so a
        #: finished process dies by reference count.
        self._resume_cb = resume = self._resume
        # Bootstrap: resume once at the current time.
        boot = Timeout(engine, 0.0, None, PRIORITY_URGENT)
        boot.callbacks.append(resume)
        self._target: Optional[Event] = boot

    @property
    def is_alive(self) -> bool:
        return not self._scheduled

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self._scheduled:
            raise SimulationError(f"cannot interrupt finished process {self.name}")
        if self._interrupts is None:
            self._interrupts = []
        self._interrupts.append(Interrupt(cause))
        # Detach from the current target and resume immediately.
        target, self._target = self._target, None
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self._resume_cb)
            except ValueError:
                pass
        wake = Timeout(self.engine, 0.0, priority=PRIORITY_URGENT)
        wake.callbacks.append(self._resume_cb)
        self._target = wake

    def _resume(self, event: Event) -> None:
        # The kernel's hottest frame: runs once per process wake-up.  The
        # generator and engine are pinned in locals; the "already fired"
        # shortcut reads ``callbacks is None`` directly instead of the
        # ``processed`` property.
        engine = self.engine
        engine._active_process = self
        generator = self.generator
        try:
            while True:
                try:
                    if self._interrupts:
                        next_event = generator.throw(self._interrupts.pop(0))
                    elif event._ok:
                        next_event = generator.send(event._value)
                    else:
                        next_event = generator.throw(event._value)
                except StopIteration as stop:
                    self._finish(True, stop.value)
                    return
                except BaseException as exc:
                    if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                        raise
                    # Unhandled in-process exception: fail the process event;
                    # if nobody is watching, escalate at dispatch time.  The
                    # traceback's head entry is this frame, which pins
                    # ``self`` (process -> exception -> frame -> process):
                    # drop it, as the C resume has no frame to record.
                    exc.__traceback__ = exc.__traceback__.tb_next
                    self._finish(False, exc)
                    return
                try:
                    cbs = next_event.callbacks
                except AttributeError:
                    raise SimulationError(
                        f"process {self.name!r} yielded {next_event!r}, "
                        f"not an Event") from None
                if cbs is None:
                    # Already fired: loop around synchronously.
                    event = next_event
                    continue
                self._target = next_event
                cbs.append(self._resume_cb)
                return
        finally:
            engine._active_process = None

    def _finish(self, ok: bool, value: Any) -> None:
        """The generator ended (both resume legs, here and in C, end here).
        With nobody subscribed a success never enters the heap; a failure
        always does, so that dispatch escalates the unwatched crash."""
        self._resume_cb = None  # the process's one reference to itself
        self._ok = ok
        self._value = value
        self._scheduled = True
        if self.callbacks or not ok:
            self.engine._queue.pushnow(PRIORITY_NORMAL, self)
        else:
            self.callbacks = None


class Engine:
    """The simulation engine: clock plus event queue."""

    __slots__ = ("_queue", "_active_process", "event_log", "timeout", "obs")

    #: Class-wide default for :attr:`event_log`.  Tests set this to a list
    #: before building a stack whose engines they cannot reach (e.g. the
    #: campaign workflow creates its own Engine) to capture the full
    #: dispatch stream; ``None`` (the default) costs one pointer check per
    #: event.
    default_event_log: Optional[List[tuple]] = None

    def __init__(self):
        self._queue = EventHeap()
        self._active_process: Optional[Process] = None
        #: When a list, every dispatched event appends
        #: ``(time, priority, seq, kind, name)`` — the exact total order the
        #: kernel executed.  The determinism suite diffs these streams.
        self.event_log: Optional[List[tuple]] = Engine.default_event_log
        #: ``timeout(delay[, value[, priority]])`` — the Timeout factory,
        #: pre-bound so the hottest allocation site skips the method frame.
        #: The C Timeout takes the heap directly (its constructor reads the
        #: clock from the queue); the Python fallback takes the engine.
        self.timeout = partial(
            Timeout, self._queue if CTimeout is not None else self)
        #: Observability hub (spans over simulated time).  Defaults
        #: to the shared disabled singleton; deployments install theirs.
        #: Recording is pure bookkeeping — never events — so the dispatch
        #: stream is identical with it enabled or disabled.
        from ..obs import NULL_OBS

        self.obs = NULL_OBS

    # -- clock ----------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in seconds (owned by the event queue)."""
        return self._queue.now

    @property
    def events_scheduled(self) -> int:
        """Total events ever pushed onto the queue (the seq counter)."""
        return self._queue.count

    # -- event factories --------------------------------------------------------

    def event(self) -> Event:
        return Event(self)

    # ``timeout`` is an instance attribute (a pre-bound partial) — see
    # __init__.  It keeps the historical ``engine.timeout(delay, value)``
    # call shape.

    def process(self, generator: ProcessGenerator, name: Optional[str] = None) -> Process:
        return Process(self, generator, name=name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # -- scheduling -----------------------------------------------------------

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if the queue is empty."""
        return self._queue.peektime()

    def _dispatch(self, when: float, prio: int, seq: int, event: Event) -> None:
        """Advance the clock to ``when`` and run ``event``'s callbacks.

        Shared tail of :meth:`step` and the logging :meth:`run` loop — the
        heap pop happens at the call sites (and already advanced the
        queue-owned clock); the sync below only matters for direct calls
        with a hand-made entry.
        """
        if when > self._queue.now:
            self._queue.now = when
        if self.event_log is not None:
            self.event_log.append((when, prio, seq, type(event).__name__,
                                   getattr(event, "name", None)))
        callbacks = event.callbacks
        event.callbacks = None
        if callbacks is None:
            raise SimulationError(f"{event!r} dispatched twice")
        if callbacks:
            if len(callbacks) == 1:
                # The overwhelmingly common case: exactly one waiter
                # (a process resume).  Skip the loop setup.
                callbacks[0](event)
            else:
                for cb in callbacks:
                    cb(event)
        elif (event._ok is False and isinstance(event, Process)
                and not event._defused):
            # A failed process with nobody watching it would otherwise
            # vanish silently; escalate unless explicitly defused.
            raise event._value

    def step(self) -> None:
        """Process the next scheduled event."""
        if not self._queue:
            raise SimulationError("step() on an empty event queue")
        when, prio, seq, event = self._queue.pop()
        self._dispatch(when, prio, seq, event)

    def run(self, until: Optional[float] = None) -> float:
        """Run until the queue drains or simulated time reaches ``until``.

        Returns the simulation time when the run stopped.
        """
        if until is not None and until < self._queue.now:
            raise ValueError(f"until={until} is in the past (now={self._queue.now})")
        obs = self.obs
        if obs.enabled:
            span = obs.spans.begin("engine", "run", self._queue.now, "engine")
            try:
                return self._run_inner(until)
            finally:
                obs.spans.end(span, self._queue.now,
                              events=self._queue.count)
        return self._run_inner(until)

    def _run_inner(self, until: Optional[float]) -> float:
        queue = self._queue
        if self.event_log is not None:
            # Logging path: full (when, prio, seq) per event, through the
            # shared _dispatch so the record format lives in one place.
            dispatch = self._dispatch
            peektime = queue.peektime
            while queue:
                if until is not None and peektime() > until:
                    queue.now = until
                    return until
                when, prio, seq, event = queue.pop()
                dispatch(when, prio, seq, event)
            return queue.now
        # Fast path: hand the whole pop/dispatch/callback loop to _drain
        # (the C dispatch loop when the extension is loaded, the Python
        # mirror below otherwise).  clamp=True pins the clock to `until`
        # when the next event lies beyond it, matching the logging path.
        _drain(self, queue, _INF if until is None else until, True, None)
        return self._queue.now

    def run_process(self, generator: ProcessGenerator, until: Optional[float] = None) -> Any:
        """Convenience: spawn ``generator`` and run until it completes.

        Returns the process return value; re-raises its exception on failure.
        """
        proc = self.process(generator)
        self.run(until=until)
        if not proc.triggered:
            raise SimulationError("process did not finish before the deadline")
        if not proc._ok:
            raise proc._value
        return proc._value

    def run_until_complete(self, generator: ProcessGenerator,
                           max_time: Optional[float] = None) -> Any:
        """Spawn ``generator`` and step until *it* completes (not until the
        queue drains).

        Unlike :meth:`run_process` this tolerates perpetual background
        processes — heartbeat monitors, failure injectors — that keep the
        event queue non-empty forever.  Raises :class:`SimulationError` if
        the queue drains (deadlock) or simulated time would pass
        ``max_time`` before the process finishes.
        """
        proc = self.process(generator)
        queue = self._queue
        obs = self.obs
        span = None
        if obs.enabled:
            span = obs.spans.begin("engine", "run", queue.now, "engine")
        try:
            self._run_until_complete_inner(proc, queue, max_time)
        finally:
            if span is not None:
                obs.spans.end(span, queue.now, events=queue.count)
        if not proc._ok:
            # The exception surfaces here; don't escalate it a second time
            # when the process event itself is dispatched.
            proc._defused = True
            raise proc._value
        return proc._value

    def _run_until_complete_inner(self, proc: Process, queue,
                                  max_time: Optional[float]) -> None:
        if self.event_log is not None:
            dispatch = self._dispatch
            while not proc._scheduled:
                if not queue:
                    raise SimulationError(
                        f"process {proc.name!r} cannot complete: event queue drained")
                if max_time is not None and queue.peektime() > max_time:
                    raise SimulationError(
                        f"process {proc.name!r} did not finish by t={max_time}")
                when, prio, seq, event = queue.pop()
                dispatch(when, prio, seq, event)
        else:
            # Fast path: _drain stops at whichever comes first — the
            # process finishing (2), the queue draining (0), or the next
            # event lying beyond max_time (1, clock left untouched).
            code = _drain(self, queue,
                          _INF if max_time is None else max_time, False, proc)
            if code == 0:
                raise SimulationError(
                    f"process {proc.name!r} cannot complete: event queue drained")
            if code == 1:
                raise SimulationError(
                    f"process {proc.name!r} did not finish by t={max_time}")

    def defuse(self, process: Process) -> None:
        """Mark a process so its failure is not escalated by the kernel."""
        process._defused = True  # type: ignore[attr-defined]


def _py_drain(engine: Engine, queue, until: float, clamp: bool,
              stopproc: Optional[Process]) -> int:
    """Pure-Python dispatch loop — the exact mirror of ``_simcore.drain``.

    Returns 0 when the queue drained, 1 when the next event lies beyond
    ``until`` (clock clamped to ``until`` if ``clamp``), 2 when
    ``stopproc`` finished.  Keep in sync with :meth:`Engine._dispatch` and
    the C loop; the determinism suite runs against both.
    """
    pop2 = queue.pop2
    peektime = queue.peektime
    while True:
        if stopproc is not None and stopproc._scheduled:
            return 2
        if not queue:
            return 0
        if peektime() > until:
            if clamp:
                queue.now = until
            return 1
        when, event = pop2()
        callbacks = event.callbacks
        event.callbacks = None
        if callbacks:
            if len(callbacks) == 1:
                # The overwhelmingly common case: exactly one waiter
                # (a process resume).  Skip the loop setup.
                callbacks[0](event)
            else:
                for cb in callbacks:
                    cb(event)
        elif callbacks is None:
            raise SimulationError(f"{event!r} dispatched twice")
        elif (event._ok is False and isinstance(event, Process)
                and not event._defused):
            # A failed process with nobody watching it would otherwise
            # vanish silently; escalate unless explicitly defused.
            raise event._value


if _C is not None:
    # Let the C dispatch loop recognise process-resume callbacks (by their
    # __func__) and raise the kernel's own error type.
    _C.configure(Process._resume, Process, SimulationError)
    _drain = _C.drain
else:
    _drain = _py_drain

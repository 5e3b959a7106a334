"""CORBA-substitute message transport over the simulated network.

DIET uses omniORB; GridSolve and Ninf use raw sockets (§2.1).  Here both
reduce to the same abstraction: named :class:`Endpoint` objects living on
simulated hosts, exchanging :class:`Message` objects whose delivery costs

    marshal(sender) + network(latency, bandwidth, size) + dispatch(receiver)

The paper's whole evaluation (finding time ≈ 49.8 ms, ≈ 70.6 ms/simulation
overhead) is a property of the client → MA → LA → SeD message path, so
what a message costs is written once, as straight-line code.  A request is
*posted* (:meth:`Endpoint.request`): the sender's side runs synchronously —
fault seam, count in :attr:`TransportFabric.accounting`, wire time — and
pushes one timer at ``(now + marshal) + wire`` on every route (the self
route's wire is 0), whose callback is the fabric's arrival step: the
destination's liveness check, then a handler process that boots at the
end of the receiver's dispatch charge.  The reply leg is the handler
process's tail: a marshal event, where its liveness is decided, and a
wire event (none on the self route).  An RPC is five kernel events —
request, handler boot, reply marshal, reply wire, reply token — and a
fan-out leg is the same five, with no process of its own.

An RPC is a request message carrying a reply-to token; :meth:`Endpoint.rpc`
suspends the calling process until the reply arrives — or, when
:meth:`Endpoint.set_deadline` gave the operation a deadline, until it
expires (one timer per deadline length serves the whole fabric) and
:class:`DeadlineExceededError` is raised.  An RPC is one attempt: a lost
request is recovered as a lost job, by the client resubmitting it under a
fresh request id (:meth:`DietClient.call_retry`).  An endpoint serves from
the moment it is bound.  Tests lose, stall and duplicate
messages through one seam, :attr:`Endpoint.faults` (a :class:`FaultInjector`,
None in every deployment): consulted in the sender before marshalling, so a
message dropped there is neither charged nor counted, and in the receiver
after the dispatch charge.

A :class:`TransportFabric` owns the endpoint namespace — this doubles as
the omniNames-like naming service (endpoints are resolved by string name).
Reply delivery is at-most-once: a request whose reply can no longer arrive
(receiver stopped or unbound mid-flight) fails with
:class:`CommunicationError` instead of suspending the caller forever, and
duplicate replies are suppressed with an accounting mark.  Neither an
interrupt nor a :meth:`Endpoint.stop` takes a transport event off the heap:
a posted message arrives at its wire end even when its sender was
cancelled meanwhile (an interrupted caller just stops waiting), and a
spawned handler boots at its dispatch end, where a stopped endpoint
dead-letters it.  Only a deadline queue's timer is ever removed.

With the compiled kernel loaded, the per-message state machine runs in
``sim/_simcore.c``: :class:`Message`, the send side
(:meth:`TransportFabric._post`), the arrival step (:class:`_Leg`) and the
handler process (:meth:`Endpoint._accept` and :meth:`Endpoint._handle` as
one ``Process`` subtype that drives the application handler's generator
itself), so no Python frame of this module runs from the post to the reply
token.  So do :meth:`Endpoint.request` and the :class:`_DeadlineQueue` of
every deadlined RPC: a fan-out leg runs no Python of this module at
all, and :meth:`Endpoint.rpc` is the one generator left.  The code below
is their statement-for-statement mirror, bound over by the C types at the
end of the module; ``REPRO_PURE_PY=1`` runs it.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from dataclasses import dataclass
from inspect import GEN_CREATED, getgeneratorstate
from typing import Any, Callable, Dict, Generator, Iterable, Optional, Tuple

from ..sim.engine import Engine, Event, Interrupt, Process
from ..sim.network import Network
from ..sim.simcore import _C
from .exceptions import CommunicationError, DeadlineExceededError

__all__ = ["TransportParams", "Message", "FaultInjector",
           "Accounting", "Endpoint", "TransportFabric"]


@dataclass(frozen=True, slots=True)
class TransportParams:
    """Timing model of the RPC layer.

    Defaults are the mid-2000s omniORB figures, calibrated so that the full
    MA/LA/SeD estimate round trip over the §5.1 topology averages the
    paper's 49.8 ms finding time.  ``TestE4FindingTime::
    test_average_matches_paper`` (``tests/integration/test_paper_numbers.py``)
    pins it to 3 %, and ``python -m repro figure5`` prints it.
    """

    #: CPU cost to marshal one invocation (CORBA stub + ORB dispatch), s.
    marshal_fixed: float = 2.8e-3
    #: Additional marshalling cost per byte of payload, s/byte.
    marshal_per_byte: float = 1.0e-9
    #: Server-side demultiplex + POA dispatch cost per message, s.
    dispatch_fixed: float = 1.6e-3
    #: Default payload size for control messages with no data, bytes.
    control_payload: int = 256


@dataclass(slots=True, eq=False)
class Message:
    """One transported message."""

    msg_id: int
    src: str            # endpoint name
    dst: str            # endpoint name
    op: str             # operation name, e.g. "estimate", "solve"
    payload: Any = None
    nbytes: int = 0
    reply_to: Optional[Event] = None
    sent_at: float = 0.0


class Accounting:
    """The full fate of every message: what crossed the wire and what did
    not.  Plain counters, always on, bumped by the transport (the hot path);
    reports read them here."""

    __slots__ = ("messages_sent", "bytes_sent", "messages_by_op",
                 "messages_dropped", "dead_letters", "replies_suppressed")

    def __init__(self):
        self.messages_sent = 0
        self.bytes_sent = 0
        self.messages_by_op: Dict[str, int] = {}
        #: Messages swallowed by fault injection.
        self.messages_dropped = 0
        #: Requests/replies that could never be delivered (endpoint stopped
        #: or unbound mid-flight); their callers got a CommunicationError.
        self.dead_letters = 0
        #: Duplicate replies suppressed by at-most-once RPC semantics.
        self.replies_suppressed = 0

    def count(self, op: str, nbytes: int) -> None:
        """One marshalled message of ``nbytes`` is about to cross the wire."""
        self.messages_sent += 1
        self.bytes_sent += nbytes
        by_op = self.messages_by_op
        by_op[op] = by_op.get(op, 0) + 1


class FaultInjector:
    """Drop / delay / duplicate messages, driven by a named RNG stream.

    Set as :attr:`Endpoint.faults`; strikes at ``points`` of that endpoint:
    ``"send"`` (its outgoing requests, before marshalling) and/or
    ``"deliver"`` (its incoming ones, after the dispatch charge), narrowed
    to ``ops``.  Probabilistic faults draw from ``rng`` (a numpy Generator,
    e.g. ``RandomStreams(seed).get("faults")``) so runs stay reproducible
    under the stream-splitting discipline; :meth:`drop_next` arms
    deterministic drops for targeted tests.

    Dropping a request silently loses it — give the caller a deadline
    (:meth:`Endpoint.set_deadline`) so the loss surfaces as
    DeadlineExceededError instead of hanging.
    """

    POINTS = ("send", "deliver")

    def __init__(self, rng: Any = None, *, drop: float = 0.0,
                 delay: float = 0.0, delay_prob: float = 1.0,
                 duplicate: float = 0.0,
                 ops: Optional[Iterable[str]] = None,
                 points: Iterable[str] = ("deliver",)):
        self.points = tuple(points)
        unknown = set(self.points) - set(self.POINTS)
        if unknown:
            raise ValueError(f"unknown points: {sorted(unknown)}")
        if any(p < 0 or p > 1 for p in (drop, delay_prob, duplicate)):
            raise ValueError("probabilities must be within [0, 1]")
        if rng is None and (drop > 0 or duplicate > 0 or 0 < delay_prob < 1):
            raise ValueError("probabilistic faults need an rng stream")
        if duplicate > 0 and "send" not in self.points:
            raise ValueError("messages are duplicated at the 'send' point only")
        self.rng = rng
        self.drop = float(drop)
        self.delay = float(delay)
        self.delay_prob = float(delay_prob)
        self.duplicate = float(duplicate)
        self.ops: Optional[Tuple[str, ...]] = tuple(ops) if ops is not None else None
        self._drop_next = 0
        #: Observability for assertions in tests.
        self.dropped = 0
        self.delayed = 0
        self.duplicated = 0

    def drop_next(self, n: int = 1) -> None:
        """Deterministically drop the next ``n`` matching messages."""
        self._drop_next += int(n)

    def _chance(self, p: float) -> bool:
        return p > 0 and float(self.rng.random()) < p

    def strike(self, point: str, op: str) -> Optional[Tuple[float, int]]:
        """The fate of one ``op`` message at ``point``: None when it is
        dropped, else (seconds of delay to charge, extra copies to deliver).
        All draws happen here, in drop / delay / duplicate order: a duplicate
        is decided when the delay starts, not when it ends."""
        if point not in self.points or (self.ops is not None
                                        and op not in self.ops):
            return 0.0, 0
        if self._drop_next > 0 or self._chance(self.drop):
            if self._drop_next > 0:
                self._drop_next -= 1
            self.dropped += 1
            return None
        delay, copies = 0.0, 0
        if self.delay > 0 and (self.delay_prob >= 1.0
                               or self._chance(self.delay_prob)):
            self.delayed += 1
            delay = self.delay
        if point == "send" and self._chance(self.duplicate):
            self.duplicated += 1
            copies = 1
        return delay, copies


#: A reply token whose deadline passed first is settled with this:
#: over for the caller but never *answered*, so a late reply is no duplicate.
_EXPIRED = ("expired", None)


class _DeadlineQueue:
    """The pending deadlines of a fabric's RPCs that share one deadline
    length, expired by one armed timer.

    RPCs join in send order, which is expiry order (same length, a
    clock that never goes back), so the head is always the next to expire
    and RPCs due at one instant expire in send order, as their own
    timers would have.  The timer is armed at the head's expiry while
    anything is pending and taken off the heap when the queue empties: an
    answered RPC leaves nothing behind — no dead ``Timeout`` per RPC —
    and an unanswered one expires at exactly ``t_send + deadline``.  When
    the timer fires for a head that was answered meanwhile it re-arms at
    the new head (the MA's ``_expiry_sweep`` pattern), so at most one timer
    per queue is on the heap.  One queue serves all the fabric's endpoints:
    per endpoint, a queue would empty between two requests and pay a timer
    for each.
    """

    __slots__ = ("engine", "deadline", "_pending", "_timer")

    def __init__(self, engine: Engine, deadline: float):
        self.engine = engine
        self.deadline = deadline
        #: reply token -> its expiry instant, in send (== expiry) order.
        self._pending: "OrderedDict[Event, float]" = OrderedDict()
        self._timer: Optional[Event] = None

    def add(self, reply: Event) -> None:
        """Start the deadline of the RPC ``reply`` answers: now.  The
        RPC leaves the queue when ``reply`` is dispatched: the queue is
        a callback of every token it holds."""
        expires = self.engine._queue.now + self.deadline
        self._pending[reply] = expires
        reply.callbacks.append(self)
        if self._timer is None:
            self._arm(expires)

    def discard(self, reply: Event) -> None:
        """The RPC is over (answered, expired or abandoned)."""
        if (self._pending.pop(reply, None) is not None and not self._pending
                and self._timer is not None):
            self.engine._queue.remove(self._timer)
            self._timer = None

    __call__ = discard

    def _arm(self, when: float) -> None:
        self._timer = self.engine.timeout_at(when)
        self._timer.callbacks.append(self._expire_due)

    def _expire_due(self, timer: Event) -> None:
        self._timer = None
        now = self.engine.now
        pending = self._pending
        while pending:
            reply, expires = next(iter(pending.items()))
            if expires > now:
                self._arm(expires)
                return
            del pending[reply]
            if not reply.triggered:
                reply.succeed(_EXPIRED)


class _Leg:
    """One posted message on its way to the destination endpoint.

    It is the callback of the message's timer at the wire end, and being
    called is the fabric's arrival step.  Only the timer and a one-way
    sender hold it: nothing takes a posted message back, so it arrives
    whatever became of its sender meanwhile.
    """

    __slots__ = ("src", "dst", "msg", "copies", "deadline", "wire", "lost")

    def __init__(self, src: "Endpoint", dst: "Endpoint", msg: Message,
                 copies: int, deadline: Optional[_DeadlineQueue]):
        self.src = src
        self.dst = dst
        self.msg = msg
        #: Injected duplicates: each is handed to the destination too.
        self.copies = copies
        #: The RPC deadline to start on arrival, if the op has one.
        self.deadline = deadline
        self.wire: Optional[Event] = None
        #: Why a one-way message found nobody to deliver to (its sender
        #: raises it); None while on its way and once delivered.
        self.lost: Optional[str] = None

    def __call__(self, wire: Event) -> None:
        """The arrival step, at the wire end.  The destination may have
        stopped or been unbound while the message was on the wire: that is
        a dead letter, not a message for an endpoint that will never serve
        it.  Otherwise the message gets its handler (one more per injected
        duplicate), and then an RPC's deadline starts — only while someone
        still waits on the reply token: an interrupted caller has left it."""
        msg, dst = self.msg, self.dst
        fabric = dst.fabric
        if fabric._endpoints.get(msg.dst) is not dst or dst._closed:
            self.lost = (f"endpoint {msg.dst!r} vanished while {msg.op!r} "
                         f"was in flight")
            fabric._dead_letter(msg, self.lost)
            return
        dst._accept(msg)
        for _ in range(self.copies):
            dst._accept(msg)
        if self.deadline is not None and msg.reply_to.callbacks:
            self.deadline.add(msg.reply_to)


class _Handler(Process):
    """The handler process of one arrived message: :meth:`Endpoint._handle`
    run from the end of the dispatch charge."""

    __slots__ = ()

    @property
    def booted(self) -> bool:
        """False while the dispatch charge runs: an interrupt cannot enter a
        handler that has not started."""
        return getgeneratorstate(self.generator) != GEN_CREATED


#: A dispatched handler is logged as the kernel's "Process" on both legs.
_Handler.__name__ = _Handler.__qualname__ = "Process"


class Endpoint:
    """A named communication endpoint bound to a host.

    Handlers are registered per operation name; an arrived message is handed
    straight to the endpoint, which spawns a handler *process* for it, so a
    slow solve does not hold up the requests behind it.  A handler is a
    generator function ``handler(message) -> (value, nbytes)``; its return
    value is shipped back as the RPC reply, by that same process.
    """

    __slots__ = ("fabric", "name", "host_name", "deadlines", "faults",
                 "_handlers", "_inflight", "_spawned", "_closed")

    def __init__(self, fabric: "TransportFabric", name: str, host_name: str):
        self.fabric = fabric
        self.name = name
        self.host_name = host_name
        #: Deadline in seconds per operation of the RPCs this endpoint
        #: *makes*; an op without an entry waits for its reply forever.
        self.deadlines: Dict[str, float] = {}
        #: The fault-injection seam: None outside the failure-injection tests.
        self.faults: Optional[FaultInjector] = None
        self._handlers: Dict[str, Callable] = {}
        #: Running handler processes by spawn number (a duplicated request
        #: has two, under one message id).  :meth:`stop` ends them all: no
        #: computing from beyond the grave.
        self._inflight: Dict[int, _Handler] = {}
        self._spawned = itertools.count()
        self._closed = False

    @property
    def closed(self) -> bool:
        """True once :meth:`stop` (or :meth:`TransportFabric.unbind`) ran."""
        return self._closed

    def set_deadline(self, ops: Iterable[str], deadline: float) -> None:
        """Give this endpoint's RPCs of ``ops`` a reply deadline of
        ``deadline`` seconds; a later call for the same op replaces it."""
        deadline = float(deadline)
        if deadline <= 0:
            raise ValueError(f"deadline must be positive, got {deadline}")
        for op in ops:
            self.deadlines[op] = deadline

    # -- handler registration --------------------------------------------------

    def on(self, op: str, handler: Callable) -> None:
        """Register a generator handler for operation ``op``."""
        self._handlers[op] = handler

    def _accept(self, msg: Message) -> None:
        """An arrived message gets its handler process, booted at the end of
        the dispatch charge."""
        key = next(self._spawned)
        handler = self._handlers.get(msg.op)
        fabric = self.fabric
        self._inflight[key] = _Handler(
            fabric.engine, self._handle(msg, key, handler),
            f"{self.name}:{msg.op}#{msg.msg_id}",
            None if handler is None else fabric.params.dispatch_fixed)

    def _handle(self, msg: Message, key: int, handler: Optional[Callable]
                ) -> Generator[Event, Any, None]:
        """One arrived message, from the end of its dispatch charge (a
        message without a handler pays none): handler and, for an RPC, the
        reply leg.  Replies are at-most-once: a duplicate (only the fault
        seam makes one) is suppressed with an accounting mark; if the
        replier or the caller disappeared mid-flight the caller resumes
        with :class:`CommunicationError`, and a handler that boots on a
        stopped endpoint dead-letters at once.  A
        reply to an RPC whose deadline expired, or whose caller was
        interrupted, is late, not a duplicate: it still crosses the wire,
        and finds nobody waiting."""
        fabric = self.fabric
        engine, params, acct = fabric.engine, fabric.params, fabric.accounting
        reply_to = msg.reply_to
        try:
            if self._closed:
                # The endpoint stopped while this handler paid its dispatch
                # charge: it boots anyway, and dies mid-request here.
                raise Interrupt("stopped during the dispatch charge")
            if handler is None:
                if reply_to is None:
                    # One-way message nobody will ever process.
                    acct.dead_letters += 1
                    return
                status, value, nbytes = "error", CommunicationError(
                    f"endpoint {self.name!r} has no handler for {msg.op!r}"), 128
            else:
                if self.faults is not None:
                    fate = self.faults.strike("deliver", msg.op)
                    if fate is None:
                        acct.messages_dropped += 1
                        return
                    if fate[0]:
                        yield engine.timeout(fate[0])
                try:
                    result = yield from handler(msg)
                except Exception as exc:
                    # Ship failures back to the caller — unless there is none,
                    # or it is the endpoint crashing, not the application.
                    if reply_to is None or isinstance(exc, Interrupt):
                        raise
                    # This frame keeps ``value`` through the reply leg: out
                    # of the traceback with it, or the two hold each other.
                    exc.__traceback__ = exc.__traceback__.tb_next
                    status, value, nbytes = "error", exc, 128
                else:
                    if reply_to is None:
                        return
                    status = "ok"
                    value, nbytes = (result if isinstance(result, tuple)
                                     else (result, None))
                    if nbytes is None:
                        nbytes = params.control_payload
        except Interrupt:
            # The server died mid-request (endpoint stopped / host crash):
            # resume the caller with CommunicationError, never a reply.
            fabric._dead_letter(
                msg, f"endpoint {self.name!r} stopped while handling {msg.op!r}")
            return
        finally:
            self._inflight.pop(key, None)
        # The reply leg: no longer in flight, so a stop() from here on is
        # seen by the liveness checks below, or not at all once on the wire.
        if reply_to.triggered and reply_to.value is not _EXPIRED:
            acct.replies_suppressed += 1
            return
        # Liveness is decided at the marshal end, so it stays an event.
        yield engine.timeout(params.marshal_fixed
                             + params.marshal_per_byte * nbytes)
        acct.count(msg.op, nbytes)
        caller = fabric._endpoints.get(msg.src)
        if self._closed or fabric._endpoints.get(msg.dst) is not self:
            fabric._dead_letter(msg, f"endpoint {msg.dst!r} stopped before "
                                     f"its {msg.op!r} reply was sent")
            return
        if caller is None or caller.closed:
            fabric._dead_letter(msg, f"caller {msg.src!r} unbound before its "
                                     f"{msg.op!r} reply arrived")
            return
        wire = fabric.network.wire_time(self.host_name, caller.host_name,
                                        nbytes)
        if wire:
            yield engine.timeout(wire)
        if not reply_to.triggered:
            reply_to.succeed((status, value))
        elif reply_to.value is not _EXPIRED:
            acct.replies_suppressed += 1

    def stop(self) -> None:
        """Stop serving; in-flight requests are dead-lettered
        (their callers resume with :class:`CommunicationError` instead of
        suspending forever).  Every running handler process is interrupted:
        the Interrupt unwinds it (releasing CPU/slot claims along the way)
        and :meth:`_handle` dead-letters the request — crash semantics, not
        graceful drain.  A handler still in its dispatch charge has not
        started, so an Interrupt cannot enter it: it boots at its dispatch
        end as spawned, finds the endpoint stopped and dead-letters there."""
        if self._closed:
            return
        self._closed = True
        for proc in list(self._inflight.values()):
            if proc.booted:
                proc.interrupt(CommunicationError(
                    f"endpoint {self.name!r} stopped"))

    # -- sending ---------------------------------------------------------------

    def request(self, dst: str, op: str, payload: Any = None,
                nbytes: Optional[int] = None) -> Event:
        """Post an RPC's request and return its reply token, settled
        with ``("ok", value)``, ``("error", exception)`` or, once the op's
        deadline (:meth:`set_deadline`) passed, :data:`_EXPIRED`.  The
        deadline starts when the request arrives, and only if the token is
        then waited on: wait on it, directly or through a condition such
        as :meth:`Engine.all_of`, before control returns to the engine, or
        a lost reply leaves it pending for good; a waiter that is
        interrupted unsubscribes (a condition's ``_detach``), or the
        arrival starts a deadline nobody waits for.  Raises
        :class:`CommunicationError` at once when ``dst`` is unbound or
        stopped."""
        fabric = self.fabric
        deadline = self.deadlines.get(op)
        queue = None if deadline is None else fabric._deadline_queue(deadline)
        reply = Event(fabric.engine)
        fabric._post(self, dst, op, payload, nbytes, reply, queue)
        return reply

    def send(self, dst: str, op: str, payload: Any = None,
             nbytes: Optional[int] = None) -> Generator[Event, Any, None]:
        """One-way message (no reply expected): posted, and the sender
        resumes at the wire end, after the arrival step."""
        leg = self.fabric._post(self, dst, op, payload, nbytes, None, None)
        if leg is None:
            return
        yield leg.wire
        if leg.lost is not None:
            raise CommunicationError(leg.lost)

    def try_send(self, dst: str, op: str, payload: Any = None,
                 nbytes: Optional[int] = None) -> Generator[Event, Any, bool]:
        """Best-effort one-way message: False instead of raising.

        Push-mode estimate deltas use this — a parent that is stopped,
        unbound, or vanishes while the delta is on the wire is a liveness
        problem (heartbeats will deal with it), not the sender's: the pump
        must keep running, not unwind.
        """
        try:
            yield from self.send(dst, op, payload, nbytes)
        except CommunicationError:
            return False
        return True

    def rpc(self, dst: str, op: str, payload: Any = None,
            nbytes: Optional[int] = None) -> Generator[Event, Any, Any]:
        """Remote invocation; suspends until the reply arrives.

        Returns the handler's value; re-raises the handler's exception.  The
        request is posted by :meth:`request`, once: when :meth:`set_deadline`
        gave ``op`` a deadline and it passes first, the call raises
        :class:`DeadlineExceededError`.  An interrupted caller stops waiting
        and its reply token leaves the deadline queue; the request itself
        goes on, and its reply finds nobody waiting.
        """
        deadline = self.deadlines.get(op)
        reply = self.request(dst, op, payload, nbytes)
        try:
            result = yield reply
        except BaseException:
            if deadline is not None:
                self.fabric._deadline_queue(deadline).discard(reply)
            raise
        if result is _EXPIRED:
            raise DeadlineExceededError(
                f"rpc {op!r} to {dst!r} exceeded {deadline}s deadline")
        status, value = result
        if status == "error":
            # ``value`` leaves with this frame in its traceback: keep
            # nothing here that leads back to it.
            del reply, result
            try:
                raise value
            finally:
                del value
        return value


class TransportFabric:
    """Endpoint namespace + message delivery over the simulated network."""

    __slots__ = ("engine", "network", "params", "accounting", "_endpoints",
                 "_msg_ids", "_deadline_queues", "_request_ids")

    def __init__(self, engine: Engine, network: Network,
                 params: Optional[TransportParams] = None):
        self.engine = engine
        self.network = network
        self.params = params or TransportParams()
        self.accounting = Accounting()
        self._endpoints: Dict[str, Endpoint] = {}
        self._msg_ids = itertools.count(1)
        #: The pending RPC deadlines of every endpoint, one queue per length.
        self._deadline_queues: Dict[float, _DeadlineQueue] = {}
        #: Request ids are fabric-scoped, not process-global: a campaign's
        #: ids are then a pure function of the campaign itself, so two runs
        #: of the same seeded experiment — in one process, in different
        #: processes, serial or under the parallel runner — label their
        #: traces identically.
        self._request_ids = itertools.count(1)

    def new_request_id(self) -> int:
        """Next request id, unique within this fabric (all clients of a
        deployment share the counter, so ids never collide)."""
        return next(self._request_ids)

    # -- counters (kept as properties for the statistics layer) -----------------

    @property
    def messages_sent(self) -> int:
        return self.accounting.messages_sent

    @property
    def bytes_sent(self) -> int:
        return self.accounting.bytes_sent

    # -- naming service (omniNames substitute) -----------------------------------

    def endpoint(self, name: str, host_name: str) -> Endpoint:
        """Create and register a named endpoint on ``host_name``."""
        if name in self._endpoints:
            raise CommunicationError(f"endpoint name {name!r} already bound")
        # Validate the host exists up front.
        self.network.host(host_name)
        ep = Endpoint(self, name, host_name)
        self._endpoints[name] = ep
        return ep

    def resolve(self, name: str) -> Endpoint:
        try:
            return self._endpoints[name]
        except KeyError:
            raise CommunicationError(f"cannot resolve endpoint {name!r}") from None

    def unbind(self, name: str) -> None:
        ep = self._endpoints.pop(name, None)
        if ep is not None:
            ep.stop()

    # -- delivery -----------------------------------------------------------------

    def _dead_letter(self, msg: Message, reason: str) -> None:
        """A message that can never be processed: resume its caller (if any)
        with :class:`CommunicationError` instead of stranding it."""
        self.accounting.dead_letters += 1
        if msg.reply_to is not None and not msg.reply_to.triggered:
            msg.reply_to.succeed(("error", CommunicationError(reason)))

    def _deadline_queue(self, deadline: float) -> _DeadlineQueue:
        """The queue that expires RPCs with this deadline length."""
        queue = self._deadline_queues.get(deadline)
        if queue is None:
            queue = self._deadline_queues[deadline] = \
                _DeadlineQueue(self.engine, deadline)
        return queue

    def _post(self, src: Endpoint, dst_name: str, op: str, payload: Any,
              nbytes: Optional[int], reply_to: Optional[Event],
              deadline: Optional[_DeadlineQueue]) -> Optional[_Leg]:
        """The send side of every message, run synchronously in the sender:
        resolve, fault seam, count, wire time, and one timer at
        ``(now + marshal) + wire`` — the instant the two charges reach one
        after the other — whose callback is the arrival step.  Returns the
        message's :class:`_Leg`, or None when the seam dropped it (an RPC's
        deadline then starts at once).  A send-point delay comes before the
        marshalling."""
        dst = self._endpoints.get(dst_name)
        if dst is None:
            raise CommunicationError(f"cannot resolve endpoint {dst_name!r}")
        if dst._closed:
            raise CommunicationError(f"endpoint {dst_name!r} is stopped")
        engine, params = self.engine, self.params
        size = params.control_payload if nbytes is None else int(nbytes)
        now = engine._queue.now
        msg = Message(next(self._msg_ids), src.name, dst_name, op, payload,
                      size, reply_to, now)
        copies = 0
        if src.faults is not None:
            fate = src.faults.strike("send", op)
            if fate is None:
                self.accounting.messages_dropped += 1
                if deadline is not None:
                    deadline.add(reply_to)
                return None
            delay, copies = fate
            now += delay
        leg = _Leg(src, dst, msg, copies, deadline)
        marshal = params.marshal_fixed + params.marshal_per_byte * size
        wire = self.network.wire_time(src.host_name, dst.host_name, size)
        self.accounting.count(op, size)
        leg.wire = timer = engine.timeout_at((now + marshal) + wire)
        timer.callbacks.append(leg)
        return leg


if _C is not None:
    # The compiled message path: the same names, attribute surface and
    # kernel events, with no Python frame of this module from the post to
    # the reply token.  The code above is its statement-for-statement
    # mirror, which ``REPRO_PURE_PY=1`` runs.
    Message = _C.Message  # noqa: F811
    _DeadlineQueue = _C.DeadlineQueue  # noqa: F811
    _Leg = _C.Leg  # noqa: F811
    _Handler = _C.Handler  # noqa: F811
    Endpoint._accept = _C.accept
    Endpoint.request = _C.request
    TransportFabric._post = _C.post
    # The classes whose __slots__ the C path reads and bumps in place.
    _C.configure_transport(
        Process.interrupt, Interrupt, CommunicationError, _EXPIRED,
        (TransportFabric, Endpoint, Accounting, TransportParams, Network,
         Engine))

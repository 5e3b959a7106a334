"""CORBA-substitute message transport over the simulated network.

DIET uses omniORB; GridSolve and Ninf use raw sockets (§2.1).  Here both
reduce to the same abstraction: named :class:`Endpoint` objects living on
simulated hosts, exchanging :class:`Message` objects whose delivery costs

    marshal(sender) + network(latency, bandwidth, size) + dispatch(receiver)

The paper's whole evaluation (finding time ≈ 49.8 ms, ≈ 70.6 ms/simulation
overhead) is a property of the client → MA → LA → SeD message path, so
what a message costs is written once, as straight-line code:
:meth:`TransportFabric._transmit` (and the reply leg of
:meth:`Endpoint._handle`) charges the marshalling time of
:class:`TransportParams` in the sender's process and *then* counts the
message in :attr:`TransportFabric.accounting`, the network carries it, and
the receiver's handler process charges the dispatch time before the handler
runs.

An RPC is a request message carrying a reply-to token; :meth:`Endpoint.rpc`
suspends the calling process until the reply arrives — or, when
:meth:`Endpoint.set_deadline` gave the operation an :class:`RpcPolicy`, until
the deadline expires, with optional retries before
:class:`DeadlineExceededError` is raised.  Tests lose, stall and duplicate
messages through one seam, :attr:`Endpoint.faults` (a :class:`FaultInjector`,
None in every deployment): consulted in the sender before marshalling, so a
message dropped there is neither charged nor counted, and in the receiver
after the dispatch charge.

A :class:`TransportFabric` owns the endpoint namespace — this doubles as
the omniNames-like naming service (endpoints are resolved by string name).
Reply delivery is at-most-once: a request whose reply can no longer arrive
(receiver stopped or unbound mid-flight) fails with
:class:`CommunicationError` instead of suspending the caller forever, and
duplicate replies are suppressed with an accounting mark.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, Generator, Iterable, List, Optional, Tuple

from ..sim.engine import Engine, Event, Interrupt, Process
from ..sim.network import Network
from .exceptions import CommunicationError, DeadlineExceededError

__all__ = ["TransportParams", "Message", "RpcPolicy", "FaultInjector",
           "Accounting", "Endpoint", "TransportFabric"]


@dataclass(frozen=True)
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


@dataclass(slots=True)
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


@dataclass(frozen=True)
class RpcPolicy:
    """Deadline/retry budget of one operation's RPCs: the reply is awaited
    ``deadline`` seconds per attempt, the request re-sent up to ``retries``
    times, ``backoff * attempt`` seconds apart."""

    deadline: float
    retries: int = 0
    backoff: float = 0.0

    def __post_init__(self):
        if self.deadline <= 0:
            raise ValueError(f"deadline must be positive, got {self.deadline}")
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")


class Accounting:
    """The full fate of every message: what crossed the wire and what did
    not.  Plain counters, always on, bumped by the transport (the hot path);
    reports read them here."""

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
    (:meth:`Endpoint.set_deadline`) so the loss is recovered (retry) or
    surfaced (DeadlineExceededError) instead of hanging.
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


#: A reply token whose attempt's deadline passed first is settled with this:
#: over for the caller but never *answered*, so a late reply is no duplicate.
_EXPIRED = ("expired", None)


def _expire(reply: Event, deadline: Event) -> None:
    if not reply.triggered:
        reply.succeed(_EXPIRED)


class Endpoint:
    """A named communication endpoint bound to a host.

    Handlers are registered per operation name; an arrived message is handed
    straight to the endpoint, which spawns a handler *process* for it, so a
    slow solve does not hold up the requests behind it.  A handler is a
    generator function ``handler(message) -> (value, nbytes)``; its return
    value is shipped back as the RPC reply, by that same process.
    """

    def __init__(self, fabric: "TransportFabric", name: str, host_name: str):
        self.fabric = fabric
        self.name = name
        self.host_name = host_name
        #: Deadline/retry budget per operation of the RPCs this endpoint
        #: *makes*; an op without an entry waits for its reply forever.
        self.deadlines: Dict[str, RpcPolicy] = {}
        #: The fault-injection seam: None outside the failure-injection tests.
        self.faults: Optional[FaultInjector] = None
        self._handlers: Dict[str, Callable] = {}
        #: Running handler processes by spawn number (a duplicated request
        #: has two, under one message id).  :meth:`stop` interrupts them
        #: all: no computing from beyond the grave.
        self._inflight: Dict[int, Process] = {}
        self._spawned = itertools.count()
        #: Messages that arrived before :meth:`start`; None once serving.
        self._backlog: Optional[List[Message]] = []
        self._closed = False

    @property
    def closed(self) -> bool:
        """True once :meth:`stop` (or :meth:`TransportFabric.unbind`) ran."""
        return self._closed

    def set_deadline(self, ops: Iterable[str], deadline: float,
                     retries: int = 0, backoff: float = 0.0) -> None:
        """Give this endpoint's RPCs of ``ops`` a deadline (see
        :class:`RpcPolicy`); a later call for the same op replaces it."""
        policy = RpcPolicy(float(deadline), int(retries), float(backoff))
        for op in ops:
            self.deadlines[op] = policy

    # -- handler registration --------------------------------------------------

    def on(self, op: str, handler: Callable) -> None:
        """Register a generator handler for operation ``op``."""
        self._handlers[op] = handler

    def start(self) -> None:
        """Start serving (idempotent); the backlog first, in arrival order."""
        if self._closed:
            raise CommunicationError(f"endpoint {self.name!r} is stopped")
        backlog, self._backlog = self._backlog, None
        for msg in backlog or ():
            self._accept(msg)

    def _accept(self, msg: Message) -> None:
        """An arrived message gets its handler process, or joins the backlog
        of an endpoint that is bound but not serving yet."""
        if self._backlog is not None:
            self._backlog.append(msg)
            return
        key = next(self._spawned)
        self._inflight[key] = Process(
            self.fabric.engine, self._handle(msg, key),
            f"{self.name}:{msg.op}#{msg.msg_id}")

    def _handle(self, msg: Message, key: int) -> Generator[Event, Any, None]:
        """One arrived message, start to finish: dispatch charge, handler
        and, for an RPC, the reply leg.  Replies are at-most-once: a duplicate
        (fault injection, or a retry racing a late original) is suppressed
        with an accounting mark; if the replier or the caller disappeared
        mid-flight the caller resumes with :class:`CommunicationError`.  A
        reply to an attempt whose deadline expired is late, not a duplicate:
        it still crosses the wire, and finds nobody waiting."""
        fabric = self.fabric
        engine, params, acct = fabric.engine, fabric.params, fabric.accounting
        reply_to = msg.reply_to
        try:
            handler = self._handlers.get(msg.op)
            if handler is None:
                if reply_to is None:
                    # One-way message nobody will ever process.
                    acct.dead_letters += 1
                    return
                status, value, nbytes = "error", CommunicationError(
                    f"endpoint {self.name!r} has no handler for {msg.op!r}"), 128
            else:
                yield engine.timeout(params.dispatch_fixed)
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
        yield from fabric.network.transfer(self.host_name, caller.host_name,
                                           nbytes)
        if not reply_to.triggered:
            reply_to.succeed((status, value))
        elif reply_to.value is not _EXPIRED:
            acct.replies_suppressed += 1

    def stop(self) -> None:
        """Stop serving; backlogged and in-flight requests are dead-lettered
        (their callers resume with :class:`CommunicationError` instead of
        suspending forever).  Every running handler process is interrupted:
        the Interrupt unwinds it (releasing CPU/slot claims along the way)
        and :meth:`_handle` dead-letters the request — crash semantics, not
        graceful drain."""
        if self._closed:
            return
        self._closed = True
        for msg in self._backlog or ():
            self.fabric._dead_letter(msg, f"endpoint {self.name!r} stopped")
        self._backlog = None
        for proc in list(self._inflight.values()):
            proc.interrupt(CommunicationError(
                f"endpoint {self.name!r} stopped"))

    # -- sending ---------------------------------------------------------------

    def send(self, dst: str, op: str, payload: Any = None,
             nbytes: Optional[int] = None) -> Generator[Event, Any, None]:
        """One-way message (no reply expected)."""
        yield from self.fabric._transmit(self, dst, op, payload, nbytes)

    def try_send(self, dst: str, op: str, payload: Any = None,
                 nbytes: Optional[int] = None) -> Generator[Event, Any, bool]:
        """Best-effort one-way message: False instead of raising.

        Push-mode estimate deltas use this — a parent that is stopped,
        unbound, or vanishes while the delta is on the wire is a liveness
        problem (heartbeats will deal with it), not the sender's: the pump
        must keep running, not unwind.
        """
        try:
            yield from self.fabric._transmit(self, dst, op, payload, nbytes)
        except CommunicationError:
            return False
        return True

    def rpc(self, dst: str, op: str, payload: Any = None,
            nbytes: Optional[int] = None) -> Generator[Event, Any, Any]:
        """Remote invocation; suspends until the reply arrives.

        Returns the handler's value; re-raises the handler's exception.  When
        :meth:`set_deadline` gave ``op`` a policy, the reply token expires at
        the deadline and the request is re-sent up to ``retries`` times
        (waiting ``backoff * attempt`` between tries) before
        :class:`DeadlineExceededError`.
        """
        engine = self.fabric.engine
        policy = self.deadlines.get(op)
        attempt = 0
        while True:
            reply = Event(engine)
            yield from self.fabric._transmit(self, dst, op, payload, nbytes,
                                             reply)
            if policy is None:
                result = yield reply
            else:
                deadline = engine.timeout(policy.deadline).callbacks
                deadline.append(partial(_expire, reply))
                result = yield reply
                deadline.clear()  # queued until its time: not holding the reply
                if result is _EXPIRED:
                    if attempt < policy.retries:
                        attempt += 1
                        if policy.backoff > 0:
                            yield engine.timeout(policy.backoff * attempt)
                        continue
                    raise DeadlineExceededError(
                        f"rpc {op!r} to {dst!r} exceeded {policy.deadline}s "
                        f"deadline after {attempt + 1} attempt(s)")
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

    def __init__(self, engine: Engine, network: Network,
                 params: Optional[TransportParams] = None):
        self.engine = engine
        self.network = network
        self.params = params or TransportParams()
        self.accounting = Accounting()
        self._endpoints: Dict[str, Endpoint] = {}
        self._msg_ids = itertools.count(1)
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

    def _transmit(self, src: Endpoint, dst_name: str, op: str, payload: Any,
                  nbytes: Optional[int], reply_to: Optional[Event] = None
                  ) -> Generator[Event, Any, None]:
        """Carry one message from ``src`` to ``dst_name``'s handler process,
        in the sender's process: fault seam, marshalling charge, count, wire."""
        dst = self.resolve(dst_name)
        if dst.closed:
            raise CommunicationError(f"endpoint {dst_name!r} is stopped")
        engine, params = self.engine, self.params
        size = params.control_payload if nbytes is None else int(nbytes)
        msg = Message(next(self._msg_ids), src.name, dst_name, op, payload,
                      size, reply_to, engine.now)
        copies = 0
        if src.faults is not None:
            fate = src.faults.strike("send", op)
            if fate is None:
                self.accounting.messages_dropped += 1
                return
            delay, copies = fate
            if delay:
                yield engine.timeout(delay)
        yield engine.timeout(params.marshal_fixed
                             + params.marshal_per_byte * size)
        self.accounting.count(op, size)
        yield from self.network.transfer(src.host_name, dst.host_name, size)
        # The destination may have stopped or been unbound while the message
        # was on the wire; surface that to the sender rather than handing the
        # message to an endpoint that will never serve it.
        if self._endpoints.get(dst_name) is not dst or dst.closed:
            self.accounting.dead_letters += 1
            raise CommunicationError(
                f"endpoint {dst_name!r} vanished while {op!r} was in flight")
        for _ in range(1 + copies):
            dst._accept(msg)

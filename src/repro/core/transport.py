"""CORBA-substitute message transport over the simulated network.

DIET uses omniORB; GridSolve and Ninf use raw sockets (§2.1).  Here both
reduce to the same abstraction: named :class:`Endpoint` objects living on
simulated hosts, exchanging :class:`Message` objects whose delivery costs

    marshal(client) + network(latency, bandwidth, size) + unmarshal(server)

Every cost and counter on that path is charged by the
interceptor pipeline (:mod:`repro.core.pipeline`): a message travels as a
:class:`~repro.core.pipeline.MessageContext` through the ``send`` chain in
the sender, the ``deliver`` chain in the receiver, the ``reply`` chain in
the replier and the ``complete`` chain back in the caller.  The fabric
installs the calibrated :class:`MarshallingInterceptor` (mid-2000s omniORB
figures: fixed per-invocation + per-byte cost) and an
:class:`AccountingInterceptor`; components layer deadlines (and tests
fault injection) on their endpoints' own chains.

An RPC is a request message carrying a reply-to token; :meth:`Endpoint.rpc`
suspends the calling process until the reply arrives — or, when a
:class:`DeadlineInterceptor` grants the operation a policy, until the
deadline expires, with optional retries before
:class:`DeadlineExceededError` is raised.

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
from .pipeline import (
    OUTBOUND_PHASES,
    PHASES,
    AccountingInterceptor,
    Interceptor,
    InterceptorPipeline,
    MarshallingInterceptor,
    MessageContext,
    MessageDropped,
    RpcPolicy,
)

__all__ = ["TransportParams", "Message", "Endpoint", "TransportFabric"]


@dataclass(frozen=True)
class TransportParams:
    """Timing model of the RPC layer.

    Defaults are calibrated (see ``experiments/calibration.py``) so that the
    full MA/LA/SeD estimate round trip over the §5.1 topology averages the
    paper's 49.8 ms finding time.  The charges themselves are applied by the
    fabric's :class:`MarshallingInterceptor`.
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
    delivered_at: float = 0.0


#: A reply token whose attempt's deadline passed first is settled with this:
#: over for the caller but never *answered*, so a late reply is no duplicate.
_EXPIRED = ("expired", None, 0)


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

    Each endpoint owns an :class:`InterceptorPipeline`; its chain wraps the
    fabric-wide one like a protocol stack (endpoint hooks run closest to the
    application, fabric hooks closest to the wire).
    """

    def __init__(self, fabric: "TransportFabric", name: str, host_name: str,
                 interceptors: Iterable[Interceptor] = ()):
        self.fabric = fabric
        self.name = name
        self.host_name = host_name
        self.pipeline = InterceptorPipeline(interceptors)
        #: Combined (endpoint + fabric) pre-bound hook chains per phase and the
        #: RPC deadline policy per op, as of the pipeline versions in the key.
        self._chains: Dict[str, tuple] = {}
        self._policies: Dict[str, Optional[RpcPolicy]] = {}
        self._chains_key: Tuple[int, int] = (-1, -1)
        self._handlers: Dict[str, Callable] = {}
        #: Running handler processes, keyed by the ``deliver`` envelope each
        #: was spawned with (a duplicated request has two).  :meth:`stop`
        #: interrupts them all: no computing from beyond the grave.
        self._inflight: Dict[MessageContext, Process] = {}
        #: Messages that arrived before :meth:`start`; None once serving.
        self._backlog: Optional[List[Message]] = []
        self._closed = False

    @property
    def closed(self) -> bool:
        """True once :meth:`stop` (or :meth:`TransportFabric.unbind`) ran."""
        return self._closed

    # -- interceptor chain fast path -------------------------------------------

    def _refresh(self) -> None:
        """Rebuild the combined chains and forget the RPC policies when either
        pipeline's version moved.  Layering as in :mod:`repro.core.pipeline`'s
        docstring: endpoint hooks wrap fabric hooks on outbound phases, the
        reverse inbound."""
        ep, fab = self.pipeline, self.fabric.pipeline
        key = (ep.version, fab.version)
        if key != self._chains_key:
            self._chains_key = key
            self._policies = {}
            self._chains = {
                phase: (ep.hooks(phase) + fab.hooks(phase)
                        if phase in OUTBOUND_PHASES
                        else fab.hooks(phase) + ep.hooks(phase))
                for phase in PHASES}

    def chain_hooks(self, phase: str) -> tuple:
        """The combined pre-bound hook chain for ``phase``: per message, one
        version check and a dict probe.  The caller calls each hook in order
        and yields ``engine.timeout(delay)`` for every delay one returns."""
        self._refresh()
        return self._chains[phase]

    def rpc_policy(self, op: str) -> Optional[RpcPolicy]:
        """Deadline policy for RPCs of ``op``: endpoint chain, then fabric."""
        self._refresh()
        if op not in self._policies:
            self._policies[op] = (self.pipeline.rpc_policy(op)
                                  or self.fabric.pipeline.rpc_policy(op))
        return self._policies[op]

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
        ctx = MessageContext(self.fabric, msg, self, msg.nbytes, "deliver")
        self._inflight[ctx] = Process(
            self.fabric.engine, self._handle(ctx),
            f"{self.name}:{msg.op}#{msg.msg_id}")

    def _handle(self, ctx: MessageContext) -> Generator[Event, Any, None]:
        """One arrived message, start to finish: ``deliver`` chain, handler
        and, for an RPC, the reply leg.  Replies are at-most-once: a duplicate
        (fault injection, or a retry racing a late original) is suppressed
        with an accounting mark; if the replier or the caller disappeared
        mid-flight the caller resumes with :class:`CommunicationError`.  A
        reply to an attempt whose deadline expired is late, not a duplicate:
        it still crosses the wire, and finds nobody waiting."""
        fabric, msg = self.fabric, ctx.message
        engine, reply_to = fabric.engine, msg.reply_to
        try:
            handler = self._handlers.get(msg.op)
            if handler is None:
                if reply_to is None:
                    # One-way message nobody will ever process.
                    fabric.accounting.note_dead_letter()
                    return
                status, value, nbytes = "error", CommunicationError(
                    f"endpoint {self.name!r} has no handler for {msg.op!r}"), 128
            else:
                try:
                    # Server-side dispatch cost + any deliver-side interceptors.
                    for hook in self.chain_hooks("deliver"):
                        if (delay := hook(ctx)) is not None:
                            yield engine.timeout(delay)
                except MessageDropped:
                    fabric.accounting.note_dropped()
                    return
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
                        nbytes = fabric.params.control_payload
        except Interrupt:
            # The server died mid-request (endpoint stopped / host crash):
            # resume the caller with CommunicationError, never a reply.
            fabric._dead_letter(
                msg, f"endpoint {self.name!r} stopped while handling {msg.op!r}")
            return
        finally:
            self._inflight.pop(ctx, None)
        # The reply leg: no longer in flight, so a stop() from here on is
        # seen by the liveness checks below, or not at all once on the wire.
        if reply_to.triggered and reply_to.value is not _EXPIRED:
            fabric.accounting.note_suppressed_reply()
            return
        ctx = MessageContext(fabric, msg, self, nbytes, "reply", status, value)
        try:
            for hook in self.chain_hooks("reply"):
                if (delay := hook(ctx)) is not None:
                    yield engine.timeout(delay)
        except MessageDropped:
            fabric.accounting.note_dropped()
            return
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
                                           ctx.nbytes)
        if not reply_to.triggered:
            reply_to.succeed((status, value, ctx.nbytes))
        elif reply_to.value is not _EXPIRED:
            fabric.accounting.note_suppressed_reply()

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
        a :class:`DeadlineInterceptor` (endpoint chain first, then fabric)
        grants ``op`` a policy, the reply token expires at the deadline and
        the request is re-sent up to ``retries`` times (waiting ``backoff *
        attempt`` between tries) before :class:`DeadlineExceededError`.
        """
        engine = self.fabric.engine
        policy = self.rpc_policy(op)
        attempt = 0
        while True:
            reply = Event(engine)
            msg = yield from self.fabric._transmit(
                self, dst, op, payload, nbytes, reply, attempt)
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
            status, value, reply_nbytes = result
            ctx = MessageContext(self.fabric, msg, self, reply_nbytes,
                                 "complete", status, value, attempt)
            for hook in self.chain_hooks("complete"):
                if (delay := hook(ctx)) is not None:
                    yield engine.timeout(delay)
            if status == "error":
                # ``value`` leaves with this frame in its traceback: keep
                # nothing here that leads back to it.
                del reply, msg, result, ctx
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
        self._endpoints: Dict[str, Endpoint] = {}
        self._msg_ids = itertools.count(1)
        #: Request ids are fabric-scoped, not process-global: a campaign's
        #: ids are then a pure function of the campaign itself, so two runs
        #: of the same seeded experiment — in one process, in different
        #: processes, serial or under the parallel runner — label their
        #: traces identically.
        self._request_ids = itertools.count(1)
        #: Fabric-wide chain: cost model first (wire time), then accounting.
        self.pipeline = InterceptorPipeline()
        self.marshalling = self.pipeline.add(MarshallingInterceptor(self.params))
        self.accounting = self.pipeline.add(AccountingInterceptor())

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

    def endpoint(self, name: str, host_name: str,
                 interceptors: Iterable[Interceptor] = ()) -> Endpoint:
        """Create and register a named endpoint on ``host_name``."""
        if name in self._endpoints:
            raise CommunicationError(f"endpoint name {name!r} already bound")
        # Validate the host exists up front.
        self.network.host(host_name)
        ep = Endpoint(self, name, host_name, interceptors)
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
        self.accounting.note_dead_letter()
        if msg.reply_to is not None and not msg.reply_to.triggered:
            msg.reply_to.succeed(("error", CommunicationError(reason), 0))

    def _transmit(self, src: Endpoint, dst_name: str, op: str, payload: Any,
                  nbytes: Optional[int], reply_to: Optional[Event] = None,
                  attempt: int = 0) -> Generator[Event, Any, Message]:
        dst = self.resolve(dst_name)
        if dst.closed:
            raise CommunicationError(f"endpoint {dst_name!r} is stopped")
        size = self.params.control_payload if nbytes is None else int(nbytes)
        msg = Message(next(self._msg_ids), src.name, dst_name, op, payload,
                      size, reply_to, sent_at=self.engine.now)
        ctx = MessageContext(self, msg, src, size, "send", attempt=attempt)
        try:
            # Sender-side chain: marshalling cost, accounting, faults.
            for hook in src.chain_hooks("send"):
                if (delay := hook(ctx)) is not None:
                    yield self.engine.timeout(delay)
        except MessageDropped:
            self.accounting.note_dropped()
            return msg
        yield from self.network.transfer(src.host_name, dst.host_name, ctx.nbytes)
        # The destination may have stopped or been unbound while the message
        # was on the wire; surface that to the sender rather than handing the
        # message to an endpoint that will never serve it.
        if self._endpoints.get(dst_name) is not dst or dst.closed:
            self.accounting.note_dead_letter()
            raise CommunicationError(
                f"endpoint {dst_name!r} vanished while {op!r} was in flight")
        msg.delivered_at = self.engine.now
        dst._accept(msg)
        if ctx._meta is not None:
            for _ in range(ctx._meta.get("duplicates", 0)):
                dst._accept(msg)
        return msg

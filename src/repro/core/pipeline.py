"""Composable interceptor pipeline for the DIET message path.

Every message that crosses the transport — client submit, agent estimate
fan-out, SeD solve, monitoring posts — travels as a :class:`MessageContext`
envelope through an ordered chain of interceptors.  The paper's whole
evaluation (finding time ≈ 49.8 ms, latency growth, ≈ 70.6 ms/simulation
overhead) is a property of this client → MA → LA → SeD path, so what a
*message* costs and what may happen to it is expressed once, as stock
interceptors that compose on the one path (what happens to a *request* —
its lifecycle stamps and spans — is written by the client and the SeD, in
``DietClient.call`` and ``SeD._handle_solve``):

* :class:`MarshallingInterceptor` — the calibrated CORBA cost model
  (fixed + per-byte marshalling, server-side dispatch);
* :class:`AccountingInterceptor` — message/byte counters plus drop,
  dead-letter and duplicate-suppression marks;
* :class:`DeadlineInterceptor` — one timeout/retry/backoff mechanism shared
  by the MA/LA estimate fan-out and client-side solve deadlines;
* :class:`FaultInjectionInterceptor` — message drop / delay / duplicate by
  named RNG stream, for the failure-injection test suite.

A message passes four phases:

``send``
    in the sender's process, before the network transfer (marshalling);
``deliver``
    in the receiver's handler process, before the handler runs (dispatch);
``reply``
    in that same process once the handler returned, before the reply leg;
``complete``
    back in the caller's process, once the RPC reply has arrived.

A hook is a plain callable ``hook(ctx) -> Optional[float]``: it does its
bookkeeping and returns the simulated seconds to charge (or ``None``); the
transport yields the one ``engine.timeout(delay)`` for it, in the process
the phase runs in, before calling the next hook.  Chains are layered like a
protocol stack: on *outbound* phases (``send``, ``reply``) the local
endpoint's interceptors run before the fabric-wide ones (application →
wire); on *inbound* phases (``deliver``, ``complete``) the fabric chain
runs first (wire → application).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .transport import Endpoint, Message, TransportFabric, TransportParams

__all__ = [
    "MessageContext",
    "MessageDropped",
    "Interceptor",
    "InterceptorPipeline",
    "RpcPolicy",
    "MarshallingInterceptor",
    "AccountingInterceptor",
    "DeadlineInterceptor",
    "FaultInjectionInterceptor",
]

#: Phase names, in path order.
PHASES = ("send", "deliver", "reply", "complete")

#: Phases where the endpoint chain wraps the fabric chain (application
#: layers run closest to the handler, wire layers closest to the network).
OUTBOUND_PHASES = frozenset({"send", "reply"})


class MessageDropped(Exception):
    """Control-flow signal: an interceptor swallowed the message.

    The transport treats a dropped message as silently lost: a one-way send
    vanishes; an RPC request or reply never arrives, leaving the caller to
    its deadline (install a :class:`DeadlineInterceptor` when injecting
    drops, exactly as a real deployment pairs fault tolerance with
    timeouts).
    """


class MessageContext:
    """The envelope an in-flight message travels in through one phase.

    ``nbytes`` is the size of the *current leg* — the request payload on
    ``send``/``deliver``, the reply payload on ``reply``/``complete`` — and
    is mutable so compression-style interceptors can rewrite it before the
    wire cost is charged.  ``reply_status`` is "ok" / "error" on the
    reply/complete legs and None on the request legs; ``attempt`` is the
    retry attempt the message belongs to (0 = first try).
    """

    __slots__ = ("fabric", "message", "endpoint", "nbytes", "phase",
                 "reply_status", "reply_value", "attempt", "_meta")

    def __init__(self, fabric: "TransportFabric", message: "Message",
                 endpoint: "Endpoint", nbytes: int, phase: str = "send",
                 reply_status: Optional[str] = None, reply_value: Any = None,
                 attempt: int = 0):
        self.fabric = fabric
        self.message = message
        self.endpoint = endpoint
        self.nbytes = nbytes
        self.phase = phase
        self.reply_status = reply_status
        self.reply_value = reply_value
        self.attempt = attempt
        self._meta: Optional[Dict[str, Any]] = None  # made on first use

    @property
    def meta(self) -> Dict[str, Any]:
        """Free-form annotations interceptors leave for each other."""
        if self._meta is None:
            self._meta = {}
        return self._meta

    def drop(self, reason: str = "dropped by interceptor") -> None:
        """Abort the current phase, discarding the message."""
        raise MessageDropped(reason)


@dataclass(frozen=True)
class RpcPolicy:
    """Deadline/retry contract a :class:`DeadlineInterceptor` grants an op."""

    deadline: float
    retries: int = 0
    backoff: float = 0.0


class Interceptor:
    """Base class: every hook returns the simulated delay to charge, or None.

    Subclasses override only the phases they care about; the default is a
    zero-cost pass-through (and never called: :meth:`InterceptorPipeline.hooks`
    filters it out).
    """

    def intercept_send(self, ctx: MessageContext) -> Optional[float]:
        return None

    intercept_deliver = intercept_reply = intercept_complete = intercept_send

    def rpc_policy(self, op: str) -> Optional[RpcPolicy]:
        """Deadline/retry policy this interceptor grants RPCs of ``op``."""
        return None


class InterceptorPipeline:
    """An ordered chain of interceptors.

    Hot-path discipline: the per-phase hook chains are *pre-bound* —
    :meth:`hooks` returns a cached tuple of bound hook methods with the
    no-op defaults already filtered out, so the per-message cost is one
    dict lookup instead of a list copy plus a ``getattr`` per interceptor
    (every message crosses four phases, and a campaign sends hundreds of
    thousands).  Mutating the chain through :meth:`add` / :meth:`remove`
    bumps :attr:`version`, which invalidates the caches here and the
    combined per-endpoint chains in the transport.
    """

    def __init__(self, interceptors: Iterable[Interceptor] = ()):
        self.interceptors: List[Interceptor] = list(interceptors)
        #: Bumped on every add/remove; consumers key their caches on it.
        self.version = 0
        self._hooks: Dict[str, tuple] = {}

    def _invalidate(self) -> None:
        self.version += 1
        self._hooks.clear()

    def add(self, interceptor: Interceptor, index: Optional[int] = None) -> Interceptor:
        """Append (or insert at ``index``) an interceptor; returns it."""
        if index is None:
            self.interceptors.append(interceptor)
        else:
            self.interceptors.insert(index, interceptor)
        self._invalidate()
        return interceptor

    def remove(self, interceptor: Interceptor) -> None:
        self.interceptors.remove(interceptor)
        self._invalidate()

    def find(self, kind: type) -> Optional[Interceptor]:
        """First installed interceptor of ``kind``, or None."""
        for icpt in self.interceptors:
            if isinstance(icpt, kind):
                return icpt
        return None

    def hooks(self, phase: str) -> tuple:
        """Pre-bound hook chain for ``phase`` (no-op defaults skipped)."""
        chain = self._hooks.get(phase)
        if chain is None:
            attr = "intercept_" + phase
            default = getattr(Interceptor, attr)
            chain = tuple(getattr(icpt, attr) for icpt in self.interceptors
                          if getattr(type(icpt), attr, None) is not default)
            self._hooks[phase] = chain
        return chain

    def rpc_policy(self, op: str) -> Optional[RpcPolicy]:
        """First non-None policy granted for ``op``.  Endpoints cache the
        answer per op until a chain is mutated: policies are expected to be
        stable for a given chain, as :class:`DeadlineInterceptor`'s are."""
        for icpt in self.interceptors:
            policy = icpt.rpc_policy(op)
            if policy is not None:
                return policy
        return None


# ---------------------------------------------------------------------------
# stock interceptors
# ---------------------------------------------------------------------------


class MarshallingInterceptor(Interceptor):
    """The calibrated CORBA cost model as a pipeline stage.

    Charges the mid-2000s omniORB figures that used to be inlined in the
    transport's send/reply paths: ``marshal_fixed + marshal_per_byte * n``
    on each outbound leg, ``dispatch_fixed`` on delivery.  These defaults
    are what makes the §5.1 round trip average the paper's 49.8 ms finding
    time — see :class:`~repro.core.transport.TransportParams`.
    """

    def __init__(self, params: "TransportParams"):
        self.params = params

    def intercept_send(self, ctx: MessageContext) -> float:
        params = self.params
        return params.marshal_fixed + params.marshal_per_byte * ctx.nbytes

    def intercept_deliver(self, ctx: MessageContext) -> float:
        return self.params.dispatch_fixed

    intercept_reply = intercept_send


class AccountingInterceptor(Interceptor):
    """Counts traffic on the wire: messages, bytes, per-op breakdown.

    The transport also reports exceptional outcomes here (`note_dropped`,
    `note_dead_letter`, `note_suppressed_reply`) so the counters describe
    the full fate of every message.
    """

    def __init__(self):
        self.messages_sent = 0
        self.bytes_sent = 0
        #: Append-only op-name buffer; the per-op histogram is aggregated
        #: lazily in :attr:`messages_by_op` so the per-message cost is one
        #: list append instead of a dict read-modify-write.
        self._ops: List[str] = []
        self._by_op: Dict[str, int] = {}
        self._by_op_agg = 0  # buffer entries already folded into _by_op
        #: Messages swallowed by a fault-injection (or other) interceptor.
        self.messages_dropped = 0
        #: Requests/replies that could never be delivered (endpoint stopped
        #: or unbound mid-flight); their callers got a CommunicationError.
        self.dead_letters = 0
        #: Duplicate replies suppressed by at-most-once RPC semantics.
        self.replies_suppressed = 0

    @property
    def messages_by_op(self) -> Dict[str, int]:
        """Per-op message counts (aggregated from the buffer on access)."""
        ops = self._ops
        start = self._by_op_agg
        if start < len(ops):
            by_op = self._by_op
            self._by_op_agg = len(ops)
            for op in ops[start:]:
                by_op[op] = by_op.get(op, 0) + 1
        return self._by_op

    def intercept_send(self, ctx: MessageContext) -> None:
        self.messages_sent += 1
        self.bytes_sent += ctx.nbytes
        self._ops.append(ctx.message.op)

    intercept_reply = intercept_send

    # -- exceptional outcomes (reported by the transport) -----------------------

    def note_dropped(self) -> None:
        self.messages_dropped += 1

    def note_dead_letter(self) -> None:
        self.dead_letters += 1

    def note_suppressed_reply(self) -> None:
        self.replies_suppressed += 1


class DeadlineInterceptor(Interceptor):
    """One timeout/retry mechanism for every RPC on the path.

    Grants matching ops an :class:`RpcPolicy`: the caller's
    :meth:`Endpoint.rpc` races the reply against the deadline, retries up
    to ``retries`` times (waiting ``backoff * attempt`` between tries) and
    raises :class:`DeadlineExceededError` once the budget is spent.  This
    generalizes what used to be the agents' private ``child_timeout``
    fan-out guard so client-side solve deadlines and the MA/LA estimate
    collection share a single mechanism.
    """

    def __init__(self, deadline: float, retries: int = 0, backoff: float = 0.0,
                 ops: Optional[Sequence[str]] = None):
        if deadline <= 0:
            raise ValueError(f"deadline must be positive, got {deadline}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.deadline = float(deadline)
        self.retries = int(retries)
        self.backoff = float(backoff)
        self.ops: Optional[Tuple[str, ...]] = tuple(ops) if ops is not None else None

    def rpc_policy(self, op: str) -> Optional[RpcPolicy]:
        if self.ops is not None and op not in self.ops:
            return None
        return RpcPolicy(self.deadline, self.retries, self.backoff)


class FaultInjectionInterceptor(Interceptor):
    """Drop / delay / duplicate messages, driven by a named RNG stream.

    Probabilistic faults draw from ``rng`` (a numpy Generator, e.g.
    ``RandomStreams(seed).get("faults")``) so runs stay reproducible under
    the stream-splitting discipline; :meth:`drop_next` arms deterministic
    drops for targeted tests.  Filters narrow the blast radius to specific
    ``ops`` and ``phases``.

    Dropping a request or reply silently loses it — pair with a
    :class:`DeadlineInterceptor` on the caller so the loss is recovered
    (retry) or surfaced (DeadlineExceededError) instead of hanging.
    """

    def __init__(self, rng: Any = None, *, drop: float = 0.0,
                 delay: float = 0.0, delay_prob: float = 1.0,
                 duplicate: float = 0.0,
                 ops: Optional[Sequence[str]] = None,
                 phases: Sequence[str] = ("deliver",)):
        unknown = set(phases) - set(PHASES)
        if unknown:
            raise ValueError(f"unknown phases: {sorted(unknown)}")
        if any(p < 0 or p > 1 for p in (drop, delay_prob, duplicate)):
            raise ValueError("probabilities must be within [0, 1]")
        self.rng = rng
        self.drop = float(drop)
        self.delay = float(delay)
        self.delay_prob = float(delay_prob)
        self.duplicate = float(duplicate)
        self.ops: Optional[Tuple[str, ...]] = tuple(ops) if ops is not None else None
        self.phases = tuple(phases)
        self._drop_next = 0
        #: Observability for assertions in tests.
        self.dropped = 0
        self.delayed = 0
        self.duplicated = 0

    def drop_next(self, n: int = 1) -> None:
        """Deterministically drop the next ``n`` matching messages."""
        self._drop_next += int(n)

    def _matches(self, ctx: MessageContext) -> bool:
        if ctx.phase not in self.phases:
            return False
        return self.ops is None or ctx.message.op in self.ops

    def _chance(self, p: float) -> bool:
        return p > 0 and self.rng is not None and float(self.rng.random()) < p

    def _apply(self, ctx: MessageContext) -> Optional[float]:
        """Drop, duplicate or delay ``ctx``; returns the delay to charge.
        All draws happen here, in drop / delay / duplicate order: a duplicate
        is decided when the delay starts, not when it ends."""
        if not self._matches(ctx):
            return None
        if self._drop_next > 0 or self._chance(self.drop):
            if self._drop_next > 0:
                self._drop_next -= 1
            self.dropped += 1
            ctx.drop(f"fault injection dropped {ctx.message.op!r}"
                     f"#{ctx.message.msg_id}")
        delay = None
        if self.delay > 0 and (self.delay_prob >= 1.0 or self._chance(self.delay_prob)):
            self.delayed += 1
            delay = self.delay
        if ctx.phase == "send" and self._chance(self.duplicate):
            self.duplicated += 1
            ctx.meta["duplicates"] = ctx.meta.get("duplicates", 0) + 1
        return delay

    intercept_send = intercept_deliver = intercept_reply = intercept_complete = _apply

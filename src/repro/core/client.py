"""The DIET client: session management, synchronous and asynchronous calls.

§4.3 of the paper: "a client is an application which uses DIET to request a
service.  The goal of the client is to connect to a Master Agent in order
to dispose of a SED which will be able to solve the problem.  Then the
client sends input data to the chosen SED and, after the end of
computation, retrieve output data from the SED."

There is one client.  The API is deliberately close to the C one:
``initialize`` / ``finalize`` bracket a session; a *function handle* binds a
service name (and, after the call, the server that solved it, the grid-wide
request id, the instant the server was found and the SeD-side error);
``call`` is synchronous (within a simulation process) and returns the
service status, ``call_async`` returns a request handle that can be probed
and waited on — the paper's campaign submits its 100 sub-simulations this
way.

The follow-up deployments run several Master Agents, one hierarchy per
grid; the same client is then initialized with an *ordered list* of MAs
(home first) and :meth:`DietClient.call` redirects a request the home MA
refused to the siblings before giving up.  A bare MA name is the
one-element list: nothing to redirect to.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional

from ..sim.engine import Engine, Event, Process
from ..sim.network import Host
from .data import DataHandle
from .exceptions import (
    CommunicationError,
    DataError,
    InvalidHandleError,
    InvalidSessionError,
    NotCompletedError,
    NotInitializedError,
    ServerNotFoundError,
)
from .profile import Profile
from .requests import MemoHit, SolveRequest, SubmitRequest
from .statistics import RequestTrace, Tracer
from .transport import Endpoint, TransportFabric

__all__ = ["FunctionHandle", "AsyncRequest", "DietClient"]

_NEVER = float("-inf")


def _failure_status(exc: BaseException) -> str:
    """Span status of a request ended by ``exc``: an MA admission rejection
    stays distinguishable from transport loss, so saturation experiments can
    separate rejected from failed requests."""
    return "rejected" if isinstance(exc, ServerNotFoundError) else "error"


@dataclass
class FunctionHandle:
    """Associates a service name with the server that (last) solved it."""

    service_name: str
    server: Optional[str] = None
    #: Grid-wide id of the (last) request made through this handle, the
    #: simulated instant its winning submit reply arrived (finding time =
    #: ``found_at`` - call start, redirects included) and the SeD-side
    #: error string of its solve — what a non-zero status alone cannot say
    #: (None when the solve succeeded).
    request_id: Optional[int] = None
    found_at: Optional[float] = None
    error: Optional[str] = None

    def __post_init__(self):
        if not self.service_name:
            raise InvalidHandleError("empty service name")


@dataclass
class AsyncRequest:
    """Handle on an in-flight asynchronous call (grpc_call_async)."""

    request_id: int
    profile: Profile
    process: Process
    _client: "DietClient" = field(repr=False, default=None)
    #: The call's function handle: once a SeD is found it names the server
    #: and the grid-wide request id, and after a failed solve the SeD-side
    #: ``error`` string behind the non-zero status.
    handle: Optional[FunctionHandle] = None

    @property
    def done(self) -> bool:
        return self.process.triggered

    def status(self) -> int:
        """GridRPC probe-style status; raises if not finished."""
        if not self.done:
            raise NotCompletedError(f"request {self.request_id} still running")
        if not self.process.ok:
            raise self.process.value
        return self.process.value

    def wait(self) -> Generator[Event, Any, int]:
        """Process helper: suspend until completion (grpc_wait)."""
        result = yield self.process
        return result

    def cancel(self) -> bool:
        """grpc_cancel: abort the client side of an in-flight call.

        Returns True if the request was still running (and is now
        cancelled), False if it had already completed.  The SeD is not
        preempted — like GridRPC, cancellation abandons the session; a job
        already solving runs to completion server-side.
        """
        if self.done:
            return False
        self.process.interrupt("cancelled")
        return True


class DietClient:
    """A DIET client application bound to one simulated host.

    Redirection policy (several MAs): MAs are tried in
    least-recent-rejection order — the MA-level load feedback loop.  Before
    any MA has refused this client the order is the configured one (home
    first); once an MA rejects (``ServerNotFoundError`` — no candidate
    survived the grace period) or is unreachable (``CommunicationError``)
    it sinks to the back until every other MA has rejected more recently.
    The per-MA refusal counts feeding the order are
    :attr:`rejections_by_ma`, the same record the load reports read.  A
    request fails only once every MA declined.
    """

    def __init__(self, fabric: TransportFabric, host: Host,
                 name: str = "client", tracer: Optional[Tracer] = None,
                 memo_enabled: bool = False):
        self.fabric = fabric
        self.engine: Engine = fabric.engine
        self.host = host
        self.name = name
        self.tracer = tracer or Tracer()
        #: Its calls wait forever unless ``grpc_set_deadline`` says otherwise.
        self.endpoint: Endpoint = fabric.endpoint(name, host.name)
        #: The MAs this client submits to, home first (set by initialize).
        self.ma_names: List[str] = []
        self._initialized = False
        self._session_ids = itertools.count(1)
        self._requests: Dict[int, AsyncRequest] = {}
        #: Calls resubmitted through the MA after a middleware failure
        #: (:meth:`call_retry`); application failures are never retried.
        self.resubmissions = 0
        #: Submits retried on a sibling MA / every per-MA refusal.
        self.redirects = 0
        self.rejections = 0
        #: Per-MA refusal counts (they sum to ``rejections``).
        self.rejections_by_ma: Dict[str, int] = {}
        #: Simulated instant each MA last refused us; feeds the
        #: least-recent-rejection order.
        self._last_rejected: Dict[str, float] = {}
        #: Send a canonical request-descriptor digest with every submit so
        #: the MA can short-circuit repeats to grid-memo hits.  Off by
        #: default: a key-less submit never touches the memo.
        self.memo_enabled = memo_enabled
        #: Memo hits whose owner vanished before the results could be
        #: pulled; each one fell back to a fresh memo-less submit round.
        self.memo_fallbacks = 0

    # -- session -------------------------------------------------------------------

    def initialize(self, config: Dict[str, Any]) -> None:
        """diet_initialize(configuration_file): binds to the Master Agent(s).

        ``config`` plays the role of the parsed configuration file; the only
        mandatory key is ``"MA_name"``: one MA name, or the ordered list of
        MAs to try (home first).  A client that must stay on a subset of a
        federation's MAs is initialized with that subset.
        """
        ma = config.get("MA_name")
        names = [ma] if isinstance(ma, str) else list(ma or ())
        if not names:
            raise NotInitializedError("configuration lacks 'MA_name'")
        # Resolving validates the MAs actually exist (name-service lookup).
        for name in names:
            self.fabric.resolve(name)
        self.ma_names = names
        self._initialized = True
        self.endpoint.start()

    def finalize(self) -> None:
        """diet_finalize(): frees session state.

        Per §4.3.1 this does *not* free memory of INOUT/OUT arguments
        already brought back to the client — profiles stay usable.
        """
        self._check_session()
        self._requests.clear()
        self._initialized = False

    def _check_session(self) -> None:
        if not self._initialized:
            raise NotInitializedError("diet_initialize() has not been called")

    def function_handle(self, service_name: str) -> FunctionHandle:
        """grpc_function_handle_default(service_name)."""
        self._check_session()
        return FunctionHandle(service_name)

    # -- calls ----------------------------------------------------------------------

    def call(self, profile: Profile,
             handle: Optional[FunctionHandle] = None
             ) -> Generator[Event, Any, int]:
        """diet_call(): submit, then solve — the one request path.

        A process helper.  Returns the service's integer status; OUT/INOUT
        values are written back into ``profile`` (freshly allocated on the
        client side, as the C API does for OUT arguments).  ``handle`` is
        bound to the chosen SeD as soon as it is known and keeps the
        request id, ``found_at`` and the SeD-side error string.

        An MA that declines is accounted and the next one tried (see the
        class docstring for the order); the last MA's error is raised once
        every one declined.  A SeD crash mid-solve raises
        ``CommunicationError``.  Each attempt draws a fresh fabric-scoped
        request id, so identical campaigns get identical ids regardless of
        what ran before them.

        The client's side of the request's :class:`RequestTrace` (and of its
        span track) is written here, at the ``engine.now`` reads around the
        two RPCs; the SeD writes its side in ``_handle_solve``.  A stamp is
        taken only for a message that was sent: a name that no longer
        resolves raises ``CommunicationError`` with nothing recorded.
        """
        self._check_session()
        profile.validate_for_submit()
        endpoint = self.endpoint
        if handle is None:
            handle = FunctionHandle(profile.path)
        # Data Location Manager view: persistent inputs already on SeDs.
        handles = tuple(arg.value for arg in profile.arguments
                        if isinstance(arg.value, DataHandle))
        resident: Dict[str, int] = {}
        for data in handles:
            resident[data.sed_name] = resident.get(data.sed_name, 0) + data.nbytes
        memo_key = None
        if self.memo_enabled:
            # Lazy: repro.data depends on repro.core at module level.
            from ..data.memo import descriptor_digest

            memo_key = descriptor_digest(profile)
        try:
            while True:
                # Stable sort: never-refused MAs first in configured order, then
                # ascending last-refusal stamp (simulated time: same per seed).
                order = sorted(self.ma_names,
                               key=lambda ma: self._last_rejected.get(ma, _NEVER))
                for i, ma_name in enumerate(order):
                    request_id = self.fabric.new_request_id()
                    sub = SubmitRequest(request_id=request_id,
                                        service_desc=profile.desc,
                                        client_host=self.host.name,
                                        client_endpoint=endpoint.name,
                                        request_nbytes=profile.request_nbytes(),
                                        resident_bytes=resident,
                                        data_handles=handles,
                                        memo_key=memo_key)
                    try:
                        # Nothing is recorded for a message that cannot be
                        # sent: a vanished MA fails the lookup first.
                        self.fabric.resolve(ma_name)
                        trace = self._stamp_submitted(request_id, profile.path)
                        sed_name, est = yield from endpoint.rpc(ma_name, "submit", sub)
                    except (ServerNotFoundError, CommunicationError) as exc:
                        last_error = exc
                        self._abandon(request_id, _failure_status(exc))
                        self._note_rejection(ma_name, i + 1 < len(order))
                        continue
                    handle.server, handle.request_id = sed_name, request_id
                    handle.found_at = self._stamp_found(trace, sed_name)
                    handle.error = None
                    if isinstance(est, MemoHit):
                        try:
                            yield from self._absorb_memo_hit(profile, est)
                        except (CommunicationError, DataError):
                            # Stale hit: redo the whole round without the memo.
                            self._abandon(request_id, "stale")
                            self.memo_fallbacks += 1
                            memo_key = None
                            break
                        # The one request end no message marks.
                        self._stamp_completed(trace, 0, memo="hit")
                        return 0
                    nbytes = profile.request_nbytes()
                    self.fabric.resolve(sed_name)  # same rule: SeD just died
                    self._stamp_data_sent(trace, nbytes)
                    reply = yield from endpoint.rpc(
                        sed_name, "solve",
                        SolveRequest(request_id=request_id, profile=profile,
                                     client_endpoint=endpoint.name,
                                     memo_key=memo_key),
                        nbytes=nbytes)
                    self._stamp_completed(trace, reply.status)
                    # The tracer is usually shared with the SeD in-process;
                    # when it is not (separate tracers in tests) the reply's
                    # solve window fills the server-side gaps.
                    if trace.solve_started_at is None:
                        trace.solve_started_at = reply.solve_started_at
                    if trace.solve_ended_at is None:
                        trace.solve_ended_at = reply.solve_ended_at
                    for index, value in reply.out_values.items():
                        profile.parameter(index).set(value)
                    handle.error = reply.error
                    return reply.status
                else:  # no break: every MA declined
                    raise last_error
        except Exception as exc:
            # Refusal in flight, dead SeD, error reply, deadline,
            # cancellation: whatever ended this request id early, nothing
            # stays open on its track (a no-op once a refusal unwound it).
            self._abandon(request_id, _failure_status(exc))
            raise

    # -- the client's side of the request lifecycle ------------------------------------

    def _stamp_submitted(self, request_id: int, service: str) -> RequestTrace:
        """``submitted_at``; opens ``request`` and, inside it, ``finding``."""
        now = self.engine.now
        trace = self.tracer.trace(request_id, service)
        trace.submitted_at = now
        obs = self.tracer.obs
        if obs.enabled:
            for name in ("request", "finding"):
                obs.spans.begin(f"req:{request_id}", name, now, name,
                                request_id=request_id, service=service)
        return trace

    def _stamp_found(self, trace: RequestTrace, sed_name: str) -> float:
        """``found_at`` + ``sed_name``; closes ``finding``.  Returns the read."""
        now = self.engine.now
        trace.found_at, trace.sed_name = now, sed_name
        obs = self.tracer.obs
        if obs.enabled:
            finding = obs.spans.open_span(f"req:{trace.request_id}", "finding")
            if finding is not None:
                obs.spans.end(finding, now, sed=sed_name)
        return now

    def _stamp_data_sent(self, trace: RequestTrace, nbytes: int) -> None:
        """``data_sent_at``; opens ``transfer`` (the SeD closes it on arrival)."""
        now = self.engine.now
        trace.data_sent_at = now
        obs = self.tracer.obs
        if obs.enabled:
            obs.spans.begin(f"req:{trace.request_id}", "transfer", now,
                            "transfer", request_id=trace.request_id,
                            service=trace.service, nbytes=nbytes)

    def _stamp_completed(self, trace: RequestTrace, status: int,
                         **attrs: Any) -> None:
        """``completed_at`` + ``status``; closes ``request``."""
        now = self.engine.now
        trace.completed_at, trace.status = now, status
        obs = self.tracer.obs
        if obs.enabled:
            request = obs.spans.open_span(f"req:{trace.request_id}", "request")
            if request is not None:
                obs.spans.end(request, now, status_code=status, **attrs)

    def _abandon(self, request_id: int, status: str) -> None:
        """A request id that will never complete: unwind every span still
        open on its track, so nothing is left for ``finalize`` to sweep up
        as ``"lost"``."""
        obs = self.tracer.obs
        if obs.enabled:
            obs.spans.unwind(f"req:{request_id}", self.engine.now, status)

    def _note_rejection(self, ma_name: str, redirected: bool) -> None:
        self.rejections += 1
        self.rejections_by_ma[ma_name] = \
            self.rejections_by_ma.get(ma_name, 0) + 1
        self._last_rejected[ma_name] = self.engine.now
        if redirected:
            self.redirects += 1

    def _absorb_memo_hit(self, profile: Profile, hit: MemoHit
                         ) -> Generator[Event, Any, None]:
        """Materialize a memo hit into the client profile (process helper).

        Returning arguments (``*_RETURN`` modes — the client owns the bytes)
        are pulled from the owning SeD with ``memo_fetch`` at the data's true
        size; non-returning ones bind to the persisted handle directly,
        exactly as a fresh solve's reply would have.  Raises
        :class:`CommunicationError` (owner died since the lookup) or
        :class:`DataError` (owner restarted with an empty store) —
        :meth:`call` then falls back to a normal re-solve, which
        repopulates the memo.
        """
        for index in sorted(hit.out_values):
            data = hit.out_values[index]
            arg = profile.parameter(index)
            if arg.desc.persistence.returns_to_client:
                value = yield from self.endpoint.rpc(hit.owner, "memo_fetch",
                                                     data.data_id)
                arg.set(value)
            else:
                arg.set(data)

    def call_retry(self, profile: Profile,
                   handle: Optional[FunctionHandle] = None,
                   max_attempts: int = 3,
                   backoff: float = 0.0) -> Generator[Event, Any, int]:
        """diet_call with resubmission on *middleware* failure.

        A SeD that crashes mid-solve surfaces as
        :class:`CommunicationError` (its endpoint dead-letters the request);
        a hierarchy momentarily without candidates surfaces as
        :class:`ServerNotFoundError`.  Both mean the job was lost, not that
        it failed — so the profile is resubmitted through the normal MA
        finding path and a surviving (or restarted) SeD absorbs it.
        Application failures (non-zero status) return normally and are
        never retried.  The last attempt's exception propagates.
        """
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        attempt = 0
        while True:
            try:
                status = yield from self.call(profile, handle)
            except (CommunicationError, ServerNotFoundError):
                attempt += 1
                if attempt >= max_attempts:
                    raise
                self.resubmissions += 1
                if backoff > 0:
                    yield self.engine.timeout(backoff * attempt)
                continue
            return status

    #: Status reported for a cancelled asynchronous call.
    STATUS_CANCELLED = -1

    def _cancellable_call(self, profile: Profile,
                          handle: Optional[FunctionHandle],
                          max_attempts: int = 1,
                          backoff: float = 0.0
                          ) -> Generator[Event, Any, int]:
        from ..sim.engine import Interrupt

        try:
            return (yield from self.call_retry(
                profile, handle, max_attempts=max_attempts, backoff=backoff))
        except Interrupt:
            return self.STATUS_CANCELLED

    def call_async(self, profile: Profile,
                   handle: Optional[FunctionHandle] = None,
                   max_attempts: int = 1,
                   backoff: float = 0.0) -> AsyncRequest:
        """diet_call_async(): returns immediately with a request handle.

        ``max_attempts > 1`` makes the in-flight call resubmit on middleware
        failure with :meth:`call_retry` semantics.
        """
        self._check_session()
        if handle is None:
            handle = FunctionHandle(profile.path)
        proc = self.engine.process(
            self._cancellable_call(profile, handle, max_attempts, backoff),
            name=f"call:{profile.path}")
        req = AsyncRequest(request_id=0, profile=profile, process=proc,
                           _client=self, handle=handle)
        # The request id is only known once the call process starts; expose
        # the process itself for waiting, and a session id for bookkeeping.
        req.request_id = next(self._session_ids)
        self._requests[req.request_id] = req
        return req

    def probe(self, session_id: int) -> int:
        """grpc_probe(): 0 if complete, raises NotCompletedError otherwise."""
        req = self._requests.get(session_id)
        if req is None:
            raise InvalidSessionError(f"unknown session {session_id}")
        if not req.done:
            raise NotCompletedError(f"session {session_id} still running")
        return 0

    def wait_all(self) -> Generator[Event, Any, Dict[int, int]]:
        """grpc_wait_all(): suspend until every async request completes."""
        self._check_session()
        procs = [r.process for r in self._requests.values()]
        if procs:
            yield self.engine.all_of(procs)
        return {sid: r.process.value for sid, r in self._requests.items()}

    def wait_any(self) -> Generator[Event, Any, int]:
        """grpc_wait_any(): suspend until one request completes; its id."""
        self._check_session()
        pending = [r for r in self._requests.values() if not r.done]
        if not pending:
            raise InvalidSessionError("no pending requests")
        yield self.engine.any_of([r.process for r in pending])
        for r in pending:
            if r.done:
                return r.request_id
        raise AssertionError("any_of fired with no completed request")

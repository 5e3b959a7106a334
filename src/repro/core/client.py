"""The DIET client: session management, synchronous and asynchronous calls.

§4.3 of the paper: "a client is an application which uses DIET to request a
service.  The goal of the client is to connect to a Master Agent in order
to dispose of a SED which will be able to solve the problem.  Then the
client sends input data to the chosen SED and, after the end of
computation, retrieve output data from the SED."

The client API is deliberately close to the C one: ``initialize`` /
``finalize`` bracket a session; a *function handle* binds a service name
(and, after the call, the server that solved it); ``call`` is synchronous
(within a simulation process), ``call_async`` returns a request handle that
can be probed and waited on — the paper's campaign submits its 100
sub-simulations this way.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Generator, Iterable, Optional, Tuple

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
from .pipeline import Interceptor, TracingInterceptor
from .profile import Profile
from .requests import MemoHit, SolveRequest, SubmitRequest
from .statistics import Tracer
from .transport import Endpoint, TransportFabric

__all__ = ["FunctionHandle", "AsyncRequest", "DietClient", "absorb_memo_hit",
           "submit_and_solve"]


def absorb_memo_hit(endpoint: Endpoint, profile: Profile, hit: MemoHit
                    ) -> Generator[Event, Any, None]:
    """Materialize a memo hit into the client profile (process helper).

    Returning arguments (``*_RETURN`` modes — the client owns the bytes)
    are pulled from the owning SeD with ``memo_fetch`` at the data's true
    size; non-returning ones bind to the persisted handle directly,
    exactly as a fresh solve's reply would have.  Raises
    :class:`CommunicationError` (owner died since the lookup) or
    :class:`DataError` (result evicted) — callers fall back to a normal
    re-solve, which repopulates the memo.
    """
    for index in sorted(hit.out_values):
        handle = hit.out_values[index]
        arg = profile.parameter(index)
        if arg.desc.persistence.returns_to_client:
            value = yield from endpoint.rpc(hit.owner, "memo_fetch",
                                            handle.data_id)
            arg.set(value)
        else:
            arg.set(handle)


def submit_and_solve(client: Any, profile: Profile,
                     handle: Optional["FunctionHandle"] = None
                     ) -> Generator[Event, Any, Tuple[int, str, float]]:
    """The one client request path: submit, then solve (process helper).

    ``client`` (a :class:`DietClient` or a
    :class:`~repro.core.federation.FederatedClient`) supplies its endpoint,
    the MAs to try in order (``_ma_order()``) and what to account when one
    declines (``_note_rejection(ma, redirected)``) with
    :class:`ServerNotFoundError` or :class:`CommunicationError`; the last
    MA's error is raised once every one declined.  Each attempt draws a
    fresh fabric-scoped request id, so identical campaigns get identical
    ids regardless of what ran before them.

    Returns ``(status, sed_name, found_at)``, ``found_at`` being the instant
    the winning submit reply arrived; OUT/INOUT values are written back into
    ``profile``.  ``handle`` is bound to the chosen SeD as soon as it is
    known and keeps the request id and the SeD-side error string.  Lifecycle
    stamps are not taken here: an endpoint's :class:`TracingInterceptor`
    records them as the messages pass through the pipeline.
    """
    profile.validate_for_submit()
    endpoint: Endpoint = client.endpoint
    if handle is None:
        handle = FunctionHandle(profile.path)
    # Data Location Manager view: persistent inputs already on SeDs.
    handles = tuple(arg.value for arg in profile.arguments
                    if isinstance(arg.value, DataHandle))
    resident: Dict[str, int] = {}
    for data in handles:
        resident[data.sed_name] = resident.get(data.sed_name, 0) + data.nbytes
    memo_key = None
    if client.memo_enabled:
        # Lazy: repro.data depends on repro.core at module level.
        from ..data.memo import descriptor_digest

        memo_key = descriptor_digest(profile)
    while True:
        order = client._ma_order()
        for i, ma_name in enumerate(order):
            request_id = client.fabric.new_request_id()
            sub = SubmitRequest(request_id=request_id,
                                service_desc=profile.desc,
                                client_host=client.host.name,
                                client_endpoint=endpoint.name,
                                request_nbytes=profile.request_nbytes(),
                                resident_bytes=resident,
                                data_handles=handles,
                                memo_key=memo_key)
            try:
                sed_name, est = yield from endpoint.rpc(ma_name, "submit", sub)
            except (ServerNotFoundError, CommunicationError) as exc:
                last_error = exc
                client._note_rejection(ma_name, i + 1 < len(order))
                continue
            found_at = client.engine.now
            handle.server, handle.request_id = sed_name, request_id
            handle.error = None
            if isinstance(est, MemoHit):
                try:
                    yield from absorb_memo_hit(endpoint, profile, est)
                except (CommunicationError, DataError):
                    # Stale hit: redo the whole round without the memo.
                    client.memo_fallbacks += 1
                    memo_key = None
                    break
                return 0, sed_name, found_at
            reply = yield from endpoint.rpc(
                sed_name, "solve",
                SolveRequest(request_id=request_id, profile=profile,
                             client_endpoint=endpoint.name,
                             memo_key=memo_key),
                nbytes=profile.request_nbytes())
            for index, value in reply.out_values.items():
                profile.parameter(index).set(value)
            handle.error = reply.error
            return reply.status, sed_name, found_at
        else:  # no break: every MA declined
            raise last_error


@dataclass
class FunctionHandle:
    """Associates a service name with the server that (last) solved it."""

    service_name: str
    server: Optional[str] = None
    bound: bool = True
    #: Grid-wide id of the (last) request made through this handle and the
    #: SeD-side error string of its solve — what a non-zero status alone
    #: cannot say (None when the solve succeeded).
    request_id: Optional[int] = None
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
    """A DIET client application bound to one simulated host."""

    def __init__(self, fabric: TransportFabric, host: Host,
                 name: str = "client", tracer: Optional[Tracer] = None,
                 interceptors: Iterable[Interceptor] = (),
                 memo_enabled: bool = False):
        self.fabric = fabric
        self.engine: Engine = fabric.engine
        self.host = host
        self.name = name
        self.tracer = tracer or Tracer()
        self.endpoint: Endpoint = fabric.endpoint(name, host.name)
        #: Request-lifecycle stamps (submitted/found/data-sent/completed) are
        #: taken by the pipeline, not by call(); extra interceptors (e.g. a
        #: DeadlineInterceptor from grpc_set_deadline) append after it.
        self.tracing = self.endpoint.pipeline.add(TracingInterceptor(self.tracer))
        for icpt in interceptors:
            self.endpoint.pipeline.add(icpt)
        self.ma_name: Optional[str] = None
        self._initialized = False
        self._session_ids = itertools.count(1)
        self._requests: Dict[int, AsyncRequest] = {}
        #: Calls resubmitted through the MA after a middleware failure
        #: (:meth:`call_retry`); application failures are never retried.
        self.resubmissions = 0
        #: Send a canonical request-descriptor digest with every submit so
        #: the MA can short-circuit repeats to grid-memo hits.  Off by
        #: default: a key-less submit never touches the memo.
        self.memo_enabled = memo_enabled
        #: Memo hits whose owner vanished before the results could be
        #: pulled; each one fell back to a normal re-solve.
        self.memo_fallbacks = 0

    # -- session -------------------------------------------------------------------

    def initialize(self, config: Dict[str, Any]) -> None:
        """diet_initialize(configuration_file): binds to the Master Agent.

        ``config`` plays the role of the parsed configuration file; the only
        mandatory key is ``"MA_name"``.
        """
        ma = config.get("MA_name")
        if not ma:
            raise NotInitializedError("configuration lacks 'MA_name'")
        # Resolving validates the MA actually exists (name-service lookup).
        self.fabric.resolve(ma)
        self.ma_name = ma
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
        """diet_call(): synchronous solve.  Process helper.

        The one-MA case of :func:`submit_and_solve`.  Returns the service's
        integer status; OUT/INOUT values are written back into ``profile``
        (freshly allocated on the client side, as the C API does for OUT
        arguments).
        """
        self._check_session()
        status, _sed, _found_at = yield from submit_and_solve(
            self, profile, handle)
        return status

    def _ma_order(self) -> list:
        return [self.ma_name]

    def _note_rejection(self, ma_name: str, redirected: bool) -> None:
        """A single-MA client has nowhere to redirect and nothing to rank."""

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

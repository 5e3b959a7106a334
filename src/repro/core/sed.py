"""Server Daemon (SeD): service registration, estimation, solving.

§4.2 of the paper: a SeD "encapsulates a computational server", stores the
list of problems it can solve, answers monitoring queries from its parent
Local Agent and forks the solving function upon an application client
request.  The RAMSES deployment (§4.1) has each SeD manage a whole cluster
slice: one simulation at a time per SeD (``max_concurrent_solves=1``), the
property that produces the queueing visible in Figure 5's latency curve.

Solve functions are generator functions ``solve(profile, ctx)`` so they can
charge simulated time (``yield ctx.host.execute(work)``), touch the
cluster's NFS volume, and run the real Python RAMSES pipeline in REAL mode.

Every SeD carries a :class:`~repro.data.manager.DataManager` on its stack's
:class:`~repro.data.manager.DataGrid` (§4.3.2): it keeps the server copies
the persistence modes ask for, materializes handle-valued inputs (peer
fetches are ``dm_fetch``) and populates the grid's result memo.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, Generator, List, Optional

from ..sim.engine import Engine, Event, Interrupt
from ..sim.network import Host
from ..sim.resources import Resource
from ..platform.nfs import NfsVolume
from .agent import ROUTING_MODES
from .data import DataHandle, Direction
from .exceptions import DataError, DietError
from .profile import Profile, ProfileDesc, ServiceTable, SolveFunc
from .requests import (EstimateDelta, EstimateRequest, MemoHit, SolveReply,
                       SolveRequest)
from .scheduling import EstimationVector
from .statistics import Tracer
from .transport import Endpoint, TransportFabric

if TYPE_CHECKING:  # pragma: no cover - repro.data imports repro.core
    from ..data.manager import DataGrid

__all__ = ["SeDParams", "SolveContext", "SeD"]


@dataclass(frozen=True)
class SeDParams:
    """Timing knobs of one SeD."""

    #: Time to initiate a service once a job slot is free (fork of the solve
    #: function + MPI environment setup).  Paper §5.2: 20.8 ms average.
    service_init_time: float = 20.8e-3
    #: Simultaneous solves ("each server cannot compute more than one
    #: simulation at the same time", §5.1).
    max_concurrent_solves: int = 1
    #: Duration of one estimate probe of the host (DIET's CoRI), part of
    #: the finding time.
    estimate_collect_time: float = 11.3e-3


@dataclass
class SolveContext:
    """Everything a solve function may need."""

    engine: Engine
    host: Host
    sed: "SeD"
    nfs: Optional[NfsVolume] = None

    def execute(self, work: float) -> Generator[Event, Any, None]:
        """Charge ``work`` normalized operations on the SeD's host."""
        yield from self.host.execute(work)


class SeD:
    """A DIET Server Daemon bound to one simulated host."""

    def __init__(self, fabric: TransportFabric, host: Host, name: str,
                 ma_name: Optional[str] = None,
                 params: Optional[SeDParams] = None,
                 tracer: Optional[Tracer] = None,
                 nfs: Optional[NfsVolume] = None,
                 parent: Optional[str] = None,
                 routing: str = "pull",
                 data_grid: Optional["DataGrid"] = None):
        if routing not in ROUTING_MODES:
            raise ValueError(f"routing must be one of {ROUTING_MODES}, "
                             f"got {routing!r}")
        self.routing = routing
        self.fabric = fabric
        self.engine = fabric.engine
        self.host = host
        self.name = name
        self.ma_name = ma_name
        #: Endpoint name of the parent Local Agent, used to re-register
        #: after a crash/restart cycle.  None disables re-registration.
        self.parent = parent
        self.params = params or SeDParams()
        self.tracer = tracer or Tracer()
        self.nfs = nfs
        self.table = ServiceTable()
        self.job_slots = Resource(self.engine, capacity=self.params.max_concurrent_solves)
        self.endpoint: Endpoint = fabric.endpoint(name, host.name)
        self._bind_handlers()
        #: DTM/DAGDA data agent on the stack's data grid; a SeD built on its
        #: own gets a private grid.  (Imported here: repro.data depends on
        #: repro.core at module level.)
        from ..data.manager import DataGrid, DataManager

        self.data_manager = DataManager(
            self, data_grid or DataGrid(fabric.network))
        self.solve_count = 0
        self.solve_durations: List[float] = []
        self.crash_count = 0
        self._crashed = False
        self._launched = False
        #: Push routing: per-origin monotone stamp on every pushed row.
        #: Never reset — it must stay monotone across crash/restart cycles
        #: so a pre-crash straggler can't overwrite a post-restart row.
        self._push_seq = 0
        self._push_dirty = False

    def _bind_handlers(self) -> None:
        """Attach operation handlers to the current endpoint (a restart
        creates a fresh endpoint, so this runs once per incarnation)."""
        self.endpoint.on("estimate", self._handle_estimate)
        self.endpoint.on("solve", self._handle_solve)
        self.endpoint.on("dm_fetch", self._handle_dm_fetch)
        self.endpoint.on("memo_fetch", self._handle_memo_fetch)
        self.endpoint.on("ping", self._handle_ping)

    # -- service registration (diet_service_table_add) ----------------------------

    def add_service(self, desc: ProfileDesc, solve_func: SolveFunc,
                    convertor: Any = None,
                    predictor: Optional[Callable] = None) -> None:
        self.table.add(desc, convertor, solve_func, predictor)

    def launch(self) -> None:
        """diet_SeD(): the SeD is up.  Its endpoint serves from the moment
        it is bound; launching announces the initial estimates and makes a
        restart re-register.  (Unlike the C API this returns — the serving
        loop lives as a simulation process.)"""
        if not self.table.paths():
            raise DietError("refusing to launch a SeD with an empty service table")
        self._launched = True
        # Push routing: announce the initial (idle) estimates so the agent
        # tables know this SeD before the first request arrives.
        self._schedule_push()

    @property
    def n_jobs(self) -> int:
        """Running + queued solves (an estimate's ``n_jobs``)."""
        return self.job_slots.count + self.job_slots.queue_length

    @property
    def cluster(self) -> str:
        """Cluster this SeD's host belongs to (metric/span label)."""
        return str(self.host.properties.get("cluster", self.host.name))

    # -- crash / restart (failure model) -------------------------------------------

    @property
    def is_down(self) -> bool:
        return self._crashed

    def crash(self) -> None:
        """The node hosting this SeD dies abruptly.

        Unbinding the endpoint dead-letters queued requests and interrupts
        every in-flight handler (the Interrupt releases its job slot on its
        way out) — callers see
        :class:`~repro.core.exceptions.CommunicationError`, exactly as if
        the TCP connection to a real SeD had been torn down.  Volatile state
        (DTM data store) is lost with the process; anything on NFS survives.
        """
        if self._crashed:
            raise DietError(f"SeD {self.name!r} is already down")
        self._crashed = True
        self.crash_count += 1
        obs = self.tracer.obs
        if obs.enabled:
            now = self.engine.now
            obs.spans.mark(f"sed:{self.name}", "crash", now, sed=self.name)
            # Abort every span this SeD's serving loop had open (queued and
            # in-flight solves), innermost first so statuses stay "aborted"
            # rather than cascaded "interrupted".
            for span in reversed(obs.spans.open_spans()):
                if span.attrs.get("sed") == self.name:
                    obs.spans.end(span, now, "aborted")
        self.fabric.unbind(self.name)
        self.data_manager.on_crash()
        if self.nfs is not None:
            # A crashed writer's in-flight NFS reservations must not leak
            # volume capacity (its partial files never land).
            self.nfs.release_host(self.host.name)

    def restart(self) -> None:
        """The node comes back: fresh endpoint, empty volatile state.

        Mirrors a SeD process being relaunched by the batch system — it
        re-announces itself to its parent LA (the ``register`` op) so the
        agent hierarchy picks it back up for scheduling; until that RPC
        lands the SeD is invisible, exactly like a real daemon between
        exec() and its CORBA bind.
        """
        if not self._crashed:
            raise DietError(f"SeD {self.name!r} is not down")
        self._crashed = False
        obs = self.tracer.obs
        if obs.enabled:
            obs.spans.mark(f"sed:{self.name}", "restart", self.engine.now,
                           sed=self.name)
        # A push pump armed before the crash belongs to the dead
        # incarnation (it will see the endpoint swap below and exit without
        # touching state); its dirty flag must not suppress this
        # incarnation's first re-announce push.
        self._push_dirty = False
        self.endpoint = self.fabric.endpoint(self.name, self.host.name)
        self._bind_handlers()
        if self._launched and self.parent is not None:
            self.engine.process(self._announce(),
                                name=f"register:{self.name}")

    def _announce(self) -> Generator[Event, Any, None]:
        """Re-register with the parent LA: one ``register`` RPC (it carries
        no deadline, and only SeDs crash)."""
        try:
            yield from self.endpoint.rpc(self.parent, "register", self.name)
        except Exception:
            if self.endpoint.closed:   # crashed again mid-announce
                return
            raise
        # Rejoined: re-push our estimates — the LA invalidated (or holds
        # stale rows for) this SeD while it was down.
        self._schedule_push()

    def _handle_ping(self, msg) -> Generator[Event, Any, tuple]:
        """Liveness probe from the parent LA's heartbeat monitor."""
        return ("pong", 64)
        yield  # pragma: no cover - make this a generator function

    # -- estimation ---------------------------------------------------------------

    def _schedule_push(self) -> None:
        """Arm the push pump on a state change (solve start/end, queue
        change, launch, restart rejoin).  Coalescing: while a pump is
        pending, further changes ride its snapshot — the pump reads state
        *after* its probe delay, so it always ships the freshest view."""
        if (self.routing != "push" or self.parent is None or self._crashed
                or not self._launched or self._push_dirty):
            return
        self._push_dirty = True
        self.engine.process(self._push_pump(self.endpoint),
                            name=f"push:{self.name}")

    def _push_pump(self, endpoint: Endpoint) -> Generator[Event, Any, None]:
        """Pay one estimate probe, then push fresh vectors for every service.

        Runs as a standalone process (not an endpoint handler), so it
        guards its own liveness: a crash while the probe was sleeping ends
        the pump silently.  ``endpoint`` is pinned at arm time — if a
        crash/restart cycle completed during the probe sleep, the pump
        belongs to the dead incarnation: it must neither send through the
        new endpoint (its registration may not have landed) nor clear the
        new incarnation's dirty flag (``restart()`` reset it; a fresh pump
        from the re-announce may already be pending).  The send is
        best-effort — a dead parent is the heartbeat monitor's problem.
        """
        yield self.engine.timeout(self.params.estimate_collect_time)
        if endpoint is not self.endpoint:
            return  # stale incarnation: exit without touching state
        self._push_dirty = False
        if self._crashed or endpoint.closed:
            return
        n_jobs = self.n_jobs
        updates = []
        shared = None  # one snapshot serves every service without a predictor
        for desc, _, predictor in self.table:
            if predictor is None:
                est = shared = shared or self._estimate(n_jobs)
            else:
                est = self._estimate(n_jobs, predictor(desc))
            self._push_seq += 1
            updates.append((desc.key, est, self._push_seq))
        delta = EstimateDelta(self.name, updates)
        yield from self.endpoint.try_send(self.parent, "est_delta", delta,
                                          nbytes=delta.wire_bytes())

    def _handle_estimate(self, msg) -> Generator[Event, Any, tuple]:
        req: EstimateRequest = msg.payload
        if not self.table.can_solve(req.service_desc):
            return ([], 64)
        predictor = self.table.lookup(req.service_desc.path)[2]
        # Pull mode reads the queue and the predictor before the probe
        # delay (the push pump reads them after its own).
        n_jobs = self.n_jobs
        predicted = predictor(req.service_desc) if predictor else None
        yield self.engine.timeout(self.params.estimate_collect_time)
        return ([self._estimate(n_jobs, predicted)], 512)

    def _estimate(self, n_jobs: int,
                  tcomp: Optional[float] = None) -> EstimationVector:
        """This SeD's estimation vector; ``tcomp`` None means no predictor."""
        return EstimationVector(
            self.name, self.host.name, n_jobs, float(self.host.speed),
            float("inf") if tcomp is None else float(tcomp))

    # -- persistent data (DTM) ---------------------------------------------------------

    def _handle_dm_fetch(self, msg) -> Generator[Event, Any, tuple]:
        """Serve a persisted datum to a peer SeD, charged at the datum's
        true size."""
        data_id = msg.payload
        value, nbytes = self.data_manager.serve(data_id)
        yield self.engine.timeout(0.0)
        return (value, nbytes)

    def _handle_memo_fetch(self, msg) -> Generator[Event, Any, tuple]:
        """Serve a memoized result back to a client absorbing a memo hit.

        Unlike peer ``dm_fetch``, STICKY pins do not refuse: stickiness
        constrains SeD-to-SeD movement, not the *_RETURN contract that the
        client gets its bytes back.
        """
        data_id = msg.payload
        value, nbytes = self.data_manager.serve(data_id, allow_pinned=True)
        yield self.engine.timeout(0.0)
        return (value, nbytes)

    def _resolve_handles(self, profile: Profile) -> Generator[Event, Any, None]:
        """Materialize DataHandle-valued IN/INOUT arguments ("Data
        downloading" in the paper's solve skeleton).

        Local handles cost nothing; remote ones are pulled through the data
        manager (nearest replica, coalesced with concurrent pulls) at the
        data's true size — the point of DIET_PERSISTENT: the bytes never
        round-trip through the client.
        """
        for arg in profile.arguments:
            if (arg.direction is Direction.OUT
                    or not isinstance(arg.value, DataHandle)):
                continue
            value = yield from self.data_manager.resolve(arg.value)
            arg.set(value)

    def _persist_outputs(self, req: SolveRequest, profile: Profile,
                         out_values: Dict[int, Any]
                         ) -> Dict[int, DataHandle]:
        """Keep server copies per the argument persistence modes; replace
        non-returning values with handles in the reply.

        Returns the handle of every argument that kept a server copy this
        call (including ``*_RETURN`` ones, whose reply still ships the
        bytes) — the raw material for memo population.
        """
        handles: Dict[int, DataHandle] = {}
        for i, arg in enumerate(profile.arguments):
            if arg.direction is Direction.IN or not arg.is_set:
                continue
            if arg.value is None or isinstance(arg.value, DataHandle):
                # Nothing produced, or already persisted under a handle the
                # solve passed through — never re-store a handle as data.
                continue
            mode = arg.desc.persistence
            if not mode.keeps_server_copy:
                continue
            data_id = self.data_manager.put(
                f"{self.name}/req{req.request_id}/arg{i}",
                arg.value, arg.nbytes, mode)
            handles[i] = DataHandle(data_id=data_id, sed_name=self.name,
                                    nbytes=arg.nbytes)
            if not mode.returns_to_client:
                out_values[i] = handles[i]
                self.data_manager.note_reply_handle(arg.nbytes)
        return handles

    def _memo_populate(self, key: str, profile: Profile,
                       handles: Dict[int, DataHandle]) -> None:
        """Register a successful solve in the grid memo.

        Every OUT/INOUT argument must have kept a server copy for the
        result to be replayable from this SeD — one VOLATILE output means
        the request leaves nothing behind to point at, so it is *never*
        memoized (the DIET persistence contract: volatile data is freed
        after the call).
        """
        out_handles: Dict[int, DataHandle] = {}
        for i, arg in enumerate(profile.arguments):
            if arg.direction is Direction.IN:
                continue
            if not arg.desc.persistence.keeps_server_copy:
                return  # a VOLATILE output: not memoizable
            handle = handles.get(i)
            if handle is None and isinstance(arg.value, DataHandle):
                handle = arg.value  # passed through, already persisted
            if handle is None:
                return  # nothing produced / not server-resident
            out_handles[i] = handle
        self.data_manager.grid.memo.put(
            MemoHit(key=key, owner=self.name, out_values=out_handles))

    # -- solving --------------------------------------------------------------------

    def _handle_solve(self, msg) -> Generator[Event, Any, tuple]:
        """The SeD's side of the request lifecycle: data arrival, slot
        grant, solve start and solve end are all stamped here."""
        req: SolveRequest = msg.payload
        profile: Profile = req.profile
        # The handler starts the instant the message is delivered (after the
        # fabric's dispatch charge): the data has arrived, the transfer is
        # over, the wait for a job slot begins.
        arrived = self.engine.now
        trace = self.tracer.trace(req.request_id, profile.path)
        trace.data_arrived_at = arrived
        obs = self.tracer.obs
        track = f"req:{req.request_id}"
        if obs.enabled:
            transfer = obs.spans.open_span(track, "transfer")
            if transfer is not None:
                obs.spans.end(transfer, arrived)
            obs.spans.begin(track, "queue", arrived, "queue",
                            request_id=req.request_id, service=profile.path,
                            sed=self.name)
        try:
            yield from self._resolve_handles(profile)
        except DataError as exc:
            # a stale/unfetchable handle is a per-request data failure, not
            # a middleware crash: report it through the status channel
            return (SolveReply(request_id=req.request_id, status=1,
                               error=f"DataError: {exc}"), 256)

        # Queue is about to grow: push the new backlog up the tree.
        self._schedule_push()
        slot = yield from self.job_slots.acquire()
        try:
            # Slot granted: the queue wait is over, initiation begins.
            trace.init_started_at = self.engine.now
            init_span = solve_span = None
            if obs.enabled:
                spans = obs.spans
                queue_span = spans.open_span(track, "queue")
                if queue_span is not None:
                    spans.end(queue_span, trace.init_started_at)
                init_span = spans.begin(
                    track, "init", trace.init_started_at, "init",
                    request_id=req.request_id, service=profile.path,
                    sed=self.name)
            # Service initiation: fork of the solve function, MPI env setup.
            yield self.engine.timeout(self.params.service_init_time)
            started = self.engine.now
            trace.solve_started_at = started
            if init_span is not None:
                obs.spans.end(init_span, started)
                solve_span = obs.spans.begin(
                    track, "solve", started, "solve",
                    request_id=req.request_id, service=profile.path,
                    sed=self.name, cluster=self.cluster)
            solve_func = self.table.lookup(profile.path)[1]
            ctx = SolveContext(self.engine, self.host, self, self.nfs)
            try:
                status = yield from solve_func(profile, ctx)
                if status is None:
                    status = 0
                error = None
            except DietError:
                raise
            except Interrupt:
                # Host crash mid-solve, not an application failure: let the
                # transport dead-letter the request (must re-raise before
                # ``except Exception`` — Interrupt subclasses it).
                raise
            except Exception as exc:
                # An application failure is a *service* result (the paper's
                # profile carries an explicit error-control integer), not a
                # middleware failure.
                status, error = 1, f"{type(exc).__name__}: {exc}"
            ended = self.engine.now
            trace.solve_ended_at = ended
            if solve_span is not None:
                obs.spans.end(solve_span, ended, status_code=status)
        finally:
            self.job_slots.release(slot)

        duration = ended - started
        self.solve_count += 1
        self.solve_durations.append(duration)
        # Queue shrank (slot released above): push the new state upward.
        self._schedule_push()

        if self.ma_name is not None:
            # Lightweight completion feedback for history-based plug-in
            # schedulers (LogService carries the equivalent event in DIET).
            yield from self.endpoint.send(
                self.ma_name, "job_done",
                payload={"sed": self.name, "duration": duration,
                         "service": profile.path})

        out_values = {
            i: arg.value for i, arg in enumerate(profile.arguments)
            if arg.direction in (Direction.OUT, Direction.INOUT) and arg.is_set
        }
        handles = self._persist_outputs(req, profile, out_values)
        if req.memo_key is not None and status == 0:
            self._memo_populate(req.memo_key, profile, handles)
        reply = SolveReply(request_id=req.request_id, status=status,
                           out_values=out_values, error=error)
        return (reply, max(profile.response_nbytes(), 256))

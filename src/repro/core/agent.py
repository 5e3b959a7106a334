"""The agent hierarchy: Local Agents and the Master Agent.

§2.1 of the paper: "When a Master Agent receives a computation request from
a client, agents collect computation abilities from servers (through the
hierarchy) and chooses the best one according to some scheduling
heuristics.  The MA sends back a reference to the chosen server."

Two routing modes share this module (see DESIGN.md, "Scheduling
architecture: pull vs push aggregation"):

``pull`` (default, the paper's protocol)
    every ``submit`` fans an estimation request down the tree and gathers
    fresh vectors back up — O(tree) messages per request, faithful to the
    measured 11-SeD deployment and kept byte-identical for the figures;

``push`` (the scale path)
    SeDs push estimate *deltas* upward on state changes; agents fold them
    into materialized per-service candidate tables
    (:mod:`repro.core.aggregation`) and forward only table *changes*; the
    MA answers ``submit`` from its table, admitting requests in batches —
    routing cost does not depend on hierarchy size.

In both modes the Master Agent owns the
:class:`~repro.core.scheduling.SchedulerPolicy` that ranks candidates, the
dispatch history used by the default policy, and the completion feedback
consumed by history-based plug-in schedulers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Generator, List, Optional

from ..sim.engine import Engine, Event, Interrupt
from ..sim.network import Host
from ..sim.resources import Store
from .aggregation import AggregationTable
from .exceptions import CommunicationError, ServerNotFoundError
from .liveness import HeartbeatMonitor
from .requests import EstimateDelta, EstimateRequest, MemoHit, SubmitRequest
from .scheduling import (
    DefaultPolicy,
    EstimationVector,
    SchedulerPolicy,
    SchedulingContext,
)
from .statistics import Tracer
from .transport import Endpoint, TransportFabric

if TYPE_CHECKING:  # pragma: no cover - repro.data imports repro.core
    from ..data.manager import DataGrid

__all__ = ["AgentParams", "LocalAgent", "MasterAgent", "ROUTING_MODES"]

#: Valid values of the agents' ``routing`` switch.
ROUTING_MODES = ("pull", "push")

#: Push mode: most submits admitted per admission-loop wake-up.  The loop
#: pays one ``processing_time`` per batch, so a burst of simultaneous
#: requests costs one agent charge instead of one each.
ADMISSION_BATCH_MAX = 64


@dataclass(frozen=True)
class AgentParams:
    """Agent-side processing cost per request (sorting, bookkeeping)."""

    processing_time: float = 1.8e-3
    #: Give up on children that do not answer within this many seconds
    #: (covers crashed SeDs in the failure-injection tests).  Enforced by
    #: the ``estimate`` deadline of the agent's endpoint, without retries.
    child_timeout: float = 10.0
    #: Seconds between liveness pings to children; None (the default)
    #: disables the heartbeat monitor entirely, preserving the happy-path
    #: deployment byte for byte.
    heartbeat_interval: Optional[float] = None
    #: Seconds to wait for a pong before counting a miss.
    heartbeat_timeout: float = 2.0
    #: Consecutive misses before a child is deregistered.
    heartbeat_miss_threshold: int = 2

    def __post_init__(self) -> None:
        if self.heartbeat_interval is not None and (
                self.heartbeat_interval <= 0 or self.heartbeat_timeout <= 0
                or self.heartbeat_miss_threshold < 1):
            raise ValueError("heartbeat interval and timeout must be "
                             "positive and the miss threshold >= 1")


class LocalAgent:
    """An interior node of the hierarchy: fans requests out to its children.

    Children are endpoint names: SeDs for a leaf LA, further LAs otherwise
    (DIET allows arbitrary depth; the paper's deployment is MA -> 6 LA ->
    SeDs).  The LA concatenates child estimate lists — ranking happens once,
    at the MA, where the scheduling context lives.
    """

    def __init__(self, fabric: TransportFabric, host: Host, name: str,
                 parent: Optional[str] = None,
                 params: Optional[AgentParams] = None,
                 tracer: Optional[Tracer] = None,
                 routing: str = "pull",
                 data_grid: Optional["DataGrid"] = None):
        if routing not in ROUTING_MODES:
            raise ValueError(f"routing must be one of {ROUTING_MODES}, "
                             f"got {routing!r}")
        self.routing = routing
        self.fabric = fabric
        self.engine: Engine = fabric.engine
        self.host = host
        self.name = name
        self.parent = parent
        self.params = params or AgentParams()
        #: Shared deployment tracer; liveness marks and schedule spans
        #: reach the observability hub through ``tracer.obs``.
        self.tracer = tracer or Tracer()
        self.children: List[str] = []
        self.endpoint: Endpoint = fabric.endpoint(name, host.name)
        #: Child fan-out timeout: the same mechanism as every other RPC
        #: deadline.
        self.endpoint.set_deadline(("estimate",), self.params.child_timeout)
        self.endpoint.on("estimate", self._handle_estimate)
        self.endpoint.on("register", self._handle_register)
        self.endpoint.on("ping", self._handle_ping)
        #: Liveness: with ``heartbeat_interval`` set the agent pings its
        #: children and deregisters the persistently silent ones, so a
        #: crashed SeD stops costing a ``child_timeout`` on every request.
        self.heartbeat: Optional[HeartbeatMonitor] = None
        if self.params.heartbeat_interval is not None:
            self.endpoint.set_deadline(("ping",),
                                       self.params.heartbeat_timeout)
            self.heartbeat = HeartbeatMonitor(self)
        #: Children deregistered by the heartbeat monitor, in event order.
        self.deregistrations: List[str] = []
        #: The stack's data grid; an agent built on its own gets a private
        #: one.  (Imported here: repro.data imports repro.core.)
        from ..data.manager import DataGrid

        self.data_grid: "DataGrid" = data_grid or DataGrid(fabric.network)
        #: This agent's replica catalog node (the root for an MA).
        self.data_catalog = self.data_grid.node(name, root=parent is None)
        #: Grid-wide result memo.  The MA consults it before scheduling;
        #: every agent invalidates a deregistered child's entries so a
        #: crashed SeD's results stop being served.
        self.memo = self.data_grid.memo
        self.endpoint.on("dm_locate", self._handle_dm_locate)
        #: Monitoring counters ("the information stored on an agent is the
        #: list of requests, the number of servers that can solve a given
        #: problem...", §2.1).
        self.request_count = 0
        #: Push mode: the materialized per-service candidate tables fed by
        #: ``est_delta`` messages from children (None in pull mode).
        self.table: Optional[AggregationTable] = None
        self._fwd_dirty = False
        if routing == "push":
            self.table = AggregationTable()
            self.endpoint.on("est_delta", self._handle_est_delta)

    def add_child(self, endpoint_name: str) -> None:
        if endpoint_name in self.children:
            raise ValueError(f"child {endpoint_name!r} already attached to {self.name!r}")
        self.children.append(endpoint_name)

    def remove_child(self, endpoint_name: str) -> bool:
        """Deregister a child (heartbeat death); True if it was attached.

        Push mode additionally invalidates every table row that arrived
        through the dead child and propagates the removals upward — the
        table counterpart of pull mode's per-request subtree pruning.
        """
        try:
            self.children.remove(endpoint_name)
        except ValueError:
            return False
        self.deregistrations.append(endpoint_name)
        # A dead child's memoized results are unreachable: drop them (the
        # cascade reaches the leaf agents, whose children are the SeD
        # owners the memo is keyed by).
        self.memo.invalidate_owner(endpoint_name)
        if self.table is not None and self.table.drop_via(endpoint_name):
            # Pure removals: rows only disappeared, no service gained a
            # candidate — interior agents still cascade the shrink upward,
            # but the MA must not re-examine parked submits for it.
            self._on_table_change(frozenset())
        return True

    def launch(self) -> None:
        self.endpoint.start()
        if self.heartbeat is not None:
            self.heartbeat.launch()

    # -- child (re-)registration ----------------------------------------------------

    def _handle_register(self, msg) -> Generator[Event, Any, tuple]:
        """A SeD announcing itself (initial deployment wires children
        directly; this op is how a *restarted* SeD rejoins the hierarchy)."""
        child: str = msg.payload
        rejoined = child not in self.children
        if rejoined:
            self.children.append(child)
        if self.heartbeat is not None:
            self.heartbeat.note_registered(child, rejoined)
        return ("ok", 64)
        yield  # pragma: no cover - make this a generator function

    def _handle_ping(self, msg) -> Generator[Event, Any, tuple]:
        """Liveness probe from the parent's heartbeat monitor (the MA
        monitors its LAs exactly as LAs monitor their SeDs)."""
        return ("pong", 64)
        yield  # pragma: no cover - make this a generator function

    # -- replica catalog (DAGDA lookups) ---------------------------------------------

    def _handle_dm_locate(self, msg) -> Generator[Event, Any, tuple]:
        """Resolve replicas of a data id, with service-``find`` hop
        accounting: answer from this agent's catalog when it knows the id,
        else forward one level up (LA miss -> MA)."""
        data_id: str = msg.payload
        replicas = []
        if data_id in self.data_catalog:
            replicas = self.data_catalog.locate(data_id)
        elif self.parent is not None:
            replicas = yield from self.endpoint.rpc(
                self.parent, "dm_locate", data_id)
        return (list(replicas), 64 + 96 * len(replicas))

    # -- push-mode delta ingest + upward forwarding ---------------------------------

    def _handle_est_delta(self, msg) -> Generator[Event, Any, None]:
        """Fold a child's estimate delta into the materialized tables."""
        delta: EstimateDelta = msg.payload
        if delta.source not in self.children:
            # Late delta from a deregistered child: its rows were already
            # invalidated; applying them would resurrect a dead candidate.
            return
        outcome = self.table.apply_delta(delta)
        if outcome:
            self._on_table_change(outcome.gained)
        return
        yield  # pragma: no cover - make this a generator function

    def _on_table_change(self, gained: frozenset) -> None:
        """React to table changes: interior agents cascade a diff upward
        (the MA has no parent — its table is read directly by admission).

        ``gained`` names the services that received applied update rows
        (empty for pure removals); interior agents forward either way, the
        MA override keys its parked-submit rescue on it.
        """
        if self.parent is not None:
            self._schedule_forward()

    def _schedule_forward(self) -> None:
        """Arm the (coalescing) forward pump; no-op while one is pending."""
        if self._fwd_dirty or self.endpoint.closed:
            return
        self._fwd_dirty = True
        self.engine.process(self._forward_pump(), name=f"fwd:{self.name}")

    def _forward_pump(self) -> Generator[Event, Any, None]:
        """One processing charge, then ship the accumulated table diff.

        Deltas that land within the ``processing_time`` window ride the
        same export, so a burst of child updates costs one upward message.
        Sending is best-effort: a stopped parent is liveness's problem, not
        the pump's.
        """
        yield self.engine.timeout(self.params.processing_time)
        self._fwd_dirty = False
        if self.endpoint.closed or self.parent is None:
            return
        updates, removals = self.table.export_diff()
        if not updates and not removals:
            return
        delta = EstimateDelta(self.name, updates, removals)
        yield from self.endpoint.try_send(self.parent, "est_delta", delta,
                                          nbytes=delta.wire_bytes())

    # -- estimate fan-out ----------------------------------------------------------

    def _gather(self, req: EstimateRequest) -> Generator[Event, Any, List[EstimationVector]]:
        """One processing charge, then every child's estimate, joined.  A
        fan-out leg is just the reply token of its request: each carries
        the endpoint's ``estimate`` deadline (no retries), so the join
        always settles — no fan-out-level watchdog needed."""
        self.request_count += 1
        yield self.engine.timeout(self.params.processing_time)
        if not self.children:
            return []
        request = self.endpoint.request
        tokens = []
        for child in self.children:
            try:
                tokens.append(request(child, "estimate", req))
            except CommunicationError:
                # A stopped or unbound child prunes its subtree from the
                # candidate set; it must not fail the whole request.
                pass
        join = self.engine.all_of(tokens)
        try:
            yield join
        except BaseException:
            # An interrupted gather stops waiting: an arrival must find no
            # waiter on its reply token, or it starts a deadline for nobody.
            join._detach()
            raise
        ests: List[EstimationVector] = []
        for token in tokens:
            # So does an error reply or an expired deadline.
            status, value = token._value
            if status == "ok":
                ests.extend(value)
        return ests

    def _handle_estimate(self, msg) -> Generator[Event, Any, tuple]:
        req: EstimateRequest = msg.payload
        ests = yield from self._gather(req)
        return (ests, 128 + 384 * len(ests))


class MasterAgent(LocalAgent):
    """The root of the hierarchy: clients submit here.

    Holds the scheduler policy + context and answers ``submit`` requests
    with the chosen SeD's endpoint name.
    """

    def __init__(self, fabric: TransportFabric, host: Host, name: str = "MA",
                 policy: Optional[SchedulerPolicy] = None,
                 params: Optional[AgentParams] = None,
                 tracer: Optional[Tracer] = None,
                 routing: str = "pull",
                 data_grid: Optional["DataGrid"] = None):
        super().__init__(fabric, host, name, parent=None, params=params,
                         tracer=tracer, routing=routing, data_grid=data_grid)
        self.policy = policy or DefaultPolicy()
        self.ctx = SchedulingContext()
        #: Requests refused because no candidate could serve them.
        self.rejections = 0
        #: Push mode: submits park here; the admission loop drains them in
        #: batches against the materialized table.
        self._admission: Optional[Store] = None
        #: Submits with no candidates *yet* (cold start, a service whose
        #: first SeD has not pushed): held until a table change rescues
        #: them or their grace deadline rejects them.
        self._parked: List[list] = []
        #: The single expiry sweeper serving every parked submit (see
        #: :meth:`_park`); None while no submit is parked.
        self._sweep_proc = None
        self._sweep_target = float("inf")
        if self.routing == "push":
            self._admission = Store(self.engine)
        self.endpoint.on("submit", self._handle_submit)
        self.endpoint.on("job_done", self._handle_job_done)

    def launch(self) -> None:
        super().launch()
        if self._admission is not None:
            self.engine.process(self._admission_loop(),
                                name=f"admit:{self.name}")

    def _handle_submit(self, msg) -> Generator[Event, Any, tuple]:
        sub: SubmitRequest = msg.payload
        obs = self.tracer.obs
        span = None
        if obs.enabled:
            # Nested inside the client's open "finding" span on the same
            # request track: scheduling is the agent-side share of finding.
            span = obs.spans.begin(
                f"req:{sub.request_id}", "schedule", self.engine.now,
                "schedule", request_id=sub.request_id, agent=self.name,
                service=sub.service_desc.path)
        if self._admission is not None:
            # Push mode: no fan-out — queue on the batched admission loop,
            # which answers from the materialized table (consulting the
            # memo at admission).  The deadline bounds how long a submit
            # may wait for its first candidate (cold start / unknown
            # service) before rejection; it mirrors pull mode's per-child
            # estimate deadline.
            self.request_count += 1
            done = Event(self.engine)
            item = [sub, done, self.engine.now + self.params.child_timeout,
                    False]
            self._admission.put(item)
            chosen, n_candidates = yield done
        elif (hit := self._memo_lookup(sub)) is not None:
            # Pull mode memo hit: the whole estimate fan-out is skipped —
            # one agent processing charge answers the submit with the
            # memoized result's handles.
            self.request_count += 1
            yield self.engine.timeout(self.params.processing_time)
            chosen, n_candidates = hit, 0
        else:
            req = EstimateRequest(sub.request_id, sub.service_desc,
                                  sub.client_host, sub.request_nbytes)
            candidates = yield from self._gather(req)
            n_candidates = len(candidates)
            chosen = self._admit(sub, candidates) if candidates else None
        if chosen is None:
            self.rejections += 1
            if span is not None:
                obs.spans.end(span, self.engine.now, status="rejected")
            raise ServerNotFoundError(
                f"no SeD can solve {sub.service_desc.path!r}")
        if isinstance(chosen, MemoHit):
            # Short-circuit: no solve is dispatched — the reply carries the
            # owning SeD's result handles instead of a schedule.
            if span is not None:
                obs.spans.end(span, self.engine.now, sed=chosen.owner,
                              n_candidates=0, memo="hit")
            return ((chosen.owner, chosen), chosen.wire_bytes())
        if span is not None:
            obs.spans.end(span, self.engine.now, sed=chosen.sed_name,
                          n_candidates=n_candidates)
        return ((chosen.sed_name, chosen), 512)

    def _memo_lookup(self, sub: SubmitRequest) -> Optional[MemoHit]:
        """Consult the grid memo for one submit; None when the client sent
        no key or the key misses."""
        if sub.memo_key is None:
            return None
        return self.memo.lookup(sub.memo_key)

    def _admit(self, sub: SubmitRequest, candidates: List[EstimationVector],
               hosts: Optional[Dict[str, str]] = None) -> EstimationVector:
        """Rank candidates for one request and record the dispatch.

        Pure bookkeeping, no yields: in pull mode the vectors just arrived
        from the gather; in push mode they are the table rows' vectors and
        ``hosts`` lets the MA price the client->SeD transfer for policies
        that read comm time (a pushed row predates the client, so the
        vector cannot carry it).
        """
        ctx = self.ctx
        ctx.now = self.engine.now
        ctx.service = sub.service_desc.path
        ctx.resident_bytes = sub.resident_bytes
        if sub.data_handles:
            # Data-locality pricing: seconds each candidate would spend
            # pulling the non-resident handles.
            ctx.data_transfer_cost = self.data_grid.transfer_cost(
                sub.data_handles, [c.sed_name for c in candidates])
        else:
            ctx.data_transfer_cost = {}
        if hosts is not None and self.policy.uses_commtime:
            net = self.fabric.network
            ctx.comm_time = {
                sed: net.transfer_time(sub.client_host, host,
                                       sub.request_nbytes)
                for sed, host in hosts.items()}
        else:
            ctx.comm_time = {}
        chosen = self.policy.choose(candidates, ctx)
        assert chosen is not None
        ctx.note_dispatch(chosen.sed_name)
        return chosen

    def _admission_loop(self) -> Generator[Event, Any, None]:
        """Push mode: drain parked submits in batches against the table.

        One ``processing_time`` charge covers the whole batch — requests
        arriving in the same burst coalesce, so the per-request agent cost
        amortizes away.  Admissions within a batch stay in arrival order
        (the store is FIFO), preserving determinism.
        """
        store = self._admission
        while True:
            first = yield store.get()
            batch = [first]
            yield self.engine.timeout(self.params.processing_time)
            while len(batch) < ADMISSION_BATCH_MAX:
                extra = store.try_get()
                if extra is None:
                    break
                batch.append(extra)
            for item in batch:
                sub, done, expires_at, memo_checked = item
                if done.triggered:
                    continue  # expired while parked/queued
                if not memo_checked:
                    # One memo consultation per submit, on its first
                    # admission pass (a parked item re-queued by a table
                    # change was already counted as a miss).
                    item[3] = True
                    hit = self._memo_lookup(sub)
                    if hit is not None:
                        done.succeed((hit, 0))
                        continue
                rows = self.table.candidates(sub.service_desc.key)
                if not rows:
                    if self.engine.now >= expires_at:
                        done.succeed((None, 0))
                    else:
                        self._park(item)
                    continue
                hosts = {row.sed_name: row.host for row in rows}
                chosen = self._admit(sub, [row.vector for row in rows],
                                     hosts)
                done.succeed((chosen, len(rows)))

    def _park(self, item: list) -> None:
        """Hold a candidate-less submit until a table change or expiry.

        One sweeper process serves every parked submit.  A per-item
        watchdog would sleep the full ``child_timeout`` even after its
        submit was admitted, leaving one dead timer on the event heap per
        admitted-after-park request — at load that is an O(in-flight)
        heap leak.  The sweeper instead sleeps until the *earliest*
        pending deadline (retargeted by interrupt when a re-park brings an
        earlier one) and expires whatever is due when it wakes, so the
        heap carries at most one live park timer at any moment.
        """
        self._parked.append(item)
        if self._sweep_proc is None or not self._sweep_proc.is_alive:
            # -inf sentinel: a fresh sweeper computes its own first target
            # (it must not be interrupted before its generator starts).
            self._sweep_target = float("-inf")
            self._sweep_proc = self.engine.process(
                self._expiry_sweep(), name=f"admit-park:{self.name}")
        elif item[2] < self._sweep_target:
            self._sweep_proc.interrupt("earlier park deadline")

    def _expiry_sweep(self) -> Generator[Event, Any, None]:
        """Reject parked submits whose grace deadline passed (see _park)."""
        while True:
            pending = [it for it in self._parked if not it[1].triggered]
            if not pending:
                return
            self._sweep_target = min(it[2] for it in pending)
            try:
                yield self.engine.timeout(
                    max(0.0, self._sweep_target - self.engine.now))
            except Interrupt:
                continue  # an earlier deadline was parked: retarget
            now = self.engine.now
            keep = []
            for it in self._parked:
                if it[1].triggered:
                    continue
                if it[2] <= now:
                    it[1].succeed((None, 0))
                else:
                    keep.append(it)
            self._parked = keep

    def _on_table_change(self, gained: frozenset) -> None:
        # The MA is the root: nothing cascades upward; instead table growth
        # may rescue submits parked for want of candidates (cold start, a
        # service whose first SeD just pushed).  Only submits whose service
        # actually *gained* a candidate row are re-queued: a pure removal
        # (heartbeat crash cascade) cannot help a candidate-less submit,
        # and re-examining every parked item on every churn event would
        # burn a full ``processing_time`` admission batch for nothing.
        if not self._parked or not gained:
            return
        keep = []
        for item in self._parked:
            if item[0].service_desc.key in gained:
                self._admission.put(item)
            else:
                keep.append(item)
        self._parked = keep

    def _handle_job_done(self, msg) -> Generator[Event, Any, None]:
        info = msg.payload
        self.ctx.note_completion(info["sed"], info["duration"],
                                 service=info.get("service", ""))
        return
        yield  # pragma: no cover - make this a generator function

"""The full two-part campaign of §5: one low-resolution run, then 100
simultaneous zoom sub-simulations.

"We studied the possibility of computing a lot of low-resolution
simulations.  The client requests a 128^3 particles 100 Mpc/h simulation
(first part).  When he receives the results, he requests simultaneously 100
sub-simulations (second part).  As each server cannot compute more than one
simulation at the same time, we won't be able to have more than 11 parallel
computations at the same time."

:func:`run_campaign` builds the whole stack (platform, hierarchy, services)
and produces a :class:`CampaignResult` from which every §5 figure/number is
derived.  ``CampaignConfig.data_policy`` says what persists on the SeDs; the
default ``"volatile"`` is the paper's campaign: everything travels by value.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.agent import AgentParams
from ..core.client import AsyncRequest, FunctionHandle
from ..core.data import PersistenceMode
from ..core.deployment import Deployment, deploy_paper_hierarchy
from ..core.scheduling import SchedulerPolicy, make_policy
from ..core.statistics import RequestTrace
from ..data import campaign_data_config, policy_keeps_results
from ..obs import Observability, SpanStore
from ..platform.grid5000 import ClusterSpec, build_grid5000
from ..sim.engine import Engine
from ..sim.failures import FailureInjector, Outage, OutageRecord
from ..sim.rng import RandomStreams
from .perfmodel import RamsesPerfModel
from .ramses_client import (
    build_zoom1_profile,
    build_zoom2_profile,
    decode_zoom1,
    decode_zoom2,
    default_namelist_text,
)
from .ramses_service import (
    ExecutionMode,
    RamsesServiceConfig,
    register_ramses_services,
)

__all__ = ["CampaignConfig", "CampaignResult", "DetachedDeployment",
           "FailurePlan", "FailureReport", "run_campaign",
           "run_campaign_detached", "synthetic_zoom_centers"]


@dataclass(frozen=True)
class FailurePlan:
    """Degraded-mode campaign: seeded SeD outages + the recovery machinery.

    Victims, crash times and downtimes are drawn from the campaign seed's
    ``"outages"`` stream, so a degraded run is as bit-deterministic as the
    happy-path one.  The remaining knobs size the recovery machinery the
    plan switches on: LA->SeD heartbeats, zoom2 checkpointing, client-side
    resubmission.
    """

    #: Distinct SeDs to crash (capped at the deployment size).
    n_crashes: int = 2
    #: Simulated-seconds window the crash instants are drawn from
    #: (uniform); the default covers the middle of the §5.2 zoom phase.
    crash_window: Tuple[float, float] = (6000.0, 30000.0)
    #: Mean outage duration, seconds (exponential draw, floored at 60 s).
    mean_downtime: float = 3600.0
    heartbeat_interval: float = 60.0
    heartbeat_timeout: float = 5.0
    heartbeat_miss_threshold: int = 2
    #: Checkpoint the zoom2 main phase every this many work units
    #: (~5000 work units per zoom at the paper's parameters).
    checkpoint_interval_work: float = 600.0
    #: Client-side resubmission budget per zoom job.
    max_solve_attempts: int = 8
    #: Seconds between resubmissions (multiplied by the attempt number).
    retry_backoff: float = 30.0

    def __post_init__(self):
        if self.n_crashes < 0:
            raise ValueError("n_crashes must be non-negative")
        if self.crash_window[0] >= self.crash_window[1]:
            raise ValueError("crash_window must be a non-empty interval")


@dataclass
class FailureReport:
    """What the failures cost and how the stack absorbed them."""

    #: Completed crash/restart cycles (a victim whose restart falls beyond
    #: the campaign's end never reaches the history).
    outages: List[OutageRecord]
    #: Jobs the client re-pushed through the MA finding path.
    resubmissions: int
    #: Normalized work executed by dead attempts and never recovered.
    work_lost: float
    #: Normalized work skipped on resume thanks to checkpoints.
    work_recovered: float
    checkpoints_written: int
    restarts_from_checkpoint: int
    restarts_from_scratch: int
    #: SeDs deregistered by LA heartbeat monitors, in event order.
    deregistrations: List[str]
    #: SeDs that re-registered after a restart, in event order.
    recoveries: List[str]


@dataclass(frozen=True)
class CampaignConfig:
    """Everything that parameterizes one campaign run."""

    n_sub_simulations: int = 100
    resolution: int = 128
    boxsize_mpc_h: int = 100
    n_zoom_levels: int = 2
    mode: ExecutionMode = ExecutionMode.MODELED
    #: scheduler policy name (see repro.core.scheduling.POLICIES).
    policy: str = "default"
    #: register SeD-side performance predictors (plug-in scheduler half).
    with_predictor: bool = False
    seed: int = 2007
    #: REAL mode knobs (toy scales).
    workdir: Optional[str] = None
    real_n_steps: int = 12
    real_a_end: float = 0.6
    #: optional platform override (None == the paper's 6 clusters / 11 SeDs).
    cluster_specs: Optional[Tuple[ClusterSpec, ...]] = None
    #: None (default) is the paper's happy path; a FailurePlan switches on
    #: seeded SeD outages plus the whole recovery machinery.
    failures: Optional[FailurePlan] = None
    #: Record spans (the repro.obs subsystem; counts are kept either way,
    #: by the components that own them).  Recording is pure
    #: bookkeeping over timestamps already read — the event stream is
    #: bit-identical either way (the determinism suite pins both settings);
    #: False skips even that bookkeeping for benchmark runs.
    observe: bool = True
    #: DAGDA-style data management policy (see repro.data.DATA_POLICIES):
    #: "volatile" — every argument travels by value, nothing persists;
    #: "persistent" keeps zoom2 tarballs on the producing SeD (the client
    #: gets a handle); "replicated"/"broadcast" add replica creation on top
    #: of persistence.
    data_policy: str = "volatile"
    #: Estimate flow: "pull" (the paper's per-request MA→LA→SeD fan-out,
    #: kept byte-identical for every figure) or "push" (SeDs push deltas,
    #: agents materialize top-k tables, the MA batches admission).
    routing: str = "pull"


@dataclass(frozen=True)
class _DetachedSeD:
    """Name + timing knobs of a SeD, without the live serving machinery."""

    name: str
    params: "object"  # SeDParams — frozen dataclass of plain numbers


class DetachedDeployment:
    """Picklable stand-in for :class:`Deployment` on a finished campaign.

    A live deployment holds the engine, the transport fabric and every
    agent's generator state — none of which can cross a process boundary.
    Result *consumers* only ever read the tracer, the SeD roster and the
    cluster mapping, so :meth:`CampaignResult.detach` swaps the live stack
    for this snapshot; worker processes in the parallel experiment runner
    return detached results to the parent.
    """

    __slots__ = ("tracer", "seds", "sed_names", "_clusters")

    def __init__(self, deployment: Deployment):
        self.tracer = deployment.tracer
        self.seds = [_DetachedSeD(name=sed.name, params=sed.params)
                     for sed in deployment.seds]
        self.sed_names = [sed.name for sed in deployment.seds]
        self._clusters = {sed.name: deployment.cluster_of_sed(sed.name)
                          for sed in deployment.seds}

    def cluster_of_sed(self, sed_name: str) -> str:
        return self._clusters[sed_name]

    def __getstate__(self):
        return {slot: getattr(self, slot) for slot in self.__slots__}

    def __setstate__(self, state):
        for slot, value in state.items():
            setattr(self, slot, value)


@dataclass
class CampaignResult:
    """Outcome + every series the §5 evaluation reports."""

    config: CampaignConfig
    #: The live stack, or its picklable snapshot after :meth:`detach`.
    deployment: "Deployment | DetachedDeployment"
    part1_trace: RequestTrace
    part2_traces: List[RequestTrace]
    statuses: List[int]
    zoom_centers: List[Tuple[float, float, float]]
    #: Populated when the campaign ran with a FailurePlan.
    failure_report: Optional[FailureReport] = None
    #: Total application bytes that entered the network, and the subset
    #: that crossed a WAN (site-uplink) link — the e12 ablation's currency.
    net_bytes_total: int = 0
    net_bytes_wan: int = 0
    #: Snapshot of the data grid's counters (hits, misses, bytes moved /
    #: saved, replicas, ...).  A plain dict so detached results stay
    #: picklable.
    data_report: Dict[str, int] = field(default_factory=dict)

    # -- §5.2 headline numbers ---------------------------------------------------------

    @property
    def tracer(self):
        return self.deployment.tracer

    @property
    def part1_duration(self) -> float:
        return self.part1_trace.total_time or 0.0

    @property
    def completed_part2_traces(self) -> List[RequestTrace]:
        """Traces of attempts that ran to completion (in a degraded run,
        ``part2_traces`` also carries the aborted attempts)."""
        return [t for t in self.part2_traces if t.completed_at is not None]

    @property
    def part2_durations(self) -> List[float]:
        return [t.solve_duration for t in self.part2_traces
                if t.solve_duration is not None]

    @property
    def part2_mean_duration(self) -> float:
        d = self.part2_durations
        return float(np.mean(d)) if d else 0.0

    @property
    def total_elapsed(self) -> float:
        """Submit of part 1 to completion of the last sub-simulation."""
        ends = [t.completed_at for t in self.part2_traces
                if t.completed_at is not None]
        start = self.part1_trace.submitted_at or 0.0
        return (max(ends) - start) if ends else self.part1_duration

    @property
    def part2_makespan(self) -> float:
        """Makespan of the parallel section only (first zoom submit to last
        zoom completion) — the fair scheduler-comparison figure."""
        ends = [t.completed_at for t in self.part2_traces if t.completed_at]
        starts = [t.submitted_at for t in self.part2_traces if t.submitted_at]
        return max(ends) - min(starts)

    @property
    def sequential_estimate(self) -> float:
        """What the 101 simulations would cost run back to back (>141 h)."""
        part1 = self.part1_trace.solve_duration or 0.0
        return part1 + sum(self.part2_durations)

    @property
    def speedup(self) -> float:
        return self.sequential_estimate / self.total_elapsed

    # -- figure series --------------------------------------------------------------------
    #
    # One source: the always-on :class:`RequestTrace` records.  Spans (when
    # ``observe`` is on) are an export view of the same ``engine.now`` reads
    # — a test pins the stamp correspondence — not a second derivation.

    @property
    def obs(self) -> Observability:
        """The campaign's observability hub."""
        return self.tracer.obs

    def span_store(self) -> Optional[SpanStore]:
        """The campaign's span store for the ``--trace``/``--gantt-svg``/
        ``--profile`` exporters, or None when tracing was disabled."""
        obs = self.obs
        if obs.enabled and obs.spans.spans:
            return obs.spans
        return None

    def finding_times(self) -> List[float]:
        """Every part-2 attempt that got a SeD, plus the completed part-1
        run, in submission order."""
        return [t.finding_time for t in [self.part1_trace] + self.part2_traces
                if t.finding_time is not None]

    def latencies(self) -> List[float]:
        return [t.latency for t in self.part2_traces if t.latency is not None]

    # The Figure 4 series are the tracer's, filtered to the zoom service:
    # an attempt whose SeD died mid-solve has no solve window and no row.

    def requests_per_sed(self) -> Dict[str, int]:
        return self.tracer.requests_per_sed("ramsesZoom2")

    def busy_time_per_sed(self) -> Dict[str, float]:
        return self.tracer.busy_time_per_sed("ramsesZoom2")

    def gantt(self) -> Dict[str, List[Tuple[float, float, int]]]:
        return self.tracer.gantt("ramsesZoom2")

    @property
    def overhead_per_request(self) -> List[float]:
        """Finding time + service initiation, §5.2's ~70.6 ms figure.

        Initiation is the SeD's job-slot-grant → solve-start interval (queue
        wait excluded, as the paper does); attempts whose initiation never
        finished count the configured ``service_init_time``.
        """
        default_init = self.deployment.seds[0].params.service_init_time
        out = []
        for t in self.part2_traces:
            if t.finding_time is None:
                continue
            init = t.initiation_time
            if init is None:
                init = default_init
            out.append(t.finding_time + init)
        return out

    # -- process-boundary support ------------------------------------------------------

    def detach(self) -> "CampaignResult":
        """Replace the live deployment with a picklable snapshot (in place).

        The engine, fabric and agent generators cannot be pickled (nor is
        there any reason to ship them between processes); everything the
        result accessors read — tracer, SeD roster, cluster mapping —
        survives in the :class:`DetachedDeployment`.  Returns ``self`` so
        worker functions can ``return run_campaign(cfg).detach()``.
        Idempotent: detaching a detached result is a no-op.
        """
        if not isinstance(self.deployment, DetachedDeployment):
            self.deployment = DetachedDeployment(self.deployment)
        return self


def synthetic_zoom_centers(n: int, seed: int) -> List[Tuple[float, float, float]]:
    """Deterministic halo-like centres for MODELED campaigns."""
    rng = RandomStreams(seed).get("halo-centers")
    pts = rng.random((n, 3))
    return [tuple(p) for p in pts]


def _check_solved(what: str, handle: FunctionHandle, status: int) -> None:
    """Raise on a non-zero solve status, saying which request failed where
    and why — before any result decoding trips over the unset OUT values."""
    if status != 0:
        raise RuntimeError(
            f"{what} failed: request {handle.request_id} on {handle.server} "
            f"returned status {status}: {handle.error}")


def run_campaign(config: Optional[CampaignConfig] = None) -> CampaignResult:
    """Build the §5.1 stack and execute the two-part campaign."""
    config = config or CampaignConfig()
    engine = Engine()
    platform = build_grid5000(
        engine,
        cluster_specs=list(config.cluster_specs) if config.cluster_specs else None)

    policy: SchedulerPolicy
    if config.policy == "random":
        policy = make_policy("random",
                             rng=RandomStreams(config.seed).get("policy"))
    else:
        policy = make_policy(config.policy)

    plan = config.failures
    agent_params = None
    if plan is not None:
        agent_params = AgentParams(
            heartbeat_interval=plan.heartbeat_interval,
            heartbeat_timeout=plan.heartbeat_timeout,
            heartbeat_miss_threshold=plan.heartbeat_miss_threshold)
    obs = Observability(enabled=config.observe)
    data_config = campaign_data_config(config.data_policy)
    keep_results = policy_keeps_results(config.data_policy)
    deployment = deploy_paper_hierarchy(platform, policy=policy,
                                        agent_params=agent_params, obs=obs,
                                        data=data_config,
                                        routing=config.routing)

    workdir = config.workdir
    cleanup_dir = None
    if config.mode is ExecutionMode.REAL and workdir is None:
        cleanup_dir = tempfile.TemporaryDirectory(prefix="ramses-campaign-")
        workdir = cleanup_dir.name
    service_config = RamsesServiceConfig(
        mode=config.mode, perf=RamsesPerfModel(seed=config.seed),
        workdir=workdir, real_n_steps=config.real_n_steps,
        real_a_end=config.real_a_end, seed=config.seed,
        checkpoint_interval_work=(
            plan.checkpoint_interval_work if plan is not None else None),
        # Degraded campaigns under a persistence-keeping policy publish
        # checkpoints to the replica catalog so a resumed attempt on another
        # cluster can pull them across the WAN instead of restarting.
        checkpoint_catalog=(plan is not None and keep_results))
    service = register_ramses_services(deployment, service_config,
                                       with_predictor=config.with_predictor)
    deployment.launch_all()

    injector: Optional[FailureInjector] = None
    if plan is not None and plan.n_crashes > 0:
        rng = RandomStreams(config.seed).get("outages")
        injector = FailureInjector(engine)
        n = min(plan.n_crashes, len(deployment.seds))
        lo, hi = plan.crash_window
        victims = rng.choice(len(deployment.seds), size=n, replace=False)
        for idx in victims:
            at = float(rng.uniform(lo, hi))
            downtime = max(60.0, float(rng.exponential(plan.mean_downtime)))
            injector.schedule(deployment.seds[int(idx)],
                              [Outage(at=at, duration=downtime)])

    client = deployment.client
    assert client is not None
    # The namelist shipped with every request carries the run parameters the
    # SeDs honour in REAL mode; MODELED mode keeps the production-scale ones.
    if config.mode is ExecutionMode.REAL:
        namelist = default_namelist_text(config.resolution,
                                         config.boxsize_mpc_h,
                                         a_end=config.real_a_end,
                                         n_steps=config.real_n_steps)
    else:
        namelist = default_namelist_text(config.resolution,
                                         config.boxsize_mpc_h)

    part1_profile = build_zoom1_profile(namelist, config.resolution,
                                        config.boxsize_mpc_h)
    part2_profiles = []
    outcome: Dict[str, object] = {}
    #: Client-side resubmission budget: a single attempt on the happy path.
    retry = ({"max_attempts": plan.max_solve_attempts,
              "backoff": plan.retry_backoff} if plan is not None else {})

    def campaign():
        client.initialize({"MA_name": deployment.ma.name})
        camp_span = part_span = None
        if obs.enabled:
            camp_span = obs.spans.begin(
                "campaign", "campaign", engine.now, "campaign",
                seed=config.seed, policy=config.policy,
                n_sub_simulations=config.n_sub_simulations)
            part_span = obs.spans.begin("campaign", "part1", engine.now,
                                        "part")
        # ---- part 1: the low-resolution full box --------------------------------
        handle1 = client.function_handle(part1_profile.path)
        status1 = yield from client.call_retry(part1_profile, handle1, **retry)
        _check_solved("part 1", handle1, status1)
        error1, catalog_ref = decode_zoom1(part1_profile)
        if error1 != 0:
            raise RuntimeError(f"part 1 failed: status={status1} error={error1}")
        if obs.enabled:
            obs.spans.end(part_span, engine.now)
            part_span = obs.spans.begin("campaign", "part2", engine.now,
                                        "part")

        # ---- choose zoom targets from the halo catalog ---------------------------
        centers: List[Tuple[float, float, float]]
        if (config.mode is ExecutionMode.REAL and catalog_ref is not None
                and catalog_ref.local_path):
            from ..galics.catalogs import read_halo_catalog
            catalog = read_halo_catalog(catalog_ref.local_path)
            halo_centers = [tuple(h.center) for h in catalog]
            if not halo_centers:
                raise RuntimeError("part 1 found no halos to re-simulate")
            centers = [halo_centers[i % len(halo_centers)]
                       for i in range(config.n_sub_simulations)]
        else:
            centers = synthetic_zoom_centers(config.n_sub_simulations,
                                             config.seed)
        outcome["centers"] = centers

        # ---- part 2: the simultaneous sub-simulations ------------------------------
        requests: List[AsyncRequest] = []
        for center in centers:
            profile = build_zoom2_profile(
                namelist, config.resolution, config.boxsize_mpc_h, center,
                config.n_zoom_levels,
                result_persistence=(PersistenceMode.PERSISTENT
                                    if keep_results else None))
            part2_profiles.append(profile)
            requests.append(client.call_async(profile, **retry))
        yield from client.wait_all()
        outcome["statuses"] = [r.process.value for r in requests]
        for request in requests:
            _check_solved("sub-simulation", request.handle,
                          request.process.value)
        if obs.enabled:
            obs.spans.end(part_span, engine.now)
            obs.spans.end(camp_span, engine.now)

    if plan is not None:
        # Heartbeat monitors (and any still-pending restart) keep the event
        # queue alive forever; run until the campaign itself completes.
        engine.run_until_complete(campaign())
    else:
        engine.run_process(campaign())
    if cleanup_dir is not None:
        cleanup_dir.cleanup()
    # End-of-run sweep: close anything a failure path left open (status
    # "lost").
    obs.finalize(engine.now)

    # Collect traces: part 1 is the first trace, part 2 the rest.  Under a
    # FailurePlan a resubmitted call leaves one trace per attempt; the
    # completed one carries the part-1 numbers.
    all_traces = deployment.tracer.all_traces()
    zoom1_traces = [t for t in all_traces if t.service == "ramsesZoom1"]
    part1_trace = next((t for t in zoom1_traces if t.completed_at is not None),
                       zoom1_traces[0])
    part2_traces = [t for t in all_traces if t.service == "ramsesZoom2"]
    statuses = list(outcome.get("statuses", []))
    for profile in part2_profiles:
        result = decode_zoom2(profile)
        if not result.succeeded:
            raise RuntimeError(f"sub-simulation failed: error={result.error}")

    failure_report = None
    if plan is not None:
        stats = service.fault_stats
        deregs = [name for la in deployment.local_agents
                  for name in la.deregistrations]
        recoveries = [child for la in deployment.local_agents
                      if la.heartbeat is not None
                      for child, _t in la.heartbeat.recoveries]
        failure_report = FailureReport(
            outages=list(injector.history) if injector is not None else [],
            resubmissions=client.resubmissions,
            work_lost=stats.work_lost,
            work_recovered=stats.work_recovered,
            checkpoints_written=stats.checkpoints_written,
            restarts_from_checkpoint=stats.restarts_from_checkpoint,
            restarts_from_scratch=stats.restarts_from_scratch,
            deregistrations=deregs,
            recoveries=recoveries)
    return CampaignResult(config=config, deployment=deployment,
                          part1_trace=part1_trace, part2_traces=part2_traces,
                          statuses=statuses,
                          zoom_centers=list(outcome.get("centers", [])),
                          failure_report=failure_report,
                          net_bytes_total=platform.network.bytes_total,
                          net_bytes_wan=platform.network.bytes_wan,
                          data_report=deployment.data_grid.stats.as_dict())


def run_campaign_detached(config: Optional[CampaignConfig] = None) -> CampaignResult:
    """Run a campaign and detach the result — the worker-process entry point
    the parallel experiment runner maps over (module-level, so picklable)."""
    return run_campaign(config).detach()

"""E13 — federated load sweep: saturation throughput and tail latency.

The production analogue of Figure 5.  A multi-MA federation
(:mod:`repro.core.federation`) is driven by an open-loop Poisson stream
(:mod:`repro.sim.traffic`) of heterogeneous requests from a Zipf-skewed
client population, with SeD churn injected mid-run.  Each load point
reports what a capacity plan needs: achieved throughput (completed
requests over the makespan — past saturation this flattens at capacity
while offered load keeps climbing), P50/P99 finding time (submit →
winning MA reply, inter-MA redirects included) and P50/P99 end-to-end
latency, per routing mode.  ``peak_heap`` is the event-heap high-water
mark: a parked submit must leave no timer behind once it is admitted, so
it stays near the standing process count whatever the arrival count.

With ``memo="on"`` the sweep additionally exercises grid-wide result
memoization (:mod:`repro.data.memo`): clients key each request on its
canonical descriptor, the OUT argument becomes ``PERSISTENT_RETURN`` so
solved results stay on the owning SeD, and repeated requests from the
Zipf-skewed population short-circuit to catalog hits instead of solves.
Each point then also reports hit/miss/invalidation counts, so the report
shows hit rate rising with Zipf skew ``s`` and finding time falling at
high skew.  With ``memo="off"`` the clients send no key and every OUT is
VOLATILE, so the federation's memo index is never consulted.

Every point is a pure function of its arguments, so the sweep runs under
``--jobs`` with byte-identical results, and the same seed reruns
bit-identically with observability on or off.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.agent import ROUTING_MODES, AgentParams
from ..core.client import DietClient, FunctionHandle
from ..core.data import BaseType, PersistenceMode, scalar_desc
from ..core.exceptions import CommunicationError, ServerNotFoundError
from ..core.federation import (
    ChurnPlan,
    FederationConfig,
    build_federation,
    schedule_churn,
)
from ..core.profile import ProfileDesc
from ..obs import Observability
from ..sim.engine import Engine
from ..sim.rng import RandomStreams
from ..sim.traffic import DEFAULT_MIX, TrafficConfig, generate_arrivals, percentile
from .report import ascii_table, ms, sec
from .runner import Task, run_tasks

__all__ = ["LoadPoint", "LoadResult", "DEFAULT_LOADS", "run", "render"]

#: Offered loads (requests/s) swept by default; the default platform
#: (2 grids x 2 clusters = 6 SeDs, ~1.2 s mean solve) saturates near the
#: middle of the range.
DEFAULT_LOADS: Tuple[float, ...] = (2.0, 4.0, 8.0, 16.0)

#: Seconds between event-heap high-water-mark samples.
_HEAP_SAMPLE_PERIOD = 0.5


@dataclass(frozen=True)
class LoadPoint:
    """One (routing, offered load) measurement."""

    routing: str
    offered: float
    duration: float
    n_arrivals: int
    completed: int
    failed: int
    rejected: int
    redirects: int
    makespan: float
    throughput: float
    find_p50: float
    find_p99: float
    latency_p50: float
    latency_p99: float
    peak_heap: int
    events: int
    #: Zipf skew of the client population and whether memoization ran;
    #: defaulted so memo-off points pickle-compare against older sweeps.
    zipf_s: float = 1.1
    memo: str = "off"
    memo_hits: int = 0
    memo_misses: int = 0
    memo_invalidations: int = 0
    memo_fallbacks: int = 0
    #: Span store when the point ran with observability (None otherwise);
    #: excluded from equality so observe on/off results compare equal.
    span_store: Any = field(default=None, compare=False)

    @property
    def hit_rate(self) -> float:
        total = self.memo_hits + self.memo_misses
        return self.memo_hits / total if total else 0.0


@dataclass
class LoadResult:
    """The full sweep: every (routing, load) point plus its shape."""

    loads: Tuple[float, ...]
    routings: Tuple[str, ...]
    duration: float
    n_clients: int
    n_grids: int
    clusters_per_grid: int
    churn: int
    zipf: Tuple[float, ...] = (1.1,)
    memo: str = "off"
    runs: List[LoadPoint] = field(default_factory=list)

    def points(self, routing: str) -> List[LoadPoint]:
        return [p for p in self.runs if p.routing == routing]

    def saturation(self, routing: str) -> float:
        """Best achieved throughput across the sweep (requests/s)."""
        points = self.points(routing)
        return max(p.throughput for p in points) if points else 0.0


def _service_desc(name: str, memo: bool = False) -> ProfileDesc:
    desc = ProfileDesc(name, 0, 0, 1)
    desc.set_arg(0, scalar_desc(BaseType.INT))
    # Memoized runs persist the result on the owning SeD so later hits
    # can fetch it; VOLATILE outputs are never memoized by design.
    out_mode = (PersistenceMode.PERSISTENT_RETURN if memo
                else PersistenceMode.VOLATILE)
    desc.set_arg(1, scalar_desc(BaseType.INT, out_mode))
    return desc


def _make_solver(work: float):
    def solve(profile, ctx):
        yield from ctx.execute(work)
        profile.parameter(1).set(0)
        return 0

    return solve


def _run_point(routing: str, offered: float, duration: float,
               n_clients: int, n_grids: int, clusters_per_grid: int,
               churn: int, seed: int, observe: bool = False,
               zipf_s: float = 1.1, memo: str = "off") -> LoadPoint:
    """One load point, a pure function of its arguments (worker-safe)."""
    memo_on = memo == "on"
    engine = Engine()
    obs = Observability() if observe else None
    agent_params = (AgentParams(heartbeat_interval=1.0) if churn > 0
                    else AgentParams())
    federation = build_federation(
        engine,
        FederationConfig(n_grids=n_grids,
                         clusters_per_grid=clusters_per_grid,
                         routing=routing, agent_params=agent_params,
                         # E13's published numbers predate per-grid client
                         # hosts: pin the legacy shared-core placement so
                         # the sweep stays byte-identical (E14 exercises
                         # the priced per-grid placement).
                         client_placement="core"),
        obs=obs)
    for cls in DEFAULT_MIX:
        federation.add_service_everywhere(
            lambda name=cls.name: _service_desc(name, memo_on),
            _make_solver(cls.work))
    federation.launch_all()

    streams = RandomStreams(seed)
    arrivals = generate_arrivals(
        TrafficConfig(rate=offered, duration=duration, n_clients=n_clients,
                      zipf_s=zipf_s),
        streams)
    if churn > 0:
        schedule_churn(
            federation,
            ChurnPlan(n_outages=churn, start=duration * 0.25,
                      end=duration * 0.75),
            streams)

    clients = [DietClient(federation.fabric, federation.client_host,
                          name=f"fedcli{g}", tracer=federation.tracer,
                          memo_enabled=memo_on)
               for g in range(n_grids)]
    for g, client in enumerate(clients):
        client.initialize({"MA_name": federation.ma_order(g)})
    descs = {cls.name: _service_desc(cls.name, memo_on)
             for cls in DEFAULT_MIX}

    stats: Dict[str, int] = {"completed": 0, "failed": 0, "rejected": 0}
    finds: List[float] = []
    latencies: List[float] = []

    def one_request(arrival):
        profile = descs[arrival.request_class.name].instantiate()
        # Memoized runs key the input on the client id: the Zipf-skewed
        # population then repeats identical requests, and skew controls
        # how often the grid has seen a request before.
        profile.parameter(0).set(arrival.client if memo_on else 1)
        profile.parameter(1).set(None)
        started = engine.now
        client = clients[arrival.client % len(clients)]
        handle = FunctionHandle(profile.path)
        try:
            status = yield from client.call(profile, handle)
        except ServerNotFoundError:
            stats["rejected"] += 1
            return
        except CommunicationError:
            stats["failed"] += 1  # SeD died mid-solve, job lost
            return
        finds.append(handle.found_at - started)
        latencies.append(engine.now - started)
        if status == 0:
            stats["completed"] += 1
        else:
            stats["failed"] += 1

    peak = {"heap": 0}

    def heap_monitor():
        while True:
            peak["heap"] = max(peak["heap"], len(engine._queue))
            yield engine.timeout(_HEAP_SAMPLE_PERIOD)

    def drive():
        procs = []
        for arrival in arrivals:
            delay = arrival.at - engine.now
            if delay > 0:
                yield engine.timeout(delay)
            procs.append(engine.process(one_request(arrival)))
        if procs:
            yield engine.all_of(procs)

    engine.process(heap_monitor(), name="heap-monitor")
    # run_until_complete: heartbeats and the monitor never finish.
    engine.run_until_complete(drive())
    makespan = engine.now

    memo_stats = federation.memo.stats
    return LoadPoint(
        routing=routing, offered=offered, duration=duration,
        n_arrivals=len(arrivals), completed=stats["completed"],
        failed=stats["failed"], rejected=stats["rejected"],
        redirects=sum(c.redirects for c in clients),
        makespan=makespan,
        throughput=stats["completed"] / makespan if makespan > 0 else 0.0,
        find_p50=percentile(finds, 50.0) if finds else float("nan"),
        find_p99=percentile(finds, 99.0) if finds else float("nan"),
        latency_p50=percentile(latencies, 50.0) if latencies else float("nan"),
        latency_p99=percentile(latencies, 99.0) if latencies else float("nan"),
        peak_heap=peak["heap"], events=engine.events_scheduled,
        zipf_s=zipf_s, memo=memo,
        memo_hits=memo_stats.hits, memo_misses=memo_stats.misses,
        memo_invalidations=memo_stats.invalidations,
        memo_fallbacks=sum(c.memo_fallbacks for c in clients),
        span_store=obs.spans if obs is not None else None)


def run(loads: Sequence[float] = DEFAULT_LOADS,
        routings: Sequence[str] = ROUTING_MODES,
        duration: float = 60.0, n_clients: int = 1000,
        n_grids: int = 2, clusters_per_grid: int = 2, churn: int = 2,
        seed: int = 2007, jobs: Optional[int] = None,
        observe: bool = False, zipf: Sequence[float] = (1.1,),
        memo: str = "off") -> LoadResult:
    """Sweep every (routing, zipf, load) point; parallel == serial.

    ``jobs`` fans the points over worker processes; each point is a pure
    function of its arguments, so results are identical in task order.
    ``memo="on"`` makes the clients send memo keys and the results
    persist; ``zipf`` sweeps the client-population skew (task keys gain
    the skew only when several are swept).
    """
    if memo not in ("on", "off"):
        raise ValueError(f"memo must be 'on' or 'off', got {memo!r}")
    # Every point gets the same seed on purpose: the arms are compared on
    # common random numbers.
    points = run_tasks(
        [Task(key=(f"{routing}@{load:g}" if len(zipf) == 1
                   else f"{routing}@{load:g}@s{z:g}"),
              func=_run_point,
              args=(routing, float(load), float(duration), n_clients,
                    n_grids, clusters_per_grid, churn, seed, observe,
                    float(z), memo))
         for routing in routings for z in zipf for load in loads], jobs=jobs)
    return LoadResult(loads=tuple(float(l) for l in loads),
                      routings=tuple(routings), duration=float(duration),
                      n_clients=n_clients, n_grids=n_grids,
                      clusters_per_grid=clusters_per_grid, churn=churn,
                      zipf=tuple(float(z) for z in zipf), memo=memo,
                      runs=points)


def render(result: LoadResult) -> str:
    memo_on = result.memo == "on"
    multi_z = len(result.zipf) > 1
    lines = [
        f"E13 - federated load sweep: {result.n_grids} grids x "
        f"{result.clusters_per_grid} clusters, {result.n_clients} clients "
        f"(Zipf), {result.churn} SeD outages, {result.duration:g}s of "
        f"open-loop arrivals",
    ]
    if memo_on:
        lines.append("memoization: on (canonical request descriptors, "
                     "PERSISTENT results)")
    headers = ["offered/s", "arrived", "done", "rej", "lost", "redir",
               "thrpt/s", "find p50", "find p99", "lat p50", "lat p99",
               "peak heap"]
    if multi_z:
        headers.insert(1, "zipf s")
    if memo_on:
        headers.append("hit%")
    for routing in result.routings:
        rows = []
        for p in result.points(routing):
            row = [f"{p.offered:g}", p.n_arrivals, p.completed,
                   p.rejected, p.failed, p.redirects,
                   f"{p.throughput:.2f}",
                   ms(p.find_p50), ms(p.find_p99),
                   sec(p.latency_p50), sec(p.latency_p99),
                   p.peak_heap]
            if multi_z:
                row.insert(1, f"{p.zipf_s:g}")
            if memo_on:
                row.append(f"{p.hit_rate * 100:.1f}")
            rows.append(tuple(row))
        lines.append("")
        lines.append(f"routing={routing}")
        lines.append(ascii_table(tuple(headers), rows))
    lines.append("")
    for routing in result.routings:
        lines.append(f"{routing} saturation throughput: "
                     f"{result.saturation(routing):.2f} requests/s")
    redirected = sum(p.redirects for p in result.runs)
    lines.append(f"inter-MA redirects across the sweep: {redirected}")
    if memo_on:
        lines.append("")
        for routing in result.routings:
            for z in result.zipf:
                pts = [p for p in result.points(routing)
                       if p.zipf_s == z]
                hits = sum(p.memo_hits for p in pts)
                misses = sum(p.memo_misses for p in pts)
                inval = sum(p.memo_invalidations for p in pts)
                fallbacks = sum(p.memo_fallbacks for p in pts)
                rate = hits / (hits + misses) if hits + misses else 0.0
                lines.append(
                    f"{routing} memo at zipf s={z:g}: "
                    f"hit rate {rate * 100:.1f}% "
                    f"({hits} hits / {misses} misses, "
                    f"{inval} invalidations, {fallbacks} fallbacks)")
    return "\n".join(lines)

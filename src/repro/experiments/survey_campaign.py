"""E14 — survey campaign: parameter-survey DAGs over a federation.

The campaign the follow-up work runs on the paper's platform: a cartesian
grid of cosmologies (:mod:`repro.survey.grid`), each point an IC→run→
lensing chain folded by a pairwise reduction tree
(:mod:`repro.survey.pipeline`), executed as a client-side DAG of DIET
requests (:mod:`repro.survey.dag`) against a two-grid federation — while
a stream of interactive ``ramsesZoom2`` requests shares the SeDs, the
paper's §4.3 workload riding along as background load.

Two clients (one per grid, placed on the priced per-grid client hosts)
run the *same* cosmology grid back to back: the second client's DAG is
the duplicated-cosmology leg, and under the persisting data policies the
federation-wide memo short-circuits its whole subtree — nonzero hit rate
is an acceptance criterion, not an accident.

Three ablations cross to form the arms:

* routing: ``pull`` vs ``push`` (E12's protocol choice, now under DAGs);
* scheduler: ``default`` herd vs ``mct`` with per-service CoRI
  predictors registered by the lensing and RAMSES services;
* data policy: ``volatile`` (every product round-trips through the
  client) vs ``persistent`` (PERSISTENT handles, bytes move SeD-to-SeD)
  vs ``replicated`` (persistent + per-cluster replicas).

Each arm reports makespan, per-stage P50/P99 durations, WAN bytes (the
quantity the data policies exist to minimize), memo hits and DAG
executor accounting.  Every arm is a pure function of its arguments:
``--jobs`` fan-out, reruns and observe-on/off are byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.client import DietClient
from ..core.exceptions import CommunicationError, ServerNotFoundError
from ..core.federation import FederationConfig, build_federation
from ..data import campaign_data_config
from ..obs import Observability
from ..services.lensing_service import LensingServiceConfig, register_survey_services
from ..services.ramses_client import build_zoom2_profile, default_namelist_text
from ..services.ramses_service import RamsesServiceConfig, register_ramses_services
from ..sim.engine import Engine
from ..sim.traffic import percentile
from ..survey.batch import SurveyBatch
from ..survey.dag import DagExecutor
from ..survey.grid import ParameterGrid
from ..survey.pipeline import build_survey_dag
from .report import ascii_table, mib, sec
from .runner import Task, run_tasks

__all__ = [
    "DEFAULT_DATA_POLICIES",
    "DEFAULT_POLICIES",
    "DEFAULT_ROUTINGS",
    "SurveyArm",
    "SurveyResult",
    "render",
    "run",
    "write_batches",
]

DEFAULT_ROUTINGS: Tuple[str, ...] = ("pull", "push")
#: ``default`` is the paper's herd scheduler; ``mct`` consumes the CoRI
#: ``EST_TCOMP`` predictors the survey services register.
DEFAULT_POLICIES: Tuple[str, ...] = ("default", "mct")
DEFAULT_DATA_POLICIES: Tuple[str, ...] = ("volatile", "persistent",
                                          "replicated")

#: Background-load zoom requests run at a smaller resolution than the
#: paper's 128^3 so they load the SeDs without dwarfing the survey.
_ZOOM_RESOLUTION = 32
_ZOOM_BOXSIZE = 100
_ZOOM_LEVELS = 2
#: Seconds between zoom submissions (each runs concurrently).
_ZOOM_INTERVAL = 20.0
#: DAG nodes each survey client keeps in flight.
_MAX_IN_FLIGHT = 4

#: The swept axes: matter density and clustering amplitude, the classic
#: lensing-degeneracy plane; the other four parameters stay at the base.
_OMEGA_M_BASE = 0.24
_OMEGA_M_STEP = 0.02
_SIGMA8_BASE = 0.75
_SIGMA8_STEP = 0.05


@dataclass(frozen=True)
class SurveyArm:
    """One (routing, policy, data policy) campaign measurement."""

    routing: str
    policy: str
    data: str
    points: int
    nodes: int
    completed: int
    launched: int
    retries: int
    dead_letters: int
    dep_refreshes: int
    zooms_done: int
    makespan: float
    #: (stage, samples, p50 seconds, p99 seconds) per pipeline stage.
    stage_stats: Tuple[Tuple[str, int, float, float], ...]
    memo_hits: int
    memo_misses: int
    memo_invalidations: int
    redirects: int
    rejections: int
    bytes_wan: int
    bytes_total: int
    data_moved: int
    data_saved: int
    events: int
    #: (point label, stage, node id, product) for client 0's DAG in
    #: insertion order — what ``write_batches`` files under the
    #: LensTools-style home/storage tree.
    products: Tuple[Tuple[str, str, str, Any], ...] = ()
    #: Span store when the arm ran with observability (None otherwise);
    #: excluded from equality so observe on/off results compare equal.
    span_store: Any = field(default=None, compare=False)

    @property
    def hit_rate(self) -> float:
        total = self.memo_hits + self.memo_misses
        return self.memo_hits / total if total else 0.0


@dataclass
class SurveyResult:
    """The full campaign: every ablation arm plus its shape."""

    routings: Tuple[str, ...]
    policies: Tuple[str, ...]
    data_policies: Tuple[str, ...]
    shape: Tuple[int, int]
    resolution: int
    n_planes: int
    z_source: float
    zooms: int
    n_grids: int
    clusters_per_grid: int
    seed: int
    runs: List[SurveyArm] = field(default_factory=list)

    def arm(self, routing: str, policy: str, data: str
            ) -> Optional[SurveyArm]:
        for run_ in self.runs:
            if (run_.routing, run_.policy, run_.data) == (routing, policy,
                                                          data):
                return run_
        return None


def _survey_grid(shape: Tuple[int, int]) -> ParameterGrid:
    """The campaign's cosmology grid: ``shape[0] x shape[1]`` points in
    the (omega_m, sigma8) plane, derived deterministically from shape."""
    nx, ny = shape
    return ParameterGrid.cartesian({
        "omega_m": tuple(round(_OMEGA_M_BASE + _OMEGA_M_STEP * i, 6)
                         for i in range(nx)),
        "sigma8": tuple(round(_SIGMA8_BASE + _SIGMA8_STEP * j, 6)
                        for j in range(ny)),
    })


def _zoom_center(index: int) -> Tuple[float, float, float]:
    """Deterministic distinct zoom centres (Mpc/h inside the 100 box)."""
    return (float(5 + (17 * index) % 90),
            float(5 + (29 * index) % 90),
            float(5 + (41 * index) % 90))


def _run_arm(routing: str, policy: str, data_policy: str,
             shape: Tuple[int, int], resolution: int, n_planes: int,
             z_source: float, zooms: int, n_grids: int,
             clusters_per_grid: int, seed: int,
             observe: bool = False) -> SurveyArm:
    """One campaign arm, a pure function of its arguments (worker-safe)."""
    engine = Engine()
    obs = Observability() if observe else None
    federation = build_federation(
        engine,
        FederationConfig(n_grids=n_grids,
                         clusters_per_grid=clusters_per_grid,
                         routing=routing,
                         policy=None if policy == "default" else policy,
                         data=campaign_data_config(data_policy),
                         client_placement="per-grid"),
        obs=obs)
    with_predictor = policy == "mct"
    register_survey_services(
        federation.seds,
        LensingServiceConfig(predict_resolution=resolution,
                             predict_n_planes=n_planes),
        with_predictor=with_predictor)
    # Federation quacks like a Deployment here (both expose .seds).
    register_ramses_services(federation, RamsesServiceConfig(),
                             with_predictor=with_predictor)
    federation.launch_all()

    grid = _survey_grid(shape)
    clients = [DietClient(federation.fabric, federation.client_host_for(g),
                          name=f"surveycli{g}", tracer=federation.tracer,
                          memo_enabled=True)
               for g in range(n_grids)]
    for g, client in enumerate(clients):
        client.initialize({"MA_name": federation.ma_order(g)})
    # Both clients run the same grid with the same realization seed: the
    # later clients' chains are the duplicated-cosmology leg that should
    # answer from the federation-wide memo under persisting policies.
    executors = [
        DagExecutor(client,
                    build_survey_dag(grid, resolution=resolution,
                                     n_planes=n_planes, z_source=z_source,
                                     data_policy=data_policy,
                                     realization_seed=seed,
                                     name=f"survey-c{g}"),
                    max_in_flight=_MAX_IN_FLIGHT)
        for g, client in enumerate(clients)]

    zoom_client = DietClient(federation.fabric, federation.client_host_for(0),
                             name="zoomcli", tracer=federation.tracer)
    zoom_client.initialize({"MA_name": federation.ma_names})
    stats: Dict[str, int] = {"zooms": 0}

    def one_zoom(index: int):
        profile = build_zoom2_profile(
            default_namelist_text(_ZOOM_RESOLUTION, _ZOOM_BOXSIZE),
            _ZOOM_RESOLUTION, _ZOOM_BOXSIZE, _zoom_center(index),
            _ZOOM_LEVELS)
        try:
            status = yield from zoom_client.call(profile)
        except (ServerNotFoundError, CommunicationError):
            return
        if status == 0:
            stats["zooms"] += 1

    def zoom_stream():
        procs = []
        for index in range(zooms):
            procs.append(engine.process(one_zoom(index),
                                        name=f"zoom:{index}"))
            if index + 1 < zooms:
                yield engine.timeout(_ZOOM_INTERVAL)
        if procs:
            yield engine.all_of(procs)

    def survey_stream():
        # Sequential clients pin the memo-hit pattern: client 0 populates,
        # client 1 replays the identical grid.
        for executor in executors:
            yield from executor.run()

    def drive():
        procs = [engine.process(survey_stream(), name="surveys")]
        if zooms > 0:
            procs.append(engine.process(zoom_stream(), name="zooms"))
        yield engine.all_of(procs)

    # run_until_complete: agent heartbeats never finish.
    engine.run_until_complete(drive())
    makespan = engine.now

    durations: Dict[str, List[float]] = {}
    for executor in executors:
        for stage, values in executor.stage_durations.items():
            durations.setdefault(stage, []).extend(values)
    stage_stats = tuple(
        (stage, len(values), percentile(values, 50.0),
         percentile(values, 99.0))
        for stage, values in durations.items())

    dag0 = executors[0].dag
    products = tuple(
        (node.point or "survey", node.stage, node.node_id,
         executors[0].results[node.node_id].product)
        for node in dag0 if node.node_id in executors[0].results)

    memo_stats = federation.memo.stats
    grid_stats = federation.data_grid.stats
    network = federation.platform.network
    return SurveyArm(
        routing=routing, policy=policy, data=data_policy,
        points=len(grid),
        nodes=sum(executor.stats.nodes for executor in executors),
        completed=sum(executor.stats.completed for executor in executors),
        launched=sum(executor.stats.launched for executor in executors),
        retries=sum(executor.stats.retries for executor in executors),
        dead_letters=sum(e.stats.dead_letters for e in executors),
        dep_refreshes=sum(e.stats.dep_refreshes for e in executors),
        zooms_done=stats["zooms"], makespan=makespan,
        stage_stats=stage_stats,
        memo_hits=memo_stats.hits, memo_misses=memo_stats.misses,
        memo_invalidations=memo_stats.invalidations,
        redirects=sum(c.redirects for c in clients) + zoom_client.redirects,
        rejections=(sum(c.rejections for c in clients)
                    + zoom_client.rejections),
        bytes_wan=network.bytes_wan, bytes_total=network.bytes_total,
        data_moved=grid_stats.bytes_moved, data_saved=grid_stats.bytes_saved,
        events=engine.events_scheduled,
        products=products,
        span_store=obs.spans if obs is not None else None)


def run(routings: Sequence[str] = DEFAULT_ROUTINGS,
        policies: Sequence[str] = DEFAULT_POLICIES,
        data_policies: Sequence[str] = DEFAULT_DATA_POLICIES,
        shape: Tuple[int, int] = (3, 3), resolution: int = 64,
        n_planes: int = 8, z_source: float = 1.0, zooms: int = 4,
        n_grids: int = 2, clusters_per_grid: int = 3, seed: int = 2007,
        jobs: Optional[int] = None, observe: bool = False) -> SurveyResult:
    """Run every (routing, policy, data policy) arm; parallel == serial.

    ``jobs`` fans the arms over worker processes; each arm is a pure
    function of its arguments, so results are identical in task order.
    ``clusters_per_grid`` defaults to 3 (not E13's 2) so each grid spans
    two sites — the catalogue's first two clusters are both at Lyon, and
    without the Lille cluster no survey transfer would ever cross a WAN
    uplink, flattening the data-policy ablation.
    """
    for data_policy in data_policies:
        # Fail fast on typos before any worker spins up.
        campaign_data_config(data_policy)
    # Every arm gets the same seed on purpose: the ablations are compared
    # on common random numbers.
    arms = run_tasks(
        [Task(key=f"{routing}/{policy}/{data_policy}", func=_run_arm,
              args=(routing, policy, data_policy,
                    (int(shape[0]), int(shape[1])), int(resolution),
                    int(n_planes), float(z_source), int(zooms),
                    int(n_grids), int(clusters_per_grid), int(seed), observe))
         for routing in routings for policy in policies
         for data_policy in data_policies], jobs=jobs)
    return SurveyResult(routings=tuple(routings), policies=tuple(policies),
                        data_policies=tuple(data_policies),
                        shape=(int(shape[0]), int(shape[1])),
                        resolution=int(resolution), n_planes=int(n_planes),
                        z_source=float(z_source), zooms=int(zooms),
                        n_grids=int(n_grids),
                        clusters_per_grid=int(clusters_per_grid),
                        seed=int(seed), runs=arms)


def write_batches(result: SurveyResult, root: str) -> List[str]:
    """Materialize each arm's client-0 products as a survey batch tree.

    Returns the manifest paths, one per arm.
    """
    grid = _survey_grid(result.shape)
    by_label = {point.label: point for point in grid}
    manifests = []
    for arm in result.runs:
        batch = SurveyBatch(root,
                            name=f"{arm.routing}-{arm.policy}-{arm.data}")
        for point in grid:
            batch.init_point(point)
        for label, stage, _node_id, product in arm.products:
            batch.record_product(by_label.get(label, label), stage, product)
        manifests.append(batch.write_manifest())
    return manifests


def _stage(arm: SurveyArm, stage: str) -> Tuple[float, float]:
    for name, _count, p50, p99 in arm.stage_stats:
        if name == stage:
            return p50, p99
    return float("nan"), float("nan")


def render(result: SurveyResult) -> str:
    nx, ny = result.shape
    lines = [
        f"E14 - survey campaign: {nx}x{ny} cosmology grid "
        f"(omega_m x sigma8), {result.resolution}^3 IC->run->lensing + "
        f"reduce, {result.zooms} background zooms, "
        f"{result.n_grids} grids x {result.clusters_per_grid} clusters, "
        f"duplicated-cosmology leg on the second client",
    ]
    headers = ["routing", "policy", "data", "dag done", "retry", "zooms",
               "memo hit", "makespan", "run p50", "lens p99", "WAN MiB",
               "moved MiB"]
    rows = []
    for arm in result.runs:
        run_p50, _ = _stage(arm, "run")
        _, lens_p99 = _stage(arm, "lensing")
        rows.append([
            arm.routing, arm.policy, arm.data,
            f"{arm.completed}/{arm.nodes}", str(arm.retries),
            f"{arm.zooms_done}/{result.zooms}",
            f"{arm.hit_rate * 100:.1f}%", sec(arm.makespan),
            sec(run_p50), sec(lens_p99), mib(arm.bytes_wan, 2),
            mib(arm.data_moved, 2),
        ])
    lines.append(ascii_table(headers, rows))

    for arm in result.runs:
        lines.append(
            f"memo {arm.routing}/{arm.policy}/{arm.data}: "
            f"{arm.memo_hits} hits / {arm.memo_misses} misses "
            f"({arm.hit_rate * 100:.1f}% hit rate)")
    if ("volatile" in result.data_policies
            and "persistent" in result.data_policies):
        for routing in result.routings:
            for policy in result.policies:
                vol = result.arm(routing, policy, "volatile")
                per = result.arm(routing, policy, "persistent")
                if vol is None or per is None or vol.bytes_wan == 0:
                    continue
                saved = 1.0 - per.bytes_wan / vol.bytes_wan
                lines.append(
                    f"wan {routing}/{policy}: volatile "
                    f"{mib(vol.bytes_wan, 2)} MiB -> persistent "
                    f"{mib(per.bytes_wan, 2)} MiB ({saved * 100:.1f}% less)")
    return "\n".join(lines)

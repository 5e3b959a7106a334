"""Multi-MA federation: several DIET hierarchies over a multi-grid platform.

The paper's follow-up deployments run DIET with *several* Master Agents —
one hierarchy per grid — because a single MA is both a scalability
bottleneck and a single point of failure.  This module models that
platform (ROADMAP item 1):

* :func:`federation_cluster_specs` replicates the §5.1 cluster catalogue
  across ``n_grids`` grids (sites prefixed ``g0-``, ``g1-``, ...), all
  star-attached to one shared RENATER-style core, and
  :func:`build_federation` stands up one MA→LA→SeD hierarchy per grid on
  a single shared :class:`~repro.core.transport.TransportFabric` and a
  single shared :class:`~repro.data.manager.DataGrid` (one replica
  catalog, one result memo: handles and memo hits resolve across grids);
* a client is a plain :class:`~repro.core.client.DietClient` initialized
  with the federation's MA names, home first — the inter-MA redirection
  policy lives in its one request routine;
* :func:`schedule_churn` draws non-overlapping SeD outages from named
  random streams and hands them to the existing
  :class:`~repro.sim.failures.FailureInjector` — grid nodes disappear and
  come back while load is offered.

Everything is deterministic per seed: victim choice uses
``choice(replace=False)`` (the injector forbids overlapping outages per
victim), MA/LA/SeD names embed the grid index, and request ids stay
fabric-scoped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional

import numpy as np

from ..obs import Observability
from ..platform.grid5000 import (
    _LAN_BW,
    _LAN_LATENCY,
    PAPER_CLUSTERS,
    ClusterSpec,
    Grid5000Platform,
    build_grid5000,
)
from ..sim.engine import Engine
from ..sim.failures import FailureInjector, Outage
from ..sim.network import Host, Link
from ..sim.rng import RandomStreams
from .agent import AgentParams
from .deployment import Deployment, build_hierarchy
from .exceptions import DietError
from .godiet import cluster_hierarchy_spec
from .scheduling import make_policy
from .sed import SeD
from .statistics import Tracer
from .transport import TransportFabric

if TYPE_CHECKING:  # pragma: no cover - repro.data imports repro.core
    from ..data.manager import DataGrid, DataManagerConfig
    from ..data.memo import MemoIndex

__all__ = ["FederationConfig", "Federation", "ChurnPlan",
           "federation_cluster_specs", "build_federation", "schedule_churn"]


@dataclass(frozen=True)
class FederationConfig:
    """Shape of one federated deployment."""

    #: Independent MA hierarchies (one per grid).
    n_grids: int = 2
    #: Clusters per grid, drawn cyclically from the §5.1 catalogue.
    clusters_per_grid: int = 2
    #: Estimate flow of every hierarchy ("pull" or "push").
    routing: str = "pull"
    #: Agent knobs shared by every MA/LA (None = defaults).  Set
    #: ``heartbeat_interval`` here when churn is injected — push mode
    #: relies on the heartbeat cascade to invalidate dead SeDs' rows.
    agent_params: Optional[AgentParams] = None
    #: Scheduling policy name (:data:`repro.core.scheduling.POLICIES`) each
    #: MA runs; None keeps the DefaultPolicy (the paper's baseline).
    policy: Optional[str] = None
    #: Per-SeD :class:`~repro.data.manager.DataManagerConfig` of the
    #: federation-wide data grid (None = defaults: no proactive
    #: replication).
    data: Optional["DataManagerConfig"] = None
    #: Where the federation's clients run.  ``"per-grid"`` attaches one
    #: client host per grid to that grid's first site router, so client→MA
    #: latency is priced by the network model; ``"core"`` is the legacy
    #: placement on the shared core service node (kept for byte-compat
    #: with pre-existing sweeps — E13 pins it).
    client_placement: str = "per-grid"

    def __post_init__(self) -> None:
        if self.n_grids < 1:
            raise ValueError(f"n_grids must be >= 1, got {self.n_grids}")
        if self.clusters_per_grid < 1:
            raise ValueError(f"clusters_per_grid must be >= 1, "
                             f"got {self.clusters_per_grid}")
        if self.client_placement not in ("per-grid", "core"):
            raise ValueError(f"client_placement must be 'per-grid' or "
                             f"'core', got {self.client_placement!r}")


def federation_cluster_specs(n_grids: int,
                             clusters_per_grid: int) -> List[ClusterSpec]:
    """The §5.1 catalogue replicated across grids.

    Site names gain a ``g{i}-`` prefix so each grid keeps its own site
    routers (and NFS volumes) while sharing the single core the one
    :func:`~repro.platform.grid5000.build_grid5000` call creates — a star
    of grids instead of a star of sites.
    """
    specs: List[ClusterSpec] = []
    for g in range(n_grids):
        for c in range(clusters_per_grid):
            base = PAPER_CLUSTERS[c % len(PAPER_CLUSTERS)]
            specs.append(ClusterSpec(
                site=f"g{g}-{base.site}", name=base.name,
                machine_key=base.machine_key,
                total_nodes=base.total_nodes, n_seds=base.n_seds,
                efficiency=base.efficiency, wan_latency=base.wan_latency))
    return specs


@dataclass
class Federation:
    """A built federation: shared fabric and data grid + one hierarchy per
    grid."""

    engine: Engine
    fabric: TransportFabric
    tracer: Tracer
    platform: Grid5000Platform
    config: FederationConfig
    #: The one federation-wide data grid: handles and memo hits resolve
    #: across grids.
    data_grid: "DataGrid"
    #: One :class:`~repro.core.deployment.Deployment` per grid (no client
    #: of its own: clients attach to the shared fabric).
    grids: List[Deployment] = field(default_factory=list)

    @property
    def memo(self) -> "MemoIndex":
        """The federation-wide result memo (``data_grid.memo``)."""
        return self.data_grid.memo

    @property
    def ma_names(self) -> List[str]:
        return [grid.ma.name for grid in self.grids]

    def ma_order(self, home: int) -> List[str]:
        """The MA list a client homed on grid ``home`` is initialized with:
        federation order rotated so its own MA comes first."""
        names = self.ma_names
        return names[home:] + names[:home]

    @property
    def seds(self) -> List[SeD]:
        out: List[SeD] = []
        for grid in self.grids:
            out.extend(grid.seds)
        return out

    @property
    def client_host(self) -> Host:
        """The shared core-attached service node clients run on."""
        return self.platform.client_host

    def client_host_for(self, grid_index: int) -> Host:
        """Where a client homed on ``grid_index`` runs: the grid's own
        client host under "per-grid" placement, else the shared core node.
        """
        if self.config.client_placement == "per-grid":
            return self.platform.network.host(
                f"g{grid_index % len(self.grids)}-client")
        return self.platform.client_host

    def launch_all(self) -> None:
        for grid in self.grids:
            grid.launch_all()

    def add_service_everywhere(self, make_desc, solve_func) -> None:
        """Register ``make_desc()`` with ``solve_func`` on every SeD."""
        for sed in self.seds:
            sed.add_service(make_desc(), solve_func)


def build_federation(engine: Engine, config: FederationConfig,
                     obs: Optional[Observability] = None) -> Federation:
    """Stand up ``config.n_grids`` MA hierarchies over one shared platform.

    Each grid gets its own MA host attached to its first site's router
    (mirroring the paper's Lyon service node, one per grid); the platform's
    own ``lyon-ma`` fallback host hangs off the shared core and serves as
    the federation-wide client host.
    """
    specs = federation_cluster_specs(config.n_grids, config.clusters_per_grid)
    platform = build_grid5000(engine, specs)
    fabric = TransportFabric(engine, platform.network)
    tracer = Tracer(obs)
    engine.obs = tracer.obs

    # Lazy: repro.data depends on repro.core at module level.
    from ..data.manager import DataGrid

    data_grid = DataGrid(platform.network, config.data)
    federation = Federation(engine=engine, fabric=fabric, tracer=tracer,
                            platform=platform, config=config,
                            data_grid=data_grid)
    for g in range(config.n_grids):
        prefix = f"g{g}-"
        clusters = [cluster for name, cluster in platform.clusters.items()
                    if cluster.spec.site.startswith(prefix)]
        if not clusters:
            raise DietError(f"grid {g} built no clusters")
        site_router = platform.sites[clusters[0].spec.site].router
        per_grid_client = config.client_placement == "per-grid"
        for role in ("ma", "client") if per_grid_client else ("ma",):
            host = platform.network.add_host(
                Host(engine, f"{prefix}{role}", speed=2.4))
            platform.network.connect(
                host.name, site_router.name,
                Link(f"lan-{prefix}{role}", _LAN_LATENCY, _LAN_BW))
        policy = None
        if config.policy is not None:
            # A fresh instance per MA: policies keep per-hierarchy state
            # (round-robin counters, history means).
            policy = make_policy(config.policy)
        federation.grids.append(build_hierarchy(
            cluster_hierarchy_spec(clusters, f"MA{g}", f"{prefix}ma"),
            platform, fabric, tracer, data_grid, policy=policy,
            agent_params=config.agent_params, routing=config.routing))
    return federation


@dataclass(frozen=True)
class ChurnPlan:
    """SeD churn drawn for one run: how many outages and when.  Each
    downtime is exponential with a 5 s mean, floored at 1 s."""

    #: Distinct SeD victims (one outage each — no overlap by construction).
    n_outages: int
    #: Crash instants are uniform over [start, end).
    start: float
    end: float

    def __post_init__(self) -> None:
        if self.n_outages < 0:
            raise ValueError(f"n_outages must be >= 0, got {self.n_outages}")
        if self.end < self.start:
            raise ValueError(f"churn window ends ({self.end}) before it "
                             f"starts ({self.start})")


def schedule_churn(federation: Federation, plan: ChurnPlan,
                   streams: RandomStreams) -> FailureInjector:
    """Draw ``plan`` deterministically and arm the failure injector.

    Victims are drawn without replacement across the whole federation (the
    injector treats overlapping outages of one victim as a caller bug), so
    at most every SeD crashes once.
    """
    injector = FailureInjector(federation.engine)
    seds = federation.seds
    n = min(plan.n_outages, len(seds))
    if n == 0:
        return injector
    rng = streams.get("federation", "churn")
    victims = rng.choice(len(seds), size=n, replace=False)
    crash_ats = rng.uniform(plan.start, plan.end, size=n)
    downtimes = np.maximum(1.0, rng.exponential(5.0, size=n))
    for idx, at, downtime in zip(victims, crash_ats, downtimes):
        injector.schedule(seds[int(idx)],
                          [Outage(float(at), float(downtime))])
    return injector

"""GoDIET-like deployment: instantiate a DIET hierarchy on a platform.

:mod:`repro.core.godiet` *describes* a hierarchy (a
:class:`~repro.core.godiet.HierarchySpec`); :func:`build_hierarchy` here is
the one function that *instantiates* one — every component on one fabric,
one tracer and one :class:`~repro.data.manager.DataGrid` — enforcing the
§4.1 constraint that a SeD must mount its cluster's NFS volume.  §5.1's
deployment — 1 MA (+ client) on a Lyon node, one LA per cluster, two SeDs
per cluster (one for sagittaire) — is :func:`deploy_paper_hierarchy`: the
paper spec through that builder.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional

from ..obs import Observability
from ..platform.grid5000 import Grid5000Platform
from ..sim.engine import Engine
from .agent import AgentParams, LocalAgent, MasterAgent
from .client import DietClient
from .exceptions import DietError
from .scheduling import SchedulerPolicy
from .sed import SeD
from .statistics import Tracer
from .transport import TransportFabric

if TYPE_CHECKING:  # pragma: no cover - import cycles (data needs core; godiet needs this)
    from ..data.manager import DataGrid, DataManagerConfig
    from .godiet import AgentSpec, HierarchySpec

__all__ = ["Deployment", "build_hierarchy", "deploy_paper_hierarchy"]


@dataclass
class Deployment:
    """A built middleware stack: fabric + agents + SeDs + client + tracer."""

    engine: Engine
    fabric: TransportFabric
    tracer: Tracer
    ma: MasterAgent
    #: The stack's data fabric (a federation's grids share one).
    data_grid: "DataGrid"
    local_agents: List[LocalAgent] = field(default_factory=list)
    seds: List[SeD] = field(default_factory=list)
    client: Optional[DietClient] = None
    platform: Optional[Grid5000Platform] = None
    #: Estimate-flow mode the hierarchy was built with ("pull" or "push").
    routing: str = "pull"

    def sed_by_name(self, name: str) -> SeD:
        for sed in self.seds:
            if sed.name == name:
                return sed
        raise DietError(f"no SeD named {name!r} in this deployment")

    def launch_all(self) -> None:
        """Start every agent and SeD's serving loop (GoDIET 'launch')."""
        self.ma.launch()
        for la in self.local_agents:
            la.launch()
        for sed in self.seds:
            sed.launch()

    def cluster_of_sed(self, sed_name: str) -> str:
        sed = self.sed_by_name(sed_name)
        return str(sed.host.properties.get("cluster", sed.host.name))


def build_hierarchy(spec: "HierarchySpec", platform: Grid5000Platform,
                    fabric: TransportFabric, tracer: Tracer,
                    data_grid: "DataGrid",
                    policy: Optional[SchedulerPolicy] = None,
                    agent_params: Optional[AgentParams] = None,
                    routing: str = "pull") -> Deployment:
    """Instantiate ``spec``'s MA→LA→SeD tree on a built platform.

    The one place components are constructed and wired, whatever described
    the tree (the §5.1 layout, a GoDIET XML file, one grid of a federation):
    every agent and SeD is built on ``fabric``/``tracer``/``data_grid``
    (replica catalog with the MA at the root and one node per LA, result
    memo, per-SeD data manager), runs ``routing`` and knows its ``parent``
    (so a restarted SeD can re-register); the MA owns ``policy``.  A SeD on
    a cluster host must mount that cluster's NFS volume (§4.1).
    """
    spec.validate()
    network = platform.network
    ma = MasterAgent(fabric, network.host(spec.master.host),
                     name=spec.master.name, policy=policy,
                     params=agent_params, tracer=tracer, routing=routing,
                     data_grid=data_grid)
    deployment = Deployment(engine=fabric.engine, fabric=fabric,
                            tracer=tracer, ma=ma, platform=platform,
                            data_grid=data_grid, routing=routing)

    def build(agent_spec: "AgentSpec", agent: LocalAgent) -> None:
        for child_spec in agent_spec.children:
            la = LocalAgent(fabric, network.host(child_spec.host),
                            name=child_spec.name, parent=agent.name,
                            params=agent_params, tracer=tracer,
                            routing=routing, data_grid=data_grid)
            agent.add_child(la.name)
            deployment.local_agents.append(la)
            build(child_spec, la)
        for sed_spec in agent_spec.seds:
            host = network.host(sed_spec.host)
            cluster = platform.cluster_of_host(host.name)
            nfs = cluster.nfs if cluster is not None else None
            if nfs is not None and not nfs.is_mounted_on(host.name):
                raise DietError(
                    f"SeD host {host.name} does not mount {nfs.name} "
                    f"(§4.1 requires an NFS working directory)")
            sed = SeD(fabric, host, name=sed_spec.name, ma_name=ma.name,
                      tracer=tracer, nfs=nfs,
                      parent=agent.name, routing=routing,
                      data_grid=data_grid)
            agent.add_child(sed.name)
            deployment.seds.append(sed)

    build(spec.master, ma)
    if spec.client_host:
        deployment.client = DietClient(
            fabric, network.host(spec.client_host), name="client",
            tracer=tracer)
    return deployment


def deploy_paper_hierarchy(platform: Grid5000Platform,
                           policy: Optional[SchedulerPolicy] = None,
                           agent_params: Optional[AgentParams] = None,
                           obs: Optional[Observability] = None,
                           data: Optional["DataManagerConfig"] = None,
                           routing: str = "pull") -> Deployment:
    """Deploy the exact §5.1 hierarchy on a built Grid'5000 platform.

    :func:`~repro.core.godiet.paper_hierarchy_spec` describes it — MA on the
    Lyon service node with the client, one LA per cluster on the cluster
    frontend, one SeD per reserved 16-node block (11 in the paper layout) —
    and :func:`build_hierarchy` instantiates it.

    ``data`` is the per-SeD data-manager configuration of the stack's
    data grid (its replication policy); None is the default
    :class:`~repro.data.manager.DataManagerConfig` — no proactive
    replication.

    ``routing`` selects the estimate flow: ``"pull"`` (the default, the
    paper's per-request fan-out — kept byte-identical for every figure) or
    ``"push"`` (SeDs push deltas, agents materialize candidate tables, the MA
    admits from its table in batches; see DESIGN.md).
    """
    # Lazy: godiet imports this module for Deployment/build_hierarchy.
    from .godiet import paper_hierarchy_spec

    engine = platform.engine
    fabric = TransportFabric(engine, platform.network)
    tracer = Tracer(obs)
    # The engine reads obs directly (run-level spans).
    engine.obs = tracer.obs
    # Lazy: repro.data depends on repro.core at module level.
    from ..data.manager import DataGrid

    return build_hierarchy(paper_hierarchy_spec(platform), platform, fabric,
                           tracer, DataGrid(platform.network, data),
                           policy=policy, agent_params=agent_params,
                           routing=routing)

"""Model of the Grid'5000 deployment used in the paper (§5.1).

The paper deploys DIET over 5 sites / 6 clusters of Grid'5000:

* 1 Master Agent on a single node (together with omniORB, monitoring tools
  and the client) — we place it in Lyon;
* 6 Local Agents, one per cluster (2 clusters in Lyon; 1 each in Lille,
  Nancy, Toulouse, Sophia);
* 11 SeDs — two per cluster, except one Lyon cluster that could only host
  one SeD "due to reservation restrictions"; each SeD controls 16 machines
  (AMD Opteron 246/248/250/252/275).

The topology is a star of site routers around a RENATER core, with
1 Gb/s site uplinks (10 Gb/s core), LAN links inside each site and an NFS
volume per cluster.  Node models and per-cluster I/O efficiency come from
the calibration discussed in DESIGN.md (they set the Figure 4-right
spread: Toulouse ≈ 15 h vs Nancy ≈ 10.5 h of busy time).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..sim.engine import Engine
from ..sim.network import Host, Link, Network
from .machines import MachineSpec, machine
from .nfs import NfsVolume

__all__ = ["ClusterSpec", "Cluster", "Site", "Grid5000Platform",
           "build_grid5000", "PAPER_CLUSTERS", "NODES_PER_SED"]

#: Each SeD controls this many machines (§4.1: "typically 32 machines to run
#: a 256^3 particules simulation"; §5.1 uses 16 per SeD for the 128^3 runs).
NODES_PER_SED = 16


@dataclass(frozen=True)
class ClusterSpec:
    """Static description of one Grid'5000 cluster as used in the paper."""

    site: str
    name: str
    machine_key: str
    total_nodes: int
    n_seds: int = 2
    #: Effective efficiency of the cluster for the RAMSES workload relative
    #: to pure clock scaling (captures NFS throughput and memory differences;
    #: calibrated so the Figure 4 busy-time spread matches the paper).
    efficiency: float = 1.0
    #: WAN one-way latency from the site router to the RENATER core (s).
    wan_latency: float = 4.0e-3

    def __post_init__(self):
        if self.total_nodes < self.n_seds * NODES_PER_SED:
            raise ValueError(
                f"cluster {self.full_name!r}: {self.n_seds} SeDs need "
                f"{self.n_seds * NODES_PER_SED} nodes, it has "
                f"{self.total_nodes}")

    @property
    def full_name(self) -> str:
        return f"{self.site}-{self.name}"


#: The six clusters of §5.1.  Lyon hosted the MA and client; its sagittaire
#: cluster had a single SeD because of reservation restrictions.
PAPER_CLUSTERS: List[ClusterSpec] = [
    ClusterSpec("lyon", "capricorne", "opteron-246", 56, n_seds=2,
                efficiency=1.00, wan_latency=1.0e-3),
    ClusterSpec("lyon", "sagittaire", "opteron-250", 70, n_seds=1,
                efficiency=1.00, wan_latency=1.0e-3),
    ClusterSpec("lille", "chti", "opteron-248", 53, n_seds=2,
                efficiency=1.00, wan_latency=4.5e-3),
    ClusterSpec("nancy", "grillon", "opteron-252", 47, n_seds=2,
                efficiency=1.00, wan_latency=4.0e-3),
    ClusterSpec("toulouse", "violette", "opteron-246", 57, n_seds=2,
                efficiency=0.91, wan_latency=5.0e-3),
    ClusterSpec("sophia", "helios", "opteron-275", 56, n_seds=2,
                efficiency=1.00, wan_latency=5.5e-3),
]


@dataclass
class Cluster:
    """A built cluster: frontend host, SeD hosts, NFS volume."""

    spec: ClusterSpec
    frontend: Host
    sed_hosts: List[Host]
    nfs: NfsVolume
    node_spec: MachineSpec

    @property
    def full_name(self) -> str:
        return self.spec.full_name


@dataclass
class Site:
    name: str
    router: Host
    clusters: List[Cluster] = field(default_factory=list)


@dataclass
class Grid5000Platform:
    """Everything the middleware deployment needs to know about the testbed."""

    engine: Engine
    network: Network
    sites: Dict[str, Site]
    clusters: Dict[str, Cluster]
    client_host: Host
    ma_host: Host

    def cluster_of_host(self, host_name: str) -> Optional[Cluster]:
        for cluster in self.clusters.values():
            if (host_name == cluster.frontend.name
                    or any(h.name == host_name for h in cluster.sed_hosts)):
                return cluster
        return None


# -- link parameters (RENATER, circa 2006) -------------------------------------

_CORE_BW = 10e9 / 8          # 10 Gb/s RENATER core, bytes/s
_SITE_UPLINK_BW = 1e9 / 8    # 1 Gb/s site uplink
_LAN_BW = 1e9 / 8            # GigE inside a site
_LAN_LATENCY = 0.05e-3       # 50 us switch hop


def build_grid5000(engine: Engine,
                   cluster_specs: Optional[List[ClusterSpec]] = None
                   ) -> Grid5000Platform:
    """Build the §5.1 testbed model on ``engine``: ``spec.n_seds`` SeD
    hosts per cluster, each controlling a block of ``NODES_PER_SED`` nodes."""
    specs = list(PAPER_CLUSTERS) if cluster_specs is None else list(cluster_specs)
    network = Network(engine)

    core = network.add_host(Host(engine, "renater-core"))
    sites: Dict[str, Site] = {}
    clusters: Dict[str, Cluster] = {}

    for spec in specs:
        site = sites.get(spec.site)
        if site is None:
            router = network.add_host(Host(engine, f"{spec.site}-router"))
            network.connect(router.name, core.name,
                            Link(f"wan-{spec.site}", spec.wan_latency,
                                 _SITE_UPLINK_BW, wan=True))
            site = Site(spec.site, router)
            sites[spec.site] = site

        node_spec = machine(spec.machine_key)

        frontend = network.add_host(
            Host(engine, f"{spec.full_name}-frontend", speed=node_spec.speed))
        network.connect(frontend.name, site.router.name,
                        Link(f"lan-{spec.full_name}", _LAN_LATENCY, _LAN_BW))

        nfs = NfsVolume(engine, f"nfs-{spec.full_name}")
        nfs.export_to(frontend.name)

        sed_hosts: List[Host] = []
        for i in range(spec.n_seds):
            sed = network.add_host(Host(
                engine, f"{spec.full_name}-sed{i}",
                speed=node_spec.speed * spec.efficiency,
                properties={
                    "cluster": spec.full_name,
                    "n_nodes": NODES_PER_SED,
                    "node_model": node_spec.model,
                }))
            network.connect(sed.name, frontend.name,
                            Link(f"lan-{sed.name}", _LAN_LATENCY, _LAN_BW))
            nfs.export_to(sed.name)
            sed_hosts.append(sed)

        cluster = Cluster(spec, frontend, sed_hosts, nfs, node_spec)
        site.clusters.append(cluster)
        clusters[spec.full_name] = cluster

    # Client + MA share a Lyon node (paper: MA, omniORB, monitoring and the
    # client all on a single node).
    lyon_router = sites["lyon"].router if "lyon" in sites else core
    ma_host = network.add_host(Host(engine, "lyon-ma", speed=2.4))
    network.connect(ma_host.name, lyon_router.name,
                    Link("lan-lyon-ma", _LAN_LATENCY, _LAN_BW))

    return Grid5000Platform(engine=engine, network=network, sites=sites,
                            clusters=clusters,
                            client_host=ma_host, ma_host=ma_host)

"""Grid'5000 platform model: machines, topology, NFS volumes."""

from .grid5000 import (
    Cluster,
    ClusterSpec,
    Grid5000Platform,
    NODES_PER_SED,
    PAPER_CLUSTERS,
    Site,
    build_grid5000,
)
from .machines import MachineSpec, OPTERON_CATALOGUE, machine
from .nfs import NfsError, NfsVolume

__all__ = [
    "Cluster",
    "ClusterSpec",
    "Grid5000Platform",
    "MachineSpec",
    "NfsError",
    "NfsVolume",
    "NODES_PER_SED",
    "OPTERON_CATALOGUE",
    "PAPER_CLUSTERS",
    "Site",
    "build_grid5000",
    "machine",
]

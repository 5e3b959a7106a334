"""GALICS substitute: HaloMaker, TreeMaker, GalaxyMaker.

"These three softwares are meant to be used sequentially, each of them
producing different kinds of information" (§3) — FoF halo catalogs, merger
trees by particle-id matching, and a semi-analytic galaxy catalog.
"""

from .catalogs import (
    Galaxy,
    GalaxyCatalog,
    Halo,
    HaloCatalog,
    read_halo_catalog,
    write_halo_catalog,
)
from .galaxymaker import GalaxyMaker, SamParams
from .press_schechter import (
    expected_halo_counts,
    press_schechter_dndlnm,
    sigma_of_mass,
)
from .halomaker import find_halos, friends_of_friends, periodic_center
from .treemaker import MergerTree, TreeNode, build_merger_tree, match_halos

__all__ = [
    "Galaxy",
    "GalaxyCatalog",
    "GalaxyMaker",
    "Halo",
    "HaloCatalog",
    "MergerTree",
    "SamParams",
    "TreeNode",
    "build_merger_tree",
    "find_halos",
    "friends_of_friends",
    "match_halos",
    "periodic_center",
    "press_schechter_dndlnm",
    "expected_halo_counts",
    "sigma_of_mass",
    "read_halo_catalog",
    "write_halo_catalog",
]

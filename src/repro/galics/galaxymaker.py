"""GalaxyMaker: a semi-analytic galaxy-formation model over merger trees.

§3: "GalaxyMaker applies a semi-analytical model to the results of
TreeMaker to form galaxies, and creates a catalog of galaxies."

The recipes are the classic minimal SAM (White & Frenk 1991 lineage, as in
the original GALICS of Hatton et al. 2003), per tree node in time order:

* **accretion** — newly bound baryons = f_b * (M_halo - sum progenitor M)
  join the hot phase;
* **cooling** — hot gas cools onto the disk on the halo dynamical time,
  modulated by a mass-dependent efficiency;
* **star formation** — stars form from cold gas on a disk timescale,
  dM* = eps_sf * M_cold / t_disk * dt;
* **supernova feedback** — reheats cold gas back to hot, with efficiency
  falling in massive halos;
* **mergers** — galaxies of merging halos combine; major mergers
  (mass ratio > 1:3) move stars into the bulge.

Everything is in box-mass units and Hubble-time units, consistent with the
simulation; conversions to Msun live in :class:`repro.ramses.units.Units`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from .catalogs import Galaxy, GalaxyCatalog
from .treemaker import MergerTree, TreeNode
from ..ramses.cosmology import Cosmology

__all__ = ["SamParams", "GalaxyMaker"]


@dataclass(frozen=True)
class SamParams:
    """Recipe efficiencies (dimensionless unless stated)."""

    baryon_fraction: float = 0.15
    cooling_efficiency: float = 0.8
    #: halo mass (box units) above which cooling is quenched by a long
    #: cooling time; below it gas cools in ~1 dynamical time.
    cooling_mass_scale: float = 1e-2
    star_formation_efficiency: float = 0.1
    #: disk star-formation timescale in halo dynamical times.
    disk_timescale: float = 2.0
    feedback_efficiency: float = 0.4
    #: progenitor mass ratio above which a merger is "major".
    major_merger_ratio: float = 1.0 / 3.0

    def __post_init__(self):
        for name in ("baryon_fraction", "cooling_efficiency",
                     "star_formation_efficiency", "feedback_efficiency"):
            v = getattr(self, name)
            if not 0 <= v <= 1:
                raise ValueError(f"{name} must be in [0, 1], got {v}")


@dataclass
class _GalaxyState:
    stellar: float = 0.0
    bulge: float = 0.0
    cold: float = 0.0
    hot: float = 0.0
    sfr: float = 0.0


class GalaxyMaker:
    """Runs the SAM over a merger tree and emits galaxy catalogs."""

    def __init__(self, cosmology: Cosmology,
                 params: Optional[SamParams] = None):
        self.cosmology = cosmology
        self.params = params or SamParams()

    # -- recipes -----------------------------------------------------------------

    def _dynamical_time(self, aexp: float) -> float:
        """Halo dynamical time ~ 0.1 / H(a), in 1/H0 units."""
        return 0.1 / float(self.cosmology.hubble(aexp))

    def _evolve_node(self, state: _GalaxyState, halo_mass: float,
                     accreted_dm: float, aexp: float, dt: float) -> None:
        p = self.params
        state.hot += max(accreted_dm, 0.0) * p.baryon_fraction
        t_dyn = self._dynamical_time(aexp)
        # cooling: efficiency drops smoothly above the quenching scale
        quench = 1.0 / (1.0 + (halo_mass / p.cooling_mass_scale) ** 2)
        cool = min(p.cooling_efficiency * quench * dt / t_dyn, 1.0) * state.hot
        state.hot -= cool
        state.cold += cool
        # star formation
        t_disk = p.disk_timescale * t_dyn
        stars = min(p.star_formation_efficiency * dt / t_disk, 1.0) * state.cold
        state.cold -= stars
        state.stellar += stars
        state.sfr = stars / dt if dt > 0 else 0.0
        # supernova feedback reheats cold gas, weaker in deep potentials
        reheat_eff = p.feedback_efficiency / (1.0 + (halo_mass / p.cooling_mass_scale))
        reheated = min(reheat_eff * stars, state.cold)
        state.cold -= reheated
        state.hot += reheated

    # -- tree walk --------------------------------------------------------------------

    def run(self, tree: MergerTree) -> List[GalaxyCatalog]:
        """One galaxy catalog per snapshot of the tree's catalogs."""
        catalogs = tree.catalogs
        n_snaps = len(catalogs)
        ages = [self.cosmology.age(c.aexp) for c in catalogs]
        states: Dict[TreeNode, _GalaxyState] = {}
        outputs: List[GalaxyCatalog] = []

        for snap in range(n_snaps):
            cat = catalogs[snap]
            dt = ages[snap] - ages[snap - 1] if snap > 0 else ages[snap] * 0.5
            galaxies: List[Galaxy] = []
            for halo in cat:
                node = TreeNode(snap, halo.halo_id)
                progs = tree.progenitors(node)
                merged = _GalaxyState()
                prog_dm = 0.0
                major = False
                if progs:
                    prog_masses = [tree.halo(p).mass for p in progs]
                    prog_dm = sum(prog_masses)
                    if len(progs) > 1:
                        ratio = prog_masses[1] / prog_masses[0]
                        major = ratio >= self.params.major_merger_ratio
                    for p in progs:
                        s = states.get(p)
                        if s is None:
                            continue
                        merged.stellar += s.stellar
                        merged.bulge += s.bulge
                        merged.cold += s.cold
                        merged.hot += s.hot
                    if major:
                        # major merger: the combined stars end up in a bulge
                        merged.bulge = merged.stellar
                accreted_dm = max(halo.mass - prog_dm, 0.0)
                self._evolve_node(merged, halo.mass, accreted_dm, cat.aexp, dt)
                states[node] = merged
                galaxies.append(Galaxy(
                    galaxy_id=len(galaxies), halo_id=halo.halo_id,
                    stellar_mass=merged.stellar, cold_gas=merged.cold,
                    hot_gas=merged.hot, bulge_mass=merged.bulge,
                    sfr=merged.sfr, position=halo.center.copy()))
            outputs.append(GalaxyCatalog(aexp=cat.aexp, galaxies=galaxies))
        return outputs

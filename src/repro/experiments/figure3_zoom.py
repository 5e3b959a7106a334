"""E9 — Figure 3 analogue: zoom re-simulation of a chosen halo.

Figure 3 shows "Re-simulation on a supercluster of galaxies to increase the
resolution".  Quantitatively we check the two properties that make the zoom
method work (§3):

* the mass resolution inside the zoom Lagrangian volume improves by
  ``8 ** n_levels`` (more particles in the halo);
* the re-simulated halo sits where the parent run put it (mode-matched
  initial conditions), with more member particles than before.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..galics.halomaker import find_halos
from ..grafic.ic import make_single_level_ic
from ..ramses.cosmology import LCDM_WMAP, Cosmology
from ..ramses.simulation import RamsesRun, RunConfig
from ..ramses.zoom import ZoomSpec, lagrangian_region, resolution_gain, run_zoom
from .report import ascii_table

__all__ = ["Figure3Result", "run", "render"]


@dataclass
class Figure3Result:
    n_levels: int
    parent_halo_mass: float
    parent_halo_npart: int
    zoom_halo_npart: int
    mass_resolution_gain: float
    center_offset: float          # box units, parent halo vs re-simulated
    zoom_region_half_size: float
    n_zoom_particles: int
    n_total_particles: int

    @property
    def expected_gain(self) -> float:
        return 8.0 ** self.n_levels

    @property
    def particle_boost(self) -> float:
        return self.zoom_halo_npart / max(self.parent_halo_npart, 1)


def run(n_coarse: int = 16, boxsize: float = 50.0, n_levels: int = 2,
        cosmology: Optional[Cosmology] = None, seed: int = 11,
        n_steps: int = 24, a_end: float = 1.0) -> Figure3Result:
    cosmo = cosmology or LCDM_WMAP
    # -- part 1: parent low-resolution run -> halo catalog -----------------------
    parent_ic = make_single_level_ic(n_coarse, boxsize, cosmo, a_start=0.05,
                                     seed=seed)
    cfg = RunConfig(a_end=a_end, n_steps=n_steps, output_aexp=(a_end,))
    parent = RamsesRun(parent_ic, cfg).run().final
    catalog = find_halos(parent.particles, parent.aexp, min_particles=8)
    if len(catalog) == 0:
        raise RuntimeError("parent run formed no halos; increase a_end")
    halo = catalog[0]   # the most massive: our 'supercluster'

    # -- select the Lagrangian region and re-simulate ------------------------------
    region = lagrangian_region(halo.member_ids, n_coarse)
    spec = ZoomSpec(center=tuple(region.center), n_levels=n_levels,
                    region_half_size=region.half_size, n_coarse=n_coarse,
                    boxsize_mpc_h=boxsize)
    zoom_result = run_zoom(parent_ic, spec, cfg)
    zoom_snap = zoom_result.final

    gain = resolution_gain(parent.particles, zoom_snap.particles, region)

    # -- match the re-simulated halo -------------------------------------------------
    # FoF across resolutions is ambiguous (fine linking fragments the halo,
    # coarse linking percolates through the better-resolved filaments), so
    # the Figure-3 metric counts particles directly: locate the local mass
    # concentration near the parent halo with a shrinking-sphere recentring,
    # then compare particle counts within the parent halo's radius.
    from ..galics.halomaker import periodic_center

    def sphere_count_and_com(parts, center, radius):
        d = np.abs(parts.x - center)
        d = np.minimum(d, 1.0 - d)
        inside = (d ** 2).sum(axis=1) < radius ** 2
        if not inside.any():
            return 0, np.asarray(center, dtype=float)
        com = periodic_center(parts.x[inside], weights=parts.mass[inside])
        return int(inside.sum()), com

    radius = max(halo.radius, 1.5 / n_coarse)
    center = halo.center.copy()
    for shrink in (1.0, 0.7, 0.5):   # shrinking-sphere recentring
        _, center = sphere_count_and_com(zoom_snap.particles, center,
                                         radius * shrink)
    zoom_npart, _ = sphere_count_and_com(zoom_snap.particles, center, radius)
    parent_npart, _ = sphere_count_and_com(parent.particles, halo.center,
                                           radius)
    d = np.abs(center - halo.center)
    d = np.minimum(d, 1.0 - d)
    offset = float(np.sqrt((d ** 2).sum()))

    n_zoom_parts = int((zoom_snap.particles.level
                        == zoom_snap.particles.level.max()).sum())
    return Figure3Result(
        n_levels=n_levels,
        parent_halo_mass=halo.mass,
        parent_halo_npart=max(parent_npart, halo.n_particles),
        zoom_halo_npart=zoom_npart,
        mass_resolution_gain=gain,
        center_offset=offset,
        zoom_region_half_size=region.half_size,
        n_zoom_particles=n_zoom_parts,
        n_total_particles=len(zoom_snap.particles))


def render(result: Figure3Result) -> str:
    rows = [
        ("zoom levels (nested boxes)", result.n_levels),
        ("parent halo particles", result.parent_halo_npart),
        ("re-simulated halo particles", result.zoom_halo_npart),
        ("particle boost in halo", f"{result.particle_boost:.1f}x"),
        ("mass resolution gain", f"{result.mass_resolution_gain:.0f}x "
         f"(expected {result.expected_gain:.0f}x)"),
        ("halo centre offset (box units)", f"{result.center_offset:.4f}"),
        ("zoom-region half size", f"{result.zoom_region_half_size:.3f}"),
        ("high-res particles / total", f"{result.n_zoom_particles}"
         f"/{result.n_total_particles}"),
    ]
    return ("E9 - Figure 3 analogue: zoom re-simulation of the most massive "
            "halo\n" + ascii_table(("quantity", "value"), rows))

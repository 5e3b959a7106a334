"""Zoom re-simulation machinery (the HORIZON workflow of §3).

"Performing a zoom simulation requires two steps: the first step consists
of using RAMSES on a low resolution set of initial conditions to obtain at
the end of the simulation a catalog of dark matter halos [...].  A small
region is selected around each halo of the catalog [...].  This idea is to
resimulate this specific halo at a much better resolution.  For that, we
add in the Lagrangian volume of the chosen halo a lot more particles."

This module implements exactly that: trace a halo's particles back to
their Lagrangian lattice sites, bound the Lagrangian volume, build
multi-level ICs centred on it (same noise realization => same large-scale
modes), and run the refined simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # avoid a grafic <-> ramses import cycle at runtime
    from ..grafic.ic import InitialConditions, ZoomRegion

from .particles import ParticleSet
from .simulation import RamsesRun, RunConfig, SimulationResult

__all__ = ["lagrangian_positions_of_ids", "lagrangian_region",
           "ZoomSpec", "run_zoom"]


def lagrangian_positions_of_ids(ids: np.ndarray, n_coarse: int) -> np.ndarray:
    """Unperturbed lattice sites of coarse particles, from their ids.

    Single-level ICs lay particles on an ``n^3`` lattice in meshgrid(ij)
    order (see :meth:`ParticleSet.uniform_lattice`), so the id encodes the
    lattice coordinate exactly.
    """
    ids = np.asarray(ids, dtype=np.int64)
    n3 = n_coarse ** 3
    if np.any((ids < 0) | (ids >= n3)):
        raise ValueError("id outside the coarse lattice range")
    iz = ids % n_coarse
    iy = (ids // n_coarse) % n_coarse
    ix = ids // (n_coarse * n_coarse)
    q = np.stack([ix, iy, iz], axis=1).astype(np.float64)
    return (q + 0.5) / n_coarse


def lagrangian_region(ids: np.ndarray, n_coarse: int,
                      padding: float = 1.5) -> "ZoomRegion":
    """Bounding (periodic-aware) cube of a particle group's Lagrangian volume.

    ``padding`` inflates the half-size so the zoom region safely contains
    the halo's convergence volume (GRAFIC practice).
    """
    from ..grafic.ic import ZoomRegion

    q = lagrangian_positions_of_ids(ids, n_coarse)
    if len(q) == 0:
        raise ValueError("empty id set")
    # circular mean per axis for periodic-aware centring
    ang = 2.0 * np.pi * q
    center = np.mod(np.arctan2(np.sin(ang).mean(axis=0),
                               np.cos(ang).mean(axis=0)) / (2.0 * np.pi), 1.0)
    d = np.abs(q - center)
    d = np.minimum(d, 1.0 - d)
    half = float(d.max() * padding)
    half = min(max(half, 1.0 / n_coarse), 0.5)
    return ZoomRegion(tuple(center), half)


@dataclass(frozen=True)
class ZoomSpec:
    """Parameters of one zoom re-simulation (the ramsesZoom2 arguments).

    Mirrors the paper's profile: resolution, box size, centre coordinates
    and number of zoom levels ("number of nested boxes").
    """

    center: Tuple[float, float, float]
    n_levels: int
    region_half_size: float
    n_coarse: int
    boxsize_mpc_h: float

    def __post_init__(self):
        if self.n_levels < 1:
            raise ValueError("need at least one zoom level")


def run_zoom(parent_ic: "InitialConditions", spec: ZoomSpec,
             config: Optional[RunConfig] = None,
             seed: Optional[int] = None) -> SimulationResult:
    """Build multi-level ICs for ``spec`` and run the re-simulation.

    The noise seed defaults to the parent's, which is what makes the zoom
    consistent with the parent run (mode-matched realizations).
    """
    from ..grafic.ic import make_multi_level_ic

    ic = make_multi_level_ic(
        n_coarse=spec.n_coarse,
        boxsize_mpc_h=spec.boxsize_mpc_h,
        cosmology=parent_ic.cosmology,
        center=spec.center,
        n_levels=spec.n_levels,
        region_half_size=spec.region_half_size,
        a_start=parent_ic.a_start,
        seed=parent_ic.seed if seed is None else seed)
    run = RamsesRun(ic, config)
    return run.run()


def resolution_gain(parent: ParticleSet, zoomed: ParticleSet,
                    region: "ZoomRegion") -> float:
    """Mass-resolution improvement inside the zoom region (Figure 3 metric).

    Ratio of the parent's minimum particle mass in the region to the zoom
    run's minimum there; 8**n_levels for a clean multi-level IC.
    """
    in_parent = region.contains(parent.x)
    in_zoom = region.contains(zoomed.x)
    if not in_parent.any() or not in_zoom.any():
        raise ValueError("region contains no particles")
    return float(parent.mass[in_parent].min() / zoomed.mass[in_zoom].min())

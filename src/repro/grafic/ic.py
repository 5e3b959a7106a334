"""Initial-condition generation: single-level and multi-level (zoom).

§3 of the paper, verbatim requirements:

* **single level** — "the 'standard' way of generating initial conditions.
  The resulting files are used to perform the first, low-resolution
  simulation, from which the halo catalog is extracted."
* **multiple levels** — "used for the 'zoom simulation'.  The resulting
  files consist of multiple, nested boxes of smaller and smaller
  dimensions, as for Russian dolls.  The smallest box is centered around
  the halo region, for which we have locally a very high accuracy thanks
  to a much larger number of particles."

A :class:`ZoomRegion` is a coarse-cell-aligned cube; particles inside the
innermost box come from the finest lattice (smallest masses), each shell
between boxes from the corresponding intermediate level.  All levels share
one mode-matched noise realization (see :mod:`.gaussian_field`), so the
structure that forms in the zoom matches the parent run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from ..ramses.cosmology import Cosmology
from ..ramses.particles import ParticleSet
from .gaussian_field import GaussianFieldGenerator
from .power_spectrum import PowerSpectrum
from .zeldovich import displace_lattice

__all__ = ["InitialConditions", "ZoomRegion", "make_single_level_ic",
           "make_multi_level_ic"]


@dataclass(frozen=True)
class ZoomRegion:
    """A cube in Lagrangian (unperturbed) coordinates, box units.

    ``center`` is wrapped periodically; ``half_size`` in (0, 0.5].
    """

    center: Tuple[float, float, float]
    half_size: float

    def __post_init__(self):
        if not 0 < self.half_size <= 0.5:
            raise ValueError("half_size must be in (0, 0.5]")

    def contains(self, q: np.ndarray) -> np.ndarray:
        """Periodic-aware membership of Lagrangian points (N, 3) -> bool."""
        q = np.asarray(q, dtype=np.float64)
        d = np.abs(q - np.asarray(self.center))
        d = np.minimum(d, 1.0 - d)
        return np.all(d <= self.half_size + 1e-12, axis=1)


@dataclass
class InitialConditions:
    """The output of the GRAFIC substitute."""

    particles: ParticleSet
    a_start: float
    boxsize_mpc_h: float
    cosmology: Cosmology
    levelmin: int                       # log2 of the coarse lattice
    levelmax: int                       # log2 of the finest lattice
    regions: List[ZoomRegion] = field(default_factory=list)
    seed: int = 0

    @property
    def n_levels(self) -> int:
        return self.levelmax - self.levelmin + 1


def _check_power_of_two(n: int, name: str) -> int:
    if n < 2 or (n & (n - 1)) != 0:
        raise ValueError(f"{name} must be a power of two >= 2, got {n}")
    return int(np.log2(n))


def make_single_level_ic(n_per_side: int, boxsize_mpc_h: float,
                         cosmology: Cosmology, a_start: float = 0.02,
                         seed: int = 0) -> InitialConditions:
    """Standard single-level ICs: n^3 equal-mass particles."""
    level = _check_power_of_two(n_per_side, "n_per_side")
    if not 0 < a_start < 1:
        raise ValueError("a_start must be in (0, 1)")
    generator = GaussianFieldGenerator(PowerSpectrum(cosmology),
                                       boxsize_mpc_h, n_fine=n_per_side,
                                       seed=seed)
    parts = ParticleSet.uniform_lattice(n_per_side)
    psi = generator.displacement(n_per_side)
    x, p = displace_lattice(parts.x, psi, cosmology, a_start)
    parts.x[:] = x
    parts.p[:] = p
    return InitialConditions(particles=parts, a_start=a_start,
                             boxsize_mpc_h=boxsize_mpc_h, cosmology=cosmology,
                             levelmin=level, levelmax=level, seed=seed)


def _level_lattice_points(lv: int, n_coarse: int, n_levels: int,
                          regions: Sequence[ZoomRegion]) -> np.ndarray:
    """Lagrangian lattice points carrying level-``lv`` particles.

    Levels form a strict refinement tree: a level-k cell is *refined* when
    it is active and its centre lies inside ``regions[k]``; a cell is
    *active* when every ancestor was refined.  A level-``lv`` particle
    exists where its cell is active but not refined.  Each refinement
    replaces exactly one parent particle by 8 children (membership is
    always evaluated at cell-centre granularity, never by slicing cells
    with the raw region boundary), so the total mass is exactly 1 for any
    region centre, size, or depth — including degenerate regions too small
    to contain any parent cell, which then refine nothing.
    """
    n_l = n_coarse * 2 ** lv
    q1 = (np.arange(n_l) + 0.5) / n_l
    q = np.stack(np.meshgrid(q1, q1, q1, indexing="ij"), axis=-1).reshape(-1, 3)

    active = np.ones(len(q), dtype=bool)
    for k in range(lv):
        n_k = n_coarse * 2 ** k
        ancestor_centers = (np.floor(q * n_k) + 0.5) / n_k
        active &= regions[k].contains(ancestor_centers)
    if lv < n_levels:
        refined = active & regions[lv].contains(q)
    else:
        refined = np.zeros(len(q), dtype=bool)
    return q[active & ~refined]


def make_multi_level_ic(n_coarse: int, boxsize_mpc_h: float,
                        cosmology: Cosmology,
                        center: Sequence[float], n_levels: int,
                        region_half_size: float,
                        a_start: float = 0.02, seed: int = 0
                        ) -> InitialConditions:
    """Russian-doll multi-level ICs around ``center``.

    ``n_levels`` counts the *additional* refinement levels (the paper's
    "number of zoom levels (number of nested boxes)" profile argument);
    each level doubles the lattice resolution and halves the box.  The
    returned particle set mixes masses:
    ``1/n_l^3`` for the lattice of level ``l``.
    """
    level0 = _check_power_of_two(n_coarse, "n_coarse")
    if n_levels < 1:
        raise ValueError("need at least one zoom level")
    if not 0 < a_start < 1:
        raise ValueError("a_start must be in (0, 1)")
    center = tuple(float(c) % 1.0 for c in center)
    if len(center) != 3:
        raise ValueError("center must have three coordinates")

    regions = [ZoomRegion(center, region_half_size * 0.5 ** lv)
               for lv in range(n_levels)]
    n_finest = n_coarse * 2 ** n_levels
    spectrum = PowerSpectrum(cosmology)
    generator = GaussianFieldGenerator(spectrum, boxsize_mpc_h,
                                       n_fine=n_finest, seed=seed)

    pieces: List[ParticleSet] = []
    next_id = 0
    for lv in range(n_levels + 1):
        n_l = n_coarse * 2 ** lv
        q = _level_lattice_points(lv, n_coarse, n_levels, regions)
        if len(q) == 0:
            continue
        psi = generator.displacement(n_l)
        x, p = displace_lattice(q, psi, cosmology, a_start)
        mass = np.full(len(q), 1.0 / n_l ** 3)
        ids = np.arange(next_id, next_id + len(q), dtype=np.int64)
        next_id += len(q)
        pieces.append(ParticleSet(x, p, mass,
                                  ids, np.full(len(q), lv, dtype=np.int16)))
    parts = ParticleSet.concatenate(pieces)
    return InitialConditions(particles=parts, a_start=a_start,
                             boxsize_mpc_h=boxsize_mpc_h, cosmology=cosmology,
                             levelmin=level0, levelmax=level0 + n_levels,
                             regions=regions, seed=seed)

"""Adaptive mesh refinement bookkeeping.

RAMSES is a tree-based AMR code: cells refine where the local particle
count exceeds a threshold (quasi-Lagrangian refinement).  Our force solver
is particle-mesh at the finest required level over the zoom region (see
DESIGN.md for the substitution argument), but the AMR *structure* matters
in its own right:

* it drives the cost model (CPU time scales with the total number of
  cells across levels plus particle operations);
* snapshot headers record ``levelmin``/``levelmax``/cell counts like RAMSES
  outputs do;
* the Figure-3 analogue measures how many extra levels the zoom region
  triggers.

:class:`AmrHierarchy` builds the level-by-level refinement map top-down
from a particle distribution.  A level is kept sparse, as the sorted flat
ids of its active cells: a zoom snapshot occupies ~10^4 of the 256^3 cells
of level 8, so a dense grid per level is almost all zeros (and was 128 MiB
of them).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

__all__ = ["AmrLevel", "AmrHierarchy", "build_amr", "parent_cell_ids"]


@dataclass
class AmrLevel:
    """One refinement level.

    Cells are named by their flat id ``(ix * n_side + iy) * n_side + iz``.
    ``refined_ids`` are the active cells that spawn children on the next
    level (a subset of ``cell_ids``); leaf cells are active-but-not-refined.
    """

    level: int
    n_side: int
    cell_ids: np.ndarray      # int64, ascending: cells that exist in the tree
    refined_ids: np.ndarray   # int64, ascending: cells that are split further

    @property
    def n_cells(self) -> int:
        """Active cells at this level (cells that exist in the tree)."""
        return len(self.cell_ids)

    @property
    def n_leaves(self) -> int:
        return len(self.cell_ids) - len(self.refined_ids)


def parent_cell_ids(cell_ids: np.ndarray, level: int) -> np.ndarray:
    """Flat ids, at ``level - 1``, of the cells containing ``cell_ids``
    (flat ids at ``level``)."""
    low = (1 << level) - 1
    ix = cell_ids >> (2 * level)
    iy = (cell_ids >> level) & low
    iz = cell_ids & low
    up = level - 1
    return ((((ix >> 1) << up) | (iy >> 1)) << up) | (iz >> 1)


@dataclass
class AmrHierarchy:
    """The refinement tree summary for one particle snapshot."""

    levelmin: int
    levelmax: int
    levels: List[AmrLevel] = field(default_factory=list)

    @property
    def total_cells(self) -> int:
        return sum(lv.n_cells for lv in self.levels)

    @property
    def deepest_refined_level(self) -> int:
        for lv in reversed(self.levels):
            if lv.n_cells > 0:
                return lv.level
        return self.levelmin

    def cells_per_level(self) -> Dict[int, int]:
        return {lv.level: lv.n_cells for lv in self.levels}

    def work_units(self, cell_cost: float = 1.0, particle_cost: float = 2.0,
                   n_particles: int = 0) -> float:
        """Normalized work proxy for the cost model: sweep cost over the
        tree plus per-particle cost (deeper levels step more often, so each
        level is weighted by 2**(level - levelmin), RAMSES' subcycling)."""
        work = 0.0
        for lv in self.levels:
            work += cell_cost * lv.n_cells * 2.0 ** (lv.level - self.levelmin)
        return work + particle_cost * n_particles


def build_amr(x: np.ndarray, mass: np.ndarray, levelmin: int, levelmax: int,
              m_refine: float = 8.0) -> AmrHierarchy:
    """Quasi-Lagrangian refinement map for a particle distribution.

    A cell at level L refines when it holds more than ``m_refine`` times
    the *coarse-particle* mass quantum — i.e. roughly more than ``m_refine``
    high-resolution particles, matching RAMSES' ``m_refine`` namelist
    parameter.  Refinement is strictly nested: a cell only refines if its
    parent did (enforced top-down).
    """
    if not 1 <= levelmin <= levelmax:
        raise ValueError("need 1 <= levelmin <= levelmax")
    x = np.asarray(x, dtype=np.float64)
    mass = np.asarray(mass, dtype=np.float64)
    if len(x) == 0:
        raise ValueError("empty particle set")
    total_mass = mass.sum()
    # Mass quantum: the smallest particle mass present (the zoom species).
    quantum = float(mass.min())
    if quantum <= 0:
        raise ValueError("particle masses must be positive")

    levels: List[AmrLevel] = []
    no_cells = np.empty(0, dtype=np.int64)
    parent_refined = None
    for level in range(levelmin, levelmax + 1):
        n_side = 1 << level
        cells = np.clip((x * n_side).astype(np.int64), 0, n_side - 1)
        flat = (cells[:, 0] * n_side + cells[:, 1]) * n_side + cells[:, 2]
        # Every mass is positive, so the cells holding mass are the cells
        # holding a particle; bincount adds each cell's particles in input
        # order, as it would on the dense grid.
        cell_ids, inverse = np.unique(flat, return_inverse=True)
        cell_mass = np.bincount(inverse, weights=mass)
        if parent_refined is None:
            # Sanity: the level-min cells must account for all mass.
            if abs(float(cell_mass.sum()) - total_mass) > 1e-9 * max(total_mass, 1.0):
                raise AssertionError("mass bookkeeping error in AMR build")
        else:
            # strict nesting: only cells whose parent refined are active
            active = np.isin(parent_cell_ids(cell_ids, level), parent_refined)
            cell_ids, cell_mass = cell_ids[active], cell_mass[active]
        if level < levelmax:
            parent_refined = cell_ids[cell_mass > m_refine * quantum]
        else:
            parent_refined = no_cells
        levels.append(AmrLevel(level, n_side, cell_ids, parent_refined))
        if not len(parent_refined):
            # nothing deeper can exist; fill the remaining levels as empty
            for deeper in range(level + 1, levelmax + 1):
                levels.append(AmrLevel(deeper, 1 << deeper, no_cells, no_cells))
            break

    return AmrHierarchy(levelmin=levelmin, levelmax=levelmax, levels=levels)

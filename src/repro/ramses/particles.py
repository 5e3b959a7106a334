"""Particle storage: a struct-of-arrays container for dark-matter particles.

Positions are comoving box units in [0, 1); momenta are the code momenta
``p = a^2 dx/dt`` (see :mod:`repro.ramses.units`).  Masses are in units of
the *total box mass* so that a uniform single-level run has
``mass = 1 / n_particles`` and the sum over all particles is exactly 1 —
a property the CIC/FFT chain and the tests rely on.  Zoom runs mix masses
(small in the refined Lagrangian region, large outside).

Arrays are kept contiguous float64/int64 (guide: views-not-copies; all
kernels are vectorized over these arrays).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["ParticleSet"]


@dataclass
class ParticleSet:
    """Struct-of-arrays particle container.

    Attributes
    ----------
    x : (N, 3) float64 — comoving positions in [0, 1)
    p : (N, 3) float64 — code momenta
    mass : (N,) float64 — masses, total box mass == 1 for a full box
    ids : (N,) int64 — persistent identifiers (used by TreeMaker)
    level : (N,) int16 — generation level (0 = coarse, >=1 = zoom levels)
    """

    x: np.ndarray
    p: np.ndarray
    mass: np.ndarray
    ids: np.ndarray
    level: np.ndarray

    def __post_init__(self):
        self.x = np.ascontiguousarray(self.x, dtype=np.float64)
        self.p = np.ascontiguousarray(self.p, dtype=np.float64)
        self.mass = np.ascontiguousarray(self.mass, dtype=np.float64)
        self.ids = np.ascontiguousarray(self.ids, dtype=np.int64)
        self.level = np.ascontiguousarray(self.level, dtype=np.int16)
        n = len(self.x)
        if self.x.shape != (n, 3) or self.p.shape != (n, 3):
            raise ValueError("x and p must be (N, 3) arrays")
        if self.mass.shape != (n,) or self.ids.shape != (n,) or self.level.shape != (n,):
            raise ValueError("mass, ids and level must be (N,) arrays")
        if np.any(self.mass < 0):
            raise ValueError("negative particle mass")

    # -- constructors ---------------------------------------------------------------

    @classmethod
    def empty(cls) -> "ParticleSet":
        return cls(np.empty((0, 3)), np.empty((0, 3)), np.empty(0),
                   np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int16))

    @classmethod
    def uniform_lattice(cls, n_per_side: int) -> "ParticleSet":
        """Unperturbed Lagrangian lattice of n^3 equal-mass particles."""
        if n_per_side < 1:
            raise ValueError("n_per_side must be >= 1")
        n = n_per_side
        q = (np.arange(n) + 0.5) / n
        grid = np.stack(np.meshgrid(q, q, q, indexing="ij"), axis=-1).reshape(-1, 3)
        npart = n ** 3
        return cls(grid, np.zeros_like(grid), np.full(npart, 1.0 / npart),
                   np.arange(npart, dtype=np.int64),
                   np.zeros(npart, dtype=np.int16))

    # -- basics --------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.x)

    @property
    def total_mass(self) -> float:
        return float(self.mass.sum())

    def copy(self) -> "ParticleSet":
        return ParticleSet(self.x.copy(), self.p.copy(), self.mass.copy(),
                           self.ids.copy(), self.level.copy())

    def select(self, index) -> "ParticleSet":
        """Subset by boolean mask or integer index array (copies)."""
        return ParticleSet(self.x[index], self.p[index], self.mass[index],
                           self.ids[index], self.level[index])

    @classmethod
    def concatenate(cls, parts: Sequence["ParticleSet"]) -> "ParticleSet":
        if not parts:
            return cls.empty()
        return cls(np.concatenate([p.x for p in parts]),
                   np.concatenate([p.p for p in parts]),
                   np.concatenate([p.mass for p in parts]),
                   np.concatenate([p.ids for p in parts]),
                   np.concatenate([p.level for p in parts]))

    def wrap(self) -> None:
        """Apply periodic boundary conditions in place."""
        np.mod(self.x, 1.0, out=self.x)

    def validate(self) -> None:
        """Invariant checks used by integration tests."""
        if np.any(~np.isfinite(self.x)) or np.any(~np.isfinite(self.p)):
            raise ValueError("non-finite particle state")
        if np.any(self.x < 0) or np.any(self.x >= 1.0):
            raise ValueError("positions outside [0, 1) - call wrap()")
        if len(np.unique(self.ids)) != len(self.ids):
            raise ValueError("duplicate particle ids")

    def __repr__(self) -> str:
        lv = np.bincount(self.level.astype(np.int64)) if len(self) else []
        return (f"ParticleSet(N={len(self)}, total_mass={self.total_mass:.6g}, "
                f"levels={list(lv)})")

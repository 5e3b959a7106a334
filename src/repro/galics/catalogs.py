"""Catalog containers shared by the GALICS chain (HaloMaker -> TreeMaker ->
GalaxyMaker), plus their on-disk form.

The paper's workflow hands "a catalog of dark matter halos [...] containing
each halo position, mass and velocity" from the first simulation to the
zoom selection step, and ships post-processed results back in the result
tarball.  Catalogs serialize to Fortran unformatted records (like GALICS'
"tree bricks" files) through :func:`write_halo_catalog` /
:func:`read_halo_catalog`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from ..ramses.io import FortranRecordFile

__all__ = ["Halo", "HaloCatalog", "Galaxy", "GalaxyCatalog",
           "write_halo_catalog", "read_halo_catalog"]


@dataclass
class Halo:
    """One dark-matter halo (position/mass/velocity, §3)."""

    halo_id: int
    center: np.ndarray          # (3,) comoving box units
    mass: float                 # box-mass units (total box == 1)
    velocity: np.ndarray        # (3,) mean peculiar velocity, code units
    n_particles: int
    radius: float               # max member distance from centre, box units
    member_ids: np.ndarray      # (n_particles,) int64

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=np.float64)
        self.velocity = np.asarray(self.velocity, dtype=np.float64)
        self.member_ids = np.asarray(self.member_ids, dtype=np.int64)
        if self.center.shape != (3,) or self.velocity.shape != (3,):
            raise ValueError("center and velocity must be 3-vectors")
        if self.n_particles != len(self.member_ids):
            raise ValueError("n_particles disagrees with member_ids")


@dataclass
class HaloCatalog:
    """All halos of one snapshot, sorted by decreasing mass."""

    aexp: float
    halos: List[Halo] = field(default_factory=list)

    def __post_init__(self):
        self.halos.sort(key=lambda h: -h.mass)

    def __len__(self) -> int:
        return len(self.halos)

    def __iter__(self):
        return iter(self.halos)

    def __getitem__(self, i: int) -> Halo:
        return self.halos[i]

    def by_id(self, halo_id: int) -> Halo:
        for h in self.halos:
            if h.halo_id == halo_id:
                return h
        raise KeyError(f"no halo {halo_id}")

    def masses(self) -> np.ndarray:
        return np.array([h.mass for h in self.halos])

    def mass_function(self, n_bins: int = 8):
        """(bin centres, counts) of the halo mass function (log bins)."""
        m = self.masses()
        if len(m) == 0:
            return np.array([]), np.array([])
        lo, hi = np.log10(m.min() * 0.999), np.log10(m.max() * 1.001)
        edges = np.linspace(lo, hi, n_bins + 1)
        counts, _ = np.histogram(np.log10(m), bins=edges)
        centres = 10 ** (0.5 * (edges[:-1] + edges[1:]))
        return centres, counts


@dataclass
class Galaxy:
    """One semi-analytic galaxy (GalaxyMaker output)."""

    galaxy_id: int
    halo_id: int
    stellar_mass: float         # box-mass units
    cold_gas: float
    hot_gas: float
    bulge_mass: float
    sfr: float                  # star-formation rate, box-mass per 1/H0
    position: np.ndarray        # (3,) box units

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=np.float64)

    @property
    def bulge_fraction(self) -> float:
        return self.bulge_mass / self.stellar_mass if self.stellar_mass > 0 else 0.0


@dataclass
class GalaxyCatalog:
    aexp: float
    galaxies: List[Galaxy] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.galaxies)

    def __iter__(self):
        return iter(self.galaxies)

    def stellar_masses(self) -> np.ndarray:
        return np.array([g.stellar_mass for g in self.galaxies])

    def total_stellar_mass(self) -> float:
        return float(self.stellar_masses().sum()) if self.galaxies else 0.0


def write_halo_catalog(path: str, catalog: HaloCatalog) -> None:
    """GALICS-style 'tree brick': Fortran unformatted halo records."""
    with open(path, "wb") as raw:
        rec = FortranRecordFile(raw)
        rec.write_ints(len(catalog))
        rec.write_doubles(catalog.aexp)
        for h in catalog:
            rec.write_ints(h.halo_id, h.n_particles)
            rec.write_doubles(h.mass, h.radius, *h.center, *h.velocity)
            rec.write_record(h.member_ids.astype("<i8"))


def read_halo_catalog(path: str) -> HaloCatalog:
    with open(path, "rb") as raw:
        rec = FortranRecordFile(raw)
        n = int(rec.read_ints()[0])
        aexp = float(rec.read_doubles()[0])
        halos: List[Halo] = []
        for _ in range(n):
            ints = rec.read_ints()
            halo_id, npart = int(ints[0]), int(ints[1])
            d = rec.read_doubles()
            mass, radius = float(d[0]), float(d[1])
            center, velocity = d[2:5].copy(), d[5:8].copy()
            member_ids = rec.read_longs().copy()
            halos.append(Halo(halo_id, center, mass, velocity, npart,
                              radius, member_ids))
    return HaloCatalog(aexp=aexp, halos=halos)

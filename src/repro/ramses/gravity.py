"""The PM gravity kernel: particles -> density -> potential -> accelerations.

Chains CIC deposit, the FFT Poisson solve with the cosmological source term

    laplacian(phi) = (3/2) * Omega_m * delta / a

and CIC interpolation of ``-grad(phi)`` back to the particles.  This is the
"N body solver" of the paper's §3 at fixed resolution; the zoom machinery
(:mod:`repro.ramses.zoom`) raises the grid resolution where the multi-level
initial conditions placed small-mass particles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .cosmology import Cosmology
from .mesh import cic_interpolate, cic_weights, density_contrast
from .poisson import SpectralOperators, acceleration_from_source

__all__ = ["GravitySolver", "PMForceResult"]


@dataclass
class PMForceResult:
    """Outputs of one force evaluation (kept for diagnostics/outputs)."""

    delta: np.ndarray          # density contrast grid
    phi: np.ndarray            # potential grid
    acc: np.ndarray            # (N, 3) particle accelerations
    a: float                   # expansion factor of the evaluation


class GravitySolver:
    """Particle-mesh gravity at a fixed grid resolution."""

    def __init__(self, cosmology: Cosmology, n_grid: int,
                 kernel: str = "spectral", deconvolve_cic: bool = True):
        if n_grid < 2:
            raise ValueError("n_grid must be >= 2")
        self.cosmology = cosmology
        self.n_grid = int(n_grid)
        self.kernel = kernel
        self.deconvolve_cic = bool(deconvolve_cic)
        self._ops = SpectralOperators.build(self.n_grid, kernel)
        #: Calls of :meth:`accelerations` so far (a run records its share
        #: in ``SimulationResult.force_evaluations``).
        self.force_evaluations = 0

    def density(self, x: np.ndarray, mass: np.ndarray) -> np.ndarray:
        """Density contrast of the particle distribution on the PM grid."""
        return density_contrast(x, mass, self.n_grid)

    def accelerations(self, x: np.ndarray, mass: np.ndarray, a: float,
                      return_fields: bool = False) -> PMForceResult:
        """Evaluate accelerations d p / d t = -grad(phi) at the particles.

        (The integrator divides by a*H(a) to convert to d p / d a.)
        """
        if a <= 0:
            raise ValueError("expansion factor must be positive")
        self.force_evaluations += 1
        # The deposit and the gather happen at the same positions on the
        # same grid: price the CIC weights once for both directions.
        weights = cic_weights(x, self.n_grid)
        delta = density_contrast(x, mass, self.n_grid, weights=weights)
        source = (1.5 * self.cosmology.omega_m / a) * delta
        phi, acc_grid = acceleration_from_source(
            source, kernel=self.kernel, deconvolve_cic=self.deconvolve_cic,
            ops=self._ops)
        acc = cic_interpolate(acc_grid, x, weights=weights)
        if return_fields:
            return PMForceResult(delta=delta, phi=phi, acc=acc, a=a)
        return PMForceResult(delta=delta, phi=np.empty(0), acc=acc, a=a)

    def potential_energy_proxy(self, x: np.ndarray, mass: np.ndarray,
                               a: float) -> float:
        """0.5 * sum(m_i * phi(x_i)): a diagnostic scalar for tests."""
        weights = cic_weights(x, self.n_grid)
        delta = density_contrast(x, mass, self.n_grid, weights=weights)
        source = (1.5 * self.cosmology.omega_m / a) * delta
        phi, _ = acceleration_from_source(
            source, kernel=self.kernel, deconvolve_cic=self.deconvolve_cic,
            ops=self._ops)
        phi_p = cic_interpolate(phi, x, weights=weights)
        return float(0.5 * np.sum(mass * phi_p))

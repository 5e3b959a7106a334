"""Second-order Lagrangian perturbation theory (2LPT) displacements.

GRAFIC generates Zel'dovich (1LPT) initial conditions; starting late (as
zoom re-simulations often must, to keep the particle load down) makes the
missing second-order terms visible as transients.  This module adds them:

    x(q, a) = q + D1(a) psi1(q) + D2(a) psi2(q)

with ``psi1 = grad(phiA)``, ``laplacian(phiA) = -delta`` (the convention of
:mod:`.gaussian_field`), and the second-order potential solving

    laplacian(phi2) = sum_{i<j} [phiA,ii phiA,jj - (phiA,ij)^2]

with ``psi2 = grad(phi2)`` and the growth-factor ratio

    D2(a) = -3/7 D1(a)^2 Omega_m(a)^(-1/143)

(Bouchet et al. 1995).  The sign conventions were validated numerically:
tests check that 2LPT initial conditions at a late start match the PM
evolution of early Zel'dovich initial conditions better than late
Zel'dovich ones do, and that a 1-d plane wave has exactly zero
second-order displacement (Zel'dovich is exact in 1-d).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..ramses.cosmology import Cosmology
from ..ramses.mesh import cic_interpolate
from ..ramses.particles import ParticleSet
from .gaussian_field import GaussianFieldGenerator
from .ic import InitialConditions
from .power_spectrum import PowerSpectrum

__all__ = ["second_order_displacement", "d2_growth", "d2_growth_rate",
           "make_single_level_ic_2lpt"]


def second_order_displacement(generator: GaussianFieldGenerator,
                              n: int) -> np.ndarray:
    """psi2 on an n-grid, box units (to be scaled by D2(a))."""
    d_hat = generator.delta_hat(n)
    k1 = 2.0 * np.pi * np.fft.fftfreq(n, d=generator.boxsize / n)
    k = [k1[:, None, None], k1[None, :, None], k1[None, None, :]]
    k2 = k[0] ** 2 + k[1] ** 2 + k[2] ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        inv_k2 = np.where(k2 > 0, 1.0 / k2, 0.0)

    # phiA_hat with laplacian(phiA) = -delta  =>  phiA_hat = delta_hat / k^2
    phiA_hat = d_hat * inv_k2
    # second derivatives phiA,ij = -(k_i k_j) phiA in Fourier space
    dij = {}
    for i in range(3):
        for j in range(i, 3):
            dij[(i, j)] = np.real(np.fft.ifftn(-k[i] * k[j] * phiA_hat))

    source = (dij[(0, 0)] * dij[(1, 1)] - dij[(0, 1)] ** 2
              + dij[(0, 0)] * dij[(2, 2)] - dij[(0, 2)] ** 2
              + dij[(1, 1)] * dij[(2, 2)] - dij[(1, 2)] ** 2)

    # laplacian(phi2) = source  =>  phi2_hat = -source_hat / k^2
    s_hat = np.fft.fftn(source)
    phi2_hat = -s_hat * inv_k2
    phi2_hat[0, 0, 0] = 0.0
    psi2 = np.empty((n, n, n, 3))
    for i in range(3):
        psi2[..., i] = np.real(np.fft.ifftn(1j * k[i] * phi2_hat))
    # source and psi1 are in Mpc/h units squared / Mpc/h; convert the final
    # displacement to box units (one factor: psi2 has units of length)
    psi2 /= generator.boxsize
    return psi2


def d2_growth(cosmology: Cosmology, a: float) -> float:
    """Second-order growth factor D2(a) (negative by convention)."""
    d1 = float(cosmology.growth_factor(a))
    om = float(cosmology.omega_m_a(a))
    return -3.0 / 7.0 * d1 * d1 * om ** (-1.0 / 143.0)


def d2_growth_rate(cosmology: Cosmology, a: float) -> float:
    """dD2/da by centred difference (relative step 1e-5)."""
    lo = max(a * (1 - 1e-5), 1e-8)
    hi = a * (1 + 1e-5)
    return (d2_growth(cosmology, hi) - d2_growth(cosmology, lo)) / (hi - lo)


def make_single_level_ic_2lpt(n_per_side: int, boxsize_mpc_h: float,
                              cosmology: Cosmology, a_start: float = 0.1,
                              seed: int = 0,
                              transfer: str = "eisenstein_hu",
                              generator: Optional[GaussianFieldGenerator] = None
                              ) -> InitialConditions:
    """Single-level ICs with 2LPT displacements and momenta."""
    level = int(np.log2(n_per_side))
    if 2 ** level != n_per_side:
        raise ValueError("n_per_side must be a power of two")
    if not 0 < a_start < 1:
        raise ValueError("a_start must be in (0, 1)")
    if generator is None:
        spectrum = PowerSpectrum(cosmology, transfer=transfer)
        generator = GaussianFieldGenerator(spectrum, boxsize_mpc_h,
                                           n_fine=n_per_side, seed=seed)
    parts = ParticleSet.uniform_lattice(n_per_side)
    q = parts.x.copy()
    psi1 = cic_interpolate(generator.displacement(n_per_side), q)
    psi2 = cic_interpolate(second_order_displacement(generator, n_per_side), q)

    d1 = float(cosmology.growth_factor(a_start))
    d2 = d2_growth(cosmology, a_start)
    h = float(cosmology.hubble(a_start))
    d1dot = float(cosmology.growth_rate(a_start))
    d2dot = d2_growth_rate(cosmology, a_start)

    parts.x = np.mod(q + d1 * psi1 + d2 * psi2, 1.0)
    parts.p = a_start ** 3 * h * (d1dot * psi1 + d2dot * psi2)
    return InitialConditions(particles=parts, a_start=a_start,
                             boxsize_mpc_h=boxsize_mpc_h, cosmology=cosmology,
                             levelmin=level, levelmax=level, seed=seed)

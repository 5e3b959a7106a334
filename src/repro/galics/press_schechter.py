"""Press-Schechter halo mass function — the theory check on HaloMaker.

The paper's halo catalogs ("containing each halo position, mass and
velocity") are credible only if their abundance matches analytic
expectations.  Press & Schechter (1974):

    dn/dlnM = sqrt(2/pi) (rho_mean / M) nu exp(-nu^2 / 2) |dln sigma/dln M|

with ``nu = delta_c / (D(a) sigma(M))``, ``delta_c = 1.686`` the spherical
collapse threshold, and ``sigma(M)`` the z=0 top-hat fluctuation amplitude
on the Lagrangian scale ``R(M) = (3M / 4 pi rho_mean)^(1/3)``.

Units: masses in Msun/h, lengths in Mpc/h, number densities in (Mpc/h)^-3,
matching :class:`repro.ramses.units.Units`.
"""

from __future__ import annotations

import numpy as np

from ..grafic.power_spectrum import PowerSpectrum
from ..ramses.cosmology import Cosmology
from ..ramses.units import RHO_CRIT_MSUN_H2_MPC3

__all__ = ["DELTA_C", "lagrangian_radius", "sigma_of_mass",
           "press_schechter_dndlnm", "expected_halo_counts"]

#: Spherical-collapse linear threshold.
DELTA_C = 1.686


def mean_matter_density(cosmology: Cosmology) -> float:
    """rho_mean today, (Msun/h) / (Mpc/h)^3."""
    return cosmology.omega_m * RHO_CRIT_MSUN_H2_MPC3


def lagrangian_radius(mass_msun_h: np.ndarray,
                      cosmology: Cosmology) -> np.ndarray:
    """Top-hat radius enclosing ``mass`` at the mean density, Mpc/h."""
    mass = np.asarray(mass_msun_h, dtype=float)
    return (3.0 * mass / (4.0 * np.pi * mean_matter_density(cosmology))) ** (1 / 3)


def sigma_of_mass(mass_msun_h: np.ndarray, spectrum: PowerSpectrum
                  ) -> np.ndarray:
    """sigma(M) at z=0 for an array of masses."""
    mass = np.atleast_1d(np.asarray(mass_msun_h, dtype=float))
    radii = lagrangian_radius(mass, spectrum.cosmology)
    return np.array([spectrum.sigma_r(float(r)) for r in radii])


def press_schechter_dndlnm(mass_msun_h: np.ndarray, spectrum: PowerSpectrum,
                           aexp: float = 1.0) -> np.ndarray:
    """dn/dlnM in (Mpc/h)^-3 at expansion factor ``aexp``."""
    mass = np.atleast_1d(np.asarray(mass_msun_h, dtype=float))
    if np.any(mass <= 0):
        raise ValueError("masses must be positive")
    cosmo = spectrum.cosmology
    growth = float(cosmo.growth_factor(aexp))
    sigma = sigma_of_mass(mass, spectrum) * growth
    # dln sigma / dln M by central differences on log-spaced evaluations
    eps = 0.02
    sig_hi = sigma_of_mass(mass * (1 + eps), spectrum) * growth
    sig_lo = sigma_of_mass(mass * (1 - eps), spectrum) * growth
    dlnsig_dlnm = (np.log(sig_hi) - np.log(sig_lo)) / (2 * eps)
    nu = DELTA_C / sigma
    rho = mean_matter_density(cosmo)
    return (np.sqrt(2.0 / np.pi) * (rho / mass) * nu
            * np.exp(-0.5 * nu ** 2) * np.abs(dlnsig_dlnm))


def expected_halo_counts(mass_edges_msun_h: np.ndarray,
                         spectrum: PowerSpectrum, boxsize_mpc_h: float,
                         aexp: float = 1.0, n_sub: int = 8) -> np.ndarray:
    """Expected halo counts per mass bin in a ``boxsize`` box.

    Integrates dn/dlnM over each bin with log-spaced sub-sampling.
    """
    edges = np.asarray(mass_edges_msun_h, dtype=float)
    if np.any(np.diff(edges) <= 0):
        raise ValueError("mass edges must be increasing")
    volume = boxsize_mpc_h ** 3
    counts = np.empty(len(edges) - 1)
    for i, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
        lnm = np.linspace(np.log(lo), np.log(hi), n_sub)
        dndlnm = press_schechter_dndlnm(np.exp(lnm), spectrum, aexp)
        counts[i] = np.trapezoid(dndlnm, lnm) * volume
    return counts

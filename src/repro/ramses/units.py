"""Code units and physical constants for the cosmological solver.

The solver works in the dimensionless unit system standard for PM codes
(and equivalent to RAMSES' supercomoving variables up to constant factors):

* comoving positions ``x`` in box units, i.e. ``x in [0, 1)``;
* the expansion factor ``a`` is the time variable;
* ``H0 = 1``: times are in units of the Hubble time ``1/H0``;
* momenta ``p = a^2 dx/dt`` (so the equations of motion are
  ``dx/da = p / (a^3 H(a))``, ``dp/da = -grad(phi) / (a H(a))``);
* the peculiar potential obeys ``laplacian(phi) = (3/2) Omega_m delta / a``.

Conversions to astronomer units (Msun/h) are provided for the GALICS
post-processing chain.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Units", "RHO_CRIT_MSUN_H2_MPC3"]

#: Critical density today, in (Msun/h) / (Mpc/h)^3.
RHO_CRIT_MSUN_H2_MPC3 = 2.77536627e11


@dataclass(frozen=True)
class Units:
    """Conversion factors for a box of ``boxlen_mpc_h`` comoving Mpc/h."""

    boxlen_mpc_h: float
    omega_m: float = 0.3

    def __post_init__(self):
        if self.boxlen_mpc_h <= 0:
            raise ValueError("box length must be positive")
        if not 0 < self.omega_m <= 1.5:
            raise ValueError("unphysical Omega_m")

    # -- masses -------------------------------------------------------------------

    @property
    def total_mass_msun_h(self) -> float:
        """Total dark-matter mass in the box, Msun/h (mean density assumed)."""
        return self.omega_m * RHO_CRIT_MSUN_H2_MPC3 * self.boxlen_mpc_h ** 3

    def particle_mass_msun_h(self, n_particles: int) -> float:
        if n_particles < 1:
            raise ValueError("need at least one particle")
        return self.total_mass_msun_h / n_particles

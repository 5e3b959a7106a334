"""Unit tests for the unit system."""

import pytest

from repro.ramses import Units
from repro.ramses.units import RHO_CRIT_MSUN_H2_MPC3


class TestLengths:
    def test_validation(self):
        with pytest.raises(ValueError):
            Units(-1.0)
        with pytest.raises(ValueError):
            Units(100.0, omega_m=2.0)


class TestMasses:
    def test_total_box_mass(self):
        u = Units(100.0, omega_m=0.3)
        expected = 0.3 * RHO_CRIT_MSUN_H2_MPC3 * 1e6
        assert u.total_mass_msun_h == pytest.approx(expected)

    def test_particle_mass(self):
        u = Units(100.0, omega_m=0.3)
        assert (u.particle_mass_msun_h(128 ** 3) * 128 ** 3
                == pytest.approx(u.total_mass_msun_h))

    def test_particle_mass_scale_sane(self):
        """128^3 particles in 100 Mpc/h: ~3e10 Msun/h each (the paper's
        low-resolution run)."""
        u = Units(100.0, omega_m=0.27)
        m = u.particle_mass_msun_h(128 ** 3)
        assert 1e10 < m < 1e11

    def test_zero_particles_rejected(self):
        with pytest.raises(ValueError):
            Units(100.0).particle_mass_msun_h(0)

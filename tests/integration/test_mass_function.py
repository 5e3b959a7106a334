"""Science validation: simulated halo abundance vs Press-Schechter.

The known systematics apply: PS overpredicts low-mass halos near the
16-particle resolution limit and underpredicts the massive tail
(Sheth-Tormen fixes that); order-of-magnitude agreement across the
resolved range is the expected outcome for a PM + FoF pipeline.
"""

import numpy as np
import pytest

from repro.galics import find_halos
from repro.galics.press_schechter import (
    expected_halo_counts,
    lagrangian_radius,
    press_schechter_dndlnm,
    sigma_of_mass,
)
from repro.grafic import PowerSpectrum, make_single_level_ic
from repro.ramses import LCDM_WMAP, RamsesRun, RunConfig, Units


@pytest.fixture(scope="module")
def spectrum():
    return PowerSpectrum(LCDM_WMAP)


class TestAnalytics:
    def test_lagrangian_radius_monotone(self, spectrum):
        r = lagrangian_radius(np.array([1e12, 1e13, 1e14]), LCDM_WMAP)
        assert np.all(np.diff(r) > 0)
        # 1e14 Msun/h encloses ~ 6-8 Mpc/h at mean density
        assert 5.0 < r[-1] < 10.0

    def test_sigma_decreasing_in_mass(self, spectrum):
        sig = sigma_of_mass(np.array([1e12, 1e13, 1e14, 1e15]), spectrum)
        assert np.all(np.diff(sig) < 0)

    def test_dndlnm_positive_and_cut_off(self, spectrum):
        masses = np.logspace(12, 16, 9)
        dn = press_schechter_dndlnm(masses, spectrum, aexp=1.0)
        assert np.all(dn > 0)
        # exponential cutoff: the last decade falls much faster than the first
        assert dn[-1] / dn[-2] < dn[1] / dn[0]

    def test_growth_boosts_abundance_at_high_mass(self, spectrum):
        m = np.array([5e14])
        early = press_schechter_dndlnm(m, spectrum, aexp=0.5)
        late = press_schechter_dndlnm(m, spectrum, aexp=1.0)
        assert late[0] > early[0]

    def test_expected_counts_volume_scaling(self, spectrum):
        edges = np.array([1e13, 1e14])
        small = expected_halo_counts(edges, spectrum, 50.0)
        large = expected_halo_counts(edges, spectrum, 100.0)
        assert large[0] == pytest.approx(8.0 * small[0], rel=1e-9)

    def test_input_validation(self, spectrum):
        with pytest.raises(ValueError):
            press_schechter_dndlnm(np.array([-1.0]), spectrum)
        with pytest.raises(ValueError):
            expected_halo_counts(np.array([1e14, 1e13]), spectrum, 100.0)


class TestAgainstSimulation:
    @pytest.fixture(scope="class")
    def measured(self):
        ic = make_single_level_ic(32, 100.0, LCDM_WMAP, a_start=0.05, seed=42)
        snap = RamsesRun(ic, RunConfig(a_end=1.0, n_steps=32,
                                       output_aexp=(1.0,))).run().final
        catalog = find_halos(snap.particles, snap.aexp, min_particles=16)
        units = Units(100.0, omega_m=LCDM_WMAP.omega_m)
        return catalog.masses() * units.total_mass_msun_h

    def test_total_abundance_order_of_magnitude(self, measured, spectrum):
        edges = np.array([measured.min() * 0.99, measured.max() * 1.01])
        expected = expected_halo_counts(edges, spectrum, 100.0)[0]
        assert expected / 4.0 < len(measured) < expected * 4.0

    def test_shape_per_bin(self, measured, spectrum):
        edges = np.logspace(np.log10(measured.min() * 0.99),
                            np.log10(measured.max() * 1.01), 4)
        counts, _ = np.histogram(measured, bins=edges)
        expected = expected_halo_counts(edges, spectrum, 100.0)
        for got, want in zip(counts, expected):
            assert want / 6.0 < max(got, 0.5) < want * 6.0

    def test_abundance_declines_with_mass(self, measured):
        edges = np.logspace(np.log10(measured.min() * 0.99),
                            np.log10(measured.max() * 1.01), 4)
        counts, _ = np.histogram(measured, bins=edges)
        assert counts[0] > counts[-1]

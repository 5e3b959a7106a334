"""Unit tests for the Born-approximation lensing kernels
(repro.survey.lensing)."""

import numpy as np

from repro.survey.lensing import (
    born_convergence,
    density_slabs,
    hubble_e,
    lens_planes,
    lensing_weights,
    stack_maps,
)

H0, OM = 72.0, 0.26


class TestBackground:
    def test_hubble_e_is_one_today(self):
        assert hubble_e(0.0, OM) == 1.0

    def test_hubble_e_grows_with_redshift(self):
        zs = np.linspace(0.0, 3.0, 10)
        es = [hubble_e(z, OM) for z in zs]
        assert all(b > a for a, b in zip(es, es[1:]))

    def test_dark_energy_equation_of_state_matters(self):
        _, fiducial, _ = lens_planes(1, 1.0, H0, OM, w0=-1.0)
        _, other, _ = lens_planes(1, 1.0, H0, OM, w0=-0.8)
        assert other[0] != fiducial[0]


class TestLensPlanes:
    def test_equal_comoving_spacing(self):
        z, chi, dchi = lens_planes(8, 1.0, H0, OM)
        assert len(z) == len(chi) == 8
        assert dchi > 0
        np.testing.assert_allclose(np.diff(chi), dchi, rtol=1e-6)

    def test_weights_positive_between_observer_and_source(self):
        weights = lensing_weights(8, 1.0, H0, OM)
        assert weights.shape == (8,)
        assert np.all(weights > 0)


class TestConvergence:
    def test_born_convergence_is_linear_in_the_slabs(self):
        rng = np.random.default_rng(3)
        slabs = rng.standard_normal((4, 8, 8))
        kappa = born_convergence(slabs, 1.0, H0, OM)
        doubled = born_convergence(2.0 * slabs, 1.0, H0, OM)
        assert kappa.shape == (8, 8)
        np.testing.assert_allclose(doubled, 2.0 * kappa, rtol=1e-10)

    def test_density_slabs_deterministic_per_seed(self):
        a = density_slabs(16, 4, seed=11)
        b = density_slabs(16, 4, seed=11)
        c = density_slabs(16, 4, seed=12)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_density_slabs_normalized_to_sigma8(self):
        slabs = density_slabs(32, 3, seed=5, sigma8=0.8)
        rms = np.sqrt((slabs**2).mean(axis=(1, 2)))
        np.testing.assert_allclose(rms, 0.8, rtol=1e-6)

    def test_stack_maps_weighted_mean(self):
        a, b = np.ones((4, 4)), 3.0 * np.ones((4, 4))
        stacked = stack_maps([a, b], [1, 3])
        np.testing.assert_allclose(stacked, 2.5)

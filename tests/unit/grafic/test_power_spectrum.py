"""Unit tests for the linear power spectrum."""

import numpy as np
import pytest

from repro.grafic import PowerSpectrum, transfer_bbks, transfer_eisenstein_hu
from repro.ramses import LCDM_WMAP, Cosmology


class TestTransferFunctions:
    @pytest.mark.parametrize("transfer", [transfer_bbks, transfer_eisenstein_hu])
    def test_normalized_at_large_scales(self, transfer):
        assert float(transfer(np.array([1e-6]), LCDM_WMAP)[0]) == pytest.approx(
            1.0, abs=1e-2)

    @pytest.mark.parametrize("transfer", [transfer_bbks, transfer_eisenstein_hu])
    def test_monotone_decreasing(self, transfer):
        k = np.logspace(-3, 2, 100)
        t = transfer(k, LCDM_WMAP)
        assert np.all(np.diff(t) <= 1e-12)

    @pytest.mark.parametrize("transfer", [transfer_bbks, transfer_eisenstein_hu])
    def test_small_scale_suppression(self, transfer):
        assert float(transfer(np.array([10.0]), LCDM_WMAP)[0]) < 1e-2

    def test_baryons_suppress_power(self):
        with_b = LCDM_WMAP
        no_b = Cosmology(omega_m=0.27, omega_l=0.73, h=0.71, sigma8=0.84,
                         n_s=0.99, omega_b=1e-4)
        k = np.array([1.0])
        assert float(transfer_eisenstein_hu(k, with_b)[0]) < float(
            transfer_eisenstein_hu(k, no_b)[0])


class TestPowerSpectrum:
    @pytest.fixture(scope="class")
    def ps(self):
        return PowerSpectrum(LCDM_WMAP)

    def test_sigma8_normalization(self, ps):
        assert ps.sigma8_check() == pytest.approx(LCDM_WMAP.sigma8, rel=1e-3)

    def test_zero_mode_zero_power(self, ps):
        assert float(ps(np.array([0.0]))[0]) == 0.0

    def test_turnover_exists(self, ps):
        """P(k) rises as ~k^n at large scales, falls at small scales."""
        k = np.logspace(-4, 2, 200)
        p = ps(k)
        peak = np.argmax(p)
        assert 0 < peak < len(k) - 1
        k_peak = k[peak]
        assert 5e-3 < k_peak < 0.2   # matter-radiation equality scale

    def test_large_scale_slope_is_ns(self, ps):
        k1, k2 = 1e-4, 2e-4
        slope = np.log(ps(k2) / ps(k1)) / np.log(k2 / k1)
        assert float(slope) == pytest.approx(LCDM_WMAP.n_s, abs=0.02)

    def test_sigma_decreases_with_radius(self, ps):
        assert ps.sigma_r(4.0) > ps.sigma_r(8.0) > ps.sigma_r(16.0)

    def test_sigma_invalid_radius(self, ps):
        with pytest.raises(ValueError):
            ps.sigma_r(0.0)

    def test_nan_integrand_raises(self):
        """An n_s that is not a number makes k^n_s NaN: the sigma8
        normalization raises instead of returning an amplitude."""
        with pytest.raises(ArithmeticError, match=r"sigma_r\(8\.0\).*ier=2"):
            PowerSpectrum(Cosmology(n_s=float("nan")))

    def test_unknown_transfer_rejected(self):
        with pytest.raises(ValueError, match="bbks"):
            PowerSpectrum(LCDM_WMAP, transfer="cmbfast")

    def test_bbks_and_eh_agree_roughly(self):
        ps_b = PowerSpectrum(LCDM_WMAP, transfer="bbks")
        ps_e = PowerSpectrum(LCDM_WMAP, transfer="eisenstein_hu")
        k = np.logspace(-2, 0, 20)
        ratio = ps_b(k) / ps_e(k)
        assert np.all((ratio > 0.5) & (ratio < 2.0))

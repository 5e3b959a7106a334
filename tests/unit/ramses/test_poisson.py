"""Unit tests for the FFT Poisson solver."""

import numpy as np
import pytest

from repro.ramses import (
    acceleration_from_source,
    gradient_spectral,
    laplacian_eigenvalues,
    poisson_solve,
)
from repro.ramses.poisson import SpectralOperators, cic_window


def grid_coords(n):
    x = np.arange(n) / n
    return np.meshgrid(x, x, x, indexing="ij")


class TestPoissonSolve:
    def test_single_mode_analytic(self):
        """laplacian(phi) = sin(2 pi k x) -> phi = -sin/(2 pi k)^2."""
        n = 32
        X, _, _ = grid_coords(n)
        for k in (1, 2, 3):
            src = np.sin(2 * np.pi * k * X)
            phi = poisson_solve(src)
            expected = -src / (2 * np.pi * k) ** 2
            assert np.allclose(phi, expected, atol=1e-12)

    def test_mean_mode_removed(self):
        n = 16
        src = np.ones((n, n, n)) * 5.0   # pure mean: no solution; gauge -> 0
        phi = poisson_solve(src)
        assert np.allclose(phi, 0.0, atol=1e-12)

    def test_solution_zero_mean(self):
        rng = np.random.default_rng(0)
        src = rng.standard_normal((16, 16, 16))
        phi = poisson_solve(src)
        assert phi.mean() == pytest.approx(0.0, abs=1e-13)

    def test_laplacian_roundtrip(self):
        """Applying the spectral laplacian to phi recovers the source.

        The gradient zeroes Nyquist-frequency derivatives (sign-ambiguous),
        so the source must be Nyquist-free for the roundtrip to be exact."""
        rng = np.random.default_rng(1)
        n = 16
        raw = rng.standard_normal((n, n, n))
        raw_hat = np.fft.fftn(raw)
        raw_hat[n // 2, :, :] = 0
        raw_hat[:, n // 2, :] = 0
        raw_hat[:, :, n // 2] = 0
        raw_hat[0, 0, 0] = 0
        src = np.real(np.fft.ifftn(raw_hat))
        phi = poisson_solve(src)
        lap = np.zeros_like(phi)
        grad = gradient_spectral(phi)
        for axis in range(3):
            lap += gradient_spectral(grad[..., axis])[..., axis]
        assert np.allclose(lap, src, atol=1e-8)

    def test_discrete_kernel_matches_fd_laplacian(self):
        """With kernel='discrete', the 7-point FD laplacian of phi == src."""
        rng = np.random.default_rng(2)
        n = 16
        src = rng.standard_normal((n, n, n))
        src -= src.mean()
        phi = poisson_solve(src, kernel="discrete")
        h = 1.0 / n
        lap = (-6.0 * phi
               + np.roll(phi, 1, 0) + np.roll(phi, -1, 0)
               + np.roll(phi, 1, 1) + np.roll(phi, -1, 1)
               + np.roll(phi, 1, 2) + np.roll(phi, -1, 2)) / h ** 2
        assert np.allclose(lap, src, atol=1e-8)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            poisson_solve(np.zeros((4, 4)))
        with pytest.raises(ValueError):
            poisson_solve(np.zeros((4, 4, 8)))
        with pytest.raises(ValueError):
            poisson_solve(np.zeros((8, 8, 8)), kernel="warp")

    def test_eigenvalues_negative_semidefinite(self):
        for kernel in ("spectral", "discrete"):
            eig = laplacian_eigenvalues(16, kernel)
            assert np.all(eig <= 0)
            assert eig[0, 0, 0] == 0.0


class TestGradient:
    def test_single_mode_gradient(self):
        n = 32
        X, _, _ = grid_coords(n)
        f = np.sin(2 * np.pi * X)
        g = gradient_spectral(f)
        assert np.allclose(g[..., 0], 2 * np.pi * np.cos(2 * np.pi * X),
                           atol=1e-10)
        assert np.allclose(g[..., 1], 0.0, atol=1e-10)
        assert np.allclose(g[..., 2], 0.0, atol=1e-10)

    def test_gradient_of_constant_is_zero(self):
        g = gradient_spectral(np.full((8, 8, 8), 3.0))
        assert np.allclose(g, 0.0, atol=1e-14)

    def test_result_is_real(self):
        rng = np.random.default_rng(3)
        g = gradient_spectral(rng.standard_normal((16, 16, 16)))
        assert g.dtype == np.float64


class TestAcceleration:
    def test_acc_is_minus_grad_phi(self):
        rng = np.random.default_rng(4)
        src = rng.standard_normal((16, 16, 16))
        phi, acc = acceleration_from_source(src)
        assert np.allclose(acc, -gradient_spectral(phi), atol=1e-12)

    def test_momentum_conservation(self):
        """Total force on the grid vanishes (no self-acceleration)."""
        rng = np.random.default_rng(5)
        src = rng.standard_normal((16, 16, 16))
        _, acc = acceleration_from_source(src)
        assert np.allclose(acc.sum(axis=(0, 1, 2)), 0.0, atol=1e-9)

    def test_deconvolution_boosts_small_scales(self):
        n = 16
        X, _, _ = grid_coords(n)
        src = np.sin(2 * np.pi * 6 * X)   # high-k mode
        _, plain = acceleration_from_source(src)
        _, boosted = acceleration_from_source(src, deconvolve_cic=True)
        assert np.abs(boosted).max() > np.abs(plain).max()


def reference_gradient(field):
    """The gradient with its k vectors built inline, per call."""
    n = field.shape[0]
    f_hat = np.fft.rfftn(field)
    kx = 2.0 * np.pi * np.fft.fftfreq(n, d=1.0 / n)
    kz = 2.0 * np.pi * np.fft.rfftfreq(n, d=1.0 / n)
    if n % 2 == 0:
        kx[n // 2] = 0.0
    parts = (1j * kx[:, None, None] * f_hat, 1j * kx[None, :, None] * f_hat,
             1j * kz[None, None, :] * f_hat)
    return np.stack([np.fft.irfftn(p, s=field.shape, axes=(0, 1, 2))
                     for p in parts], axis=-1)


class TestPrebuiltOperators:
    """Operators built once give the bits that building per call gives."""

    @pytest.mark.parametrize("n", [8, 9, 16])
    def test_gradient_matches_inline_k_vectors(self, n):
        field = np.random.default_rng(n).standard_normal((n, n, n))
        ops = SpectralOperators.build(n)
        assert np.array_equal(gradient_spectral(field), reference_gradient(field))
        assert np.array_equal(gradient_spectral(field, ops.ik),
                              reference_gradient(field))

    @pytest.mark.parametrize("kernel", ["spectral", "discrete"])
    @pytest.mark.parametrize("deconvolve", [False, True])
    def test_acceleration_bit_identical(self, kernel, deconvolve):
        src = np.random.default_rng(6).standard_normal((16, 16, 16))
        ops = SpectralOperators.build(16, kernel)
        phi0, acc0 = acceleration_from_source(src, kernel, deconvolve)
        phi1, acc1 = acceleration_from_source(src, kernel, deconvolve, ops=ops)
        assert np.array_equal(phi0, phi1)
        assert np.array_equal(acc0, acc1)

    def test_mismatched_operators_rejected(self):
        src = np.zeros((8, 8, 8))
        with pytest.raises(ValueError):
            acceleration_from_source(src, ops=SpectralOperators.build(16))
        with pytest.raises(ValueError):
            acceleration_from_source(
                src, "spectral", ops=SpectralOperators.build(8, "discrete"))


class TestCicWindow:
    def test_dc_mode_unity(self):
        w = cic_window(16)
        assert w[0, 0, 0] == pytest.approx(1.0)

    def test_window_in_unit_interval(self):
        w = cic_window(16)
        assert np.all(w > 0) and np.all(w <= 1.0)

    def test_nyquist_value(self):
        w = cic_window(16)
        # 1-d CIC at Nyquist: sinc(1/2)^2 = (2/pi)^2
        assert w[8, 0, 0] == pytest.approx((2 / np.pi) ** 2)

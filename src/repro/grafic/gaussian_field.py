"""Gaussian random fields with a prescribed power spectrum.

The key design point is *mode-matched multi-resolution*: one white-noise
realization is drawn at the finest resolution, and any coarser field is
obtained by Fourier truncation of that same realization.  Every level of a
multi-level ("Russian doll", §3) initial condition therefore sees the same
large-scale modes — the property that makes a zoom re-simulation reproduce
the halo of its parent run.

Conventions (periodic box of ``boxsize`` Mpc/h, n^3 grid):

    delta_hat = white_hat * sqrt(P(k) * n^3 / V)

with ``white_hat = rfftn(w)``, ``w ~ N(0, 1)`` per cell, which gives the
grid field variance ``sum_k P(k) / V`` — the discretized
``integral d^3k P(k) / (2 pi)^3``.  A test bins the measured spectrum of a
generated field against the input P(k).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .power_spectrum import PowerSpectrum

__all__ = ["GaussianFieldGenerator", "measure_power_spectrum", "k_grid"]


def k_grid(n: int, boxsize: float) -> np.ndarray:
    """|k| on the rfftn grid, h/Mpc (shape (n, n, n//2 + 1))."""
    k1 = 2.0 * np.pi * np.fft.fftfreq(n, d=boxsize / n)
    kz = 2.0 * np.pi * np.fft.rfftfreq(n, d=boxsize / n)
    return np.sqrt(k1[:, None, None] ** 2 + k1[None, :, None] ** 2
                   + kz[None, None, :] ** 2)


class GaussianFieldGenerator:
    """Mode-matched GRF generator over one white-noise realization.

    ``n_fine`` bounds the finest grid this realization can serve; any
    ``delta(n)`` with even ``n <= n_fine`` shares the same low-k modes.
    """

    def __init__(self, spectrum: PowerSpectrum, boxsize_mpc_h: float,
                 n_fine: int, seed: int = 0):
        if n_fine < 2 or n_fine % 2:
            raise ValueError("n_fine must be even and >= 2")
        if boxsize_mpc_h <= 0:
            raise ValueError("boxsize must be positive")
        self.spectrum = spectrum
        self.boxsize = float(boxsize_mpc_h)
        self.n_fine = int(n_fine)
        self.seed = seed
        rng = np.random.default_rng(seed)
        white = rng.standard_normal((n_fine, n_fine, n_fine))
        #: complex white noise at the finest resolution, <|w_hat|^2> = n^3
        self._white_hat_fine = np.fft.fftn(white)

    # -- noise truncation -------------------------------------------------------

    def _white_hat(self, n: int) -> np.ndarray:
        """White-noise modes on an n-grid (full complex layout)."""
        if n > self.n_fine or n < 2 or n % 2:
            raise ValueError(f"n must be even and <= n_fine={self.n_fine}")
        if n == self.n_fine:
            return self._white_hat_fine
        nf = self.n_fine
        h = n // 2
        idx = np.r_[0:h, nf - h:nf]          # low-|k| rows of the fine grid
        sub = self._white_hat_fine[np.ix_(idx, idx, idx)].copy()
        # Truncation breaks Hermitian symmetry on the coarse Nyquist planes
        # (their +k partners were dropped); zero them so the coarse field is
        # exactly real.  IC generators conventionally null the Nyquist modes.
        sub[h, :, :] = 0.0
        sub[:, h, :] = 0.0
        sub[:, :, h] = 0.0
        # renormalize: coarse white noise needs <|w_hat|^2> = n^3
        return sub * (n / nf) ** 1.5

    # -- fields ----------------------------------------------------------------------

    def delta_hat(self, n: int) -> np.ndarray:
        """Fourier modes of the z=0 density contrast on an n-grid (fftn layout)."""
        k1 = 2.0 * np.pi * np.fft.fftfreq(n, d=self.boxsize / n)
        kk = np.sqrt(k1[:, None, None] ** 2 + k1[None, :, None] ** 2
                     + k1[None, None, :] ** 2)
        volume = self.boxsize ** 3
        amp = np.sqrt(self.spectrum(kk) * n ** 3 / volume)
        amp[0, 0, 0] = 0.0
        return self._white_hat(n) * amp

    def delta(self, n: int) -> np.ndarray:
        """Real-space z=0 density contrast on an n-grid."""
        return np.real(np.fft.ifftn(self.delta_hat(n)))

    def displacement(self, n: int) -> np.ndarray:
        """Zel'dovich displacement field psi (n, n, n, 3), box units.

        psi solves div(psi) = -delta (psi_hat = i k delta_hat / k^2); the
        result is converted from Mpc/h to box units so positions can use it
        directly.
        """
        d_hat = self.delta_hat(n)
        k1 = 2.0 * np.pi * np.fft.fftfreq(n, d=self.boxsize / n)
        kx = k1[:, None, None]
        ky = k1[None, :, None]
        kz = k1[None, None, :]
        k2 = kx ** 2 + ky ** 2 + kz ** 2
        with np.errstate(divide="ignore", invalid="ignore"):
            inv_k2 = np.where(k2 > 0, 1.0 / k2, 0.0)
        psi = np.empty((n, n, n, 3))
        psi[..., 0] = np.real(np.fft.ifftn(1j * kx * inv_k2 * d_hat))
        psi[..., 1] = np.real(np.fft.ifftn(1j * ky * inv_k2 * d_hat))
        psi[..., 2] = np.real(np.fft.ifftn(1j * kz * inv_k2 * d_hat))
        psi /= self.boxsize   # Mpc/h -> box units
        return psi


def measure_power_spectrum(delta: np.ndarray, boxsize: float,
                           n_bins: int = 16) -> Tuple[np.ndarray, np.ndarray]:
    """Binned P(k) estimate of a real grid field (for validation tests)."""
    delta = np.asarray(delta, dtype=np.float64)
    n = delta.shape[0]
    d_hat = np.fft.rfftn(delta)
    kk = k_grid(n, boxsize)
    volume = boxsize ** 3
    power = (np.abs(d_hat) ** 2) * volume / n ** 6
    # rfftn double-counts nothing, but modes with kz in (0, nyquist) appear
    # once while their conjugates are implicit; weight them x2.
    weights = np.full(kk.shape, 2.0)
    weights[..., 0] = 1.0
    if n % 2 == 0:
        weights[..., -1] = 1.0
    k_min = 2.0 * np.pi / boxsize
    k_max = kk.max()
    edges = np.linspace(k_min * 0.999, k_max, n_bins + 1)
    k_flat, p_flat, w_flat = kk.ravel(), power.ravel(), weights.ravel()
    which = np.digitize(k_flat, edges) - 1
    valid = (which >= 0) & (which < n_bins)
    p_sum = np.bincount(which[valid], weights=(p_flat * w_flat)[valid],
                        minlength=n_bins)
    w_sum = np.bincount(which[valid], weights=w_flat[valid], minlength=n_bins)
    k_sum = np.bincount(which[valid], weights=(k_flat * w_flat)[valid],
                        minlength=n_bins)
    good = w_sum > 0
    return k_sum[good] / w_sum[good], p_sum[good] / w_sum[good]

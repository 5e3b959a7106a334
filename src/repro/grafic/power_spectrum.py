"""Linear matter power spectra (the GRAFIC input physics).

GRAFIC generates "Gaussian random fields at different resolution levels,
consistent with current observational data obtained by the WMAP satellite"
(§3).  We provide the two standard transfer functions of that era:

* ``bbks`` — Bardeen, Bond, Kaiser & Szalay (1986) with the Sugiyama (1995)
  shape parameter;
* ``eisenstein_hu`` — Eisenstein & Hu (1998), no-wiggle form (the baryonic
  suppression without acoustic oscillations; adequate for IC generation at
  the resolutions exercised here).

``P(k) = A k^n_s T(k)^2`` is normalized to ``sigma8`` via the standard
top-hat integral.  k is in h/Mpc throughout; P in (Mpc/h)^3.
"""

from __future__ import annotations

import numpy as np

from ..ramses.cosmology import Cosmology
from ..ramses.quadpack import integral

__all__ = ["PowerSpectrum", "transfer_bbks", "transfer_eisenstein_hu"]


def transfer_bbks(k: np.ndarray, cosmology: Cosmology) -> np.ndarray:
    """BBKS (1986) CDM transfer function, Sugiyama-corrected Gamma."""
    k = np.asarray(k, dtype=np.float64)
    gamma = (cosmology.omega_m * cosmology.h
             * np.exp(-cosmology.omega_b * (1.0 + np.sqrt(2 * cosmology.h)
                                            / cosmology.omega_m)))
    q = k / gamma
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (np.log(1.0 + 2.34 * q) / (2.34 * q)
             * (1.0 + 3.89 * q + (16.1 * q) ** 2
                + (5.46 * q) ** 3 + (6.71 * q) ** 4) ** -0.25)
    return np.where(q > 0, t, 1.0)


def transfer_eisenstein_hu(k: np.ndarray, cosmology: Cosmology) -> np.ndarray:
    """Eisenstein & Hu (1998) zero-baryon ('no wiggle') transfer function."""
    k = np.asarray(k, dtype=np.float64)
    om, ob, h = cosmology.omega_m, cosmology.omega_b, cosmology.h
    theta = 2.728 / 2.7                      # CMB temperature factor
    # sound horizon (EH98 eq. 26) in Mpc
    s = 44.5 * np.log(9.83 / (om * h * h)) / np.sqrt(
        1.0 + 10.0 * (ob * h * h) ** 0.75)
    alpha = (1.0 - 0.328 * np.log(431.0 * om * h * h) * ob / om
             + 0.38 * np.log(22.3 * om * h * h) * (ob / om) ** 2)
    gamma_eff = om * h * (alpha + (1.0 - alpha)
                          / (1.0 + (0.43 * k * s * h) ** 4))
    q = k * theta ** 2 / gamma_eff
    l0 = np.log(2.0 * np.e + 1.8 * q)
    c0 = 14.2 + 731.0 / (1.0 + 62.5 * q)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = l0 / (l0 + c0 * q * q)
    return np.where(q > 0, t, 1.0)


_TRANSFERS = {"bbks": transfer_bbks, "eisenstein_hu": transfer_eisenstein_hu}


class PowerSpectrum:
    """sigma8-normalized linear P(k) at z = 0."""

    def __init__(self, cosmology: Cosmology, transfer: str = "eisenstein_hu"):
        if transfer not in _TRANSFERS:
            raise ValueError(f"unknown transfer {transfer!r}; "
                             f"known: {sorted(_TRANSFERS)}")
        self.cosmology = cosmology
        self.transfer_name = transfer
        self._transfer = _TRANSFERS[transfer]
        self._amplitude = 1.0
        self._amplitude = (cosmology.sigma8 / self.sigma_r(8.0)) ** 2

    def __call__(self, k) -> np.ndarray:
        """P(k) in (Mpc/h)^3; k in h/Mpc; P(0) == 0."""
        k = np.asarray(k, dtype=np.float64)
        t = self._transfer(k, self.cosmology)
        with np.errstate(invalid="ignore"):
            p = self._amplitude * k ** self.cosmology.n_s * t * t
        return np.where(k > 0, p, 0.0)

    def sigma_r(self, r_mpc_h: float) -> float:
        """RMS density fluctuation in a top-hat of radius r (Mpc/h)."""
        if r_mpc_h <= 0:
            raise ValueError("radius must be positive")

        def window(x: np.ndarray) -> np.ndarray:
            # top-hat in Fourier space, series-expanded near 0 for stability
            small = x < 1e-4
            w = np.empty_like(x)
            xs = x[~small]
            w[~small] = 3.0 * (np.sin(xs) - xs * np.cos(xs)) / xs ** 3
            w[small] = 1.0 - x[small] ** 2 / 10.0
            return w

        def integrand(lnk: float) -> float:
            k = np.exp(lnk)
            w = window(np.atleast_1d(k * r_mpc_h))[0]
            return float(k ** 3 * self(k) * w * w)

        val = integral(
            f"sigma_r({r_mpc_h!r}) of {self.transfer_name} P(k), {self.cosmology!r}",
            integrand, np.log(1e-5), np.log(1e3), limit=400)
        return float(np.sqrt(val / (2.0 * np.pi ** 2)))

    def sigma8_check(self) -> float:
        """Round-trip check: should equal cosmology.sigma8."""
        return self.sigma_r(8.0)

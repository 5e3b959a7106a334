"""Multi-lens-plane convergence maps via the Born approximation.

Numpy-only and fully deterministic: the REAL-mode lensing service and its
tests call straight into these functions.  The model is the standard
weak-lensing plane stack (LensTools shape): the line of sight to a source
at redshift ``z_source`` is cut into ``n_planes`` slices of equal
comoving thickness, each slice contributes its projected matter
overdensity weighted by the lensing efficiency

    W_k = (3/2) Ωm (H0/c)^2 (1 + z_k) χ_k (χ_s - χ_k) / χ_s · Δχ

and the convergence map is the weighted sum κ = Σ_k W_k δ_k (no ray
deflection between planes — first order in the deflection angle).
Distances assume a flat w0CDM background,

    E(z) = sqrt(Ωm (1+z)^3 + (1-Ωm) (1+z)^{3(1+w0)}).
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

__all__ = [
    "C_LIGHT_KM_S",
    "born_convergence",
    "density_slabs",
    "hubble_e",
    "lens_planes",
    "lensing_weights",
    "stack_maps",
]

#: Speed of light, km/s — pairs with H0 in km/s/Mpc to give distances in Mpc.
C_LIGHT_KM_S = 299792.458


def hubble_e(z, omega_m: float, w0: float = -1.0):
    """Dimensionless Hubble rate E(z) = H(z)/H0 for flat w0CDM."""
    z = np.asarray(z, dtype=float)
    if not 0.0 < omega_m <= 1.0:
        raise ValueError("omega_m must be in (0, 1]")
    omega_de = 1.0 - omega_m
    return np.sqrt(
        omega_m * (1.0 + z) ** 3 + omega_de * (1.0 + z) ** (3.0 * (1.0 + w0))
    )


def _distance_table(
    z_max: float, h0: float, omega_m: float, w0: float, n_samples: int = 1024
) -> Tuple[np.ndarray, np.ndarray]:
    """(z_grid, χ_grid) over [0, z_max] by cumulative trapezoid."""
    z_grid = np.linspace(0.0, float(z_max), n_samples + 1)
    inv_e = 1.0 / hubble_e(z_grid, omega_m, w0)
    dz = z_grid[1] - z_grid[0] if n_samples else 0.0
    steps = 0.5 * (inv_e[:-1] + inv_e[1:]) * dz
    chi_grid = np.concatenate([[0.0], np.cumsum(steps)]) * (C_LIGHT_KM_S / h0)
    return z_grid, chi_grid


def lens_planes(
    n_planes: int, z_source: float, h0: float, omega_m: float, w0: float = -1.0
) -> Tuple[np.ndarray, np.ndarray, float]:
    """Equal-Δχ lens planes between the observer and the source.

    Returns ``(z_planes, chi_planes, dchi)``: plane redshifts (χ→z by
    interpolation on the distance table), plane comoving distances at the
    slice centres, and the slice thickness, all in Mpc.
    """
    if n_planes < 1:
        raise ValueError("n_planes must be >= 1")
    if z_source <= 0:
        raise ValueError("z_source must be positive")
    z_grid, chi_grid = _distance_table(z_source, h0, omega_m, w0)
    chi_s = chi_grid[-1]
    dchi = chi_s / n_planes
    chi_planes = (np.arange(n_planes) + 0.5) * dchi
    z_planes = np.interp(chi_planes, chi_grid, z_grid)
    return z_planes, chi_planes, float(dchi)


def lensing_weights(
    n_planes: int, z_source: float, h0: float, omega_m: float, w0: float = -1.0
) -> np.ndarray:
    """Born efficiency weight W_k of each plane's overdensity δ_k."""
    z_planes, chi_planes, dchi = lens_planes(n_planes, z_source, h0, omega_m, w0)
    chi_s = chi_planes[-1] + 0.5 * dchi
    prefactor = 1.5 * omega_m * (h0 / C_LIGHT_KM_S) ** 2
    geometry = (1.0 + z_planes) * chi_planes * (chi_s - chi_planes) / chi_s
    return prefactor * geometry * dchi


def born_convergence(
    slabs: np.ndarray, z_source: float, h0: float, omega_m: float, w0: float = -1.0
) -> np.ndarray:
    """Stack density slabs into one convergence map, κ = Σ_k W_k δ_k.

    ``slabs`` has shape ``(n_planes, ny, nx)``: projected overdensity of
    each equal-Δχ slice, observer-to-source order.
    """
    slabs = np.asarray(slabs, dtype=float)
    if slabs.ndim != 3:
        raise ValueError("slabs must have shape (n_planes, ny, nx)")
    weights = lensing_weights(slabs.shape[0], z_source, h0, omega_m, w0)
    return np.tensordot(weights, slabs, axes=1)


def density_slabs(
    resolution: int, n_planes: int, seed: int, sigma8: float = 0.8, ns: float = 0.96
) -> np.ndarray:
    """Deterministic Gaussian overdensity slabs with a power-law spectrum.

    The survey run stage's REAL-mode product: ``n_planes`` independent
    Gaussian random fields of shape ``(resolution, resolution)`` with a
    2-d power spectrum P(k) ∝ k^(ns-3), each normalized to rms
    ``sigma8``.  Fully pinned by ``seed`` (PCG64 + numpy FFTs).
    """
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    if n_planes < 1:
        raise ValueError("n_planes must be >= 1")
    rng = np.random.default_rng(seed)
    kx = np.fft.fftfreq(resolution)
    k = np.sqrt(kx[np.newaxis, :] ** 2 + kx[:, np.newaxis] ** 2)
    amplitude = np.zeros_like(k)
    nonzero = k > 0
    amplitude[nonzero] = k[nonzero] ** (0.5 * (ns - 3.0))
    slabs = np.empty((n_planes, resolution, resolution))
    for plane in range(n_planes):
        white = rng.standard_normal((resolution, resolution))
        field = np.real(np.fft.ifft2(np.fft.fft2(white) * amplitude))
        rms = float(field.std())
        slabs[plane] = field * (sigma8 / rms) if rms > 0 else field
    return slabs


def stack_maps(maps: Sequence[np.ndarray], weights: Sequence[float]) -> np.ndarray:
    """Weighted mean of convergence maps (the survey fan-in reduction)."""
    if len(maps) != len(weights) or not maps:
        raise ValueError("need equally many maps and weights, at least one")
    total = float(sum(weights))
    if total <= 0:
        raise ValueError("weights must sum to a positive value")
    out = np.zeros_like(np.asarray(maps[0], dtype=float))
    for m, w in zip(maps, weights):
        out += np.asarray(m, dtype=float) * (float(w) / total)
    return out

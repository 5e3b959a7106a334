"""FFT Poisson solver on the periodic unit box.

Solves ``laplacian(phi) = source`` for a zero-mean source on an n^3 grid
with periodic boundaries, and differentiates the potential spectrally to
obtain the acceleration field.  Wavenumbers are physical: the box has unit
length, so k_i = 2*pi*m_i.

Two discretizations of the Laplacian are offered:

* ``kernel="spectral"`` — exact continuous Green's function -1/k^2;
* ``kernel="discrete"`` — the 7-point finite-difference Laplacian's
  eigenvalues, -(2/h)^2 * sum_i sin^2(k_i h / 2), which matches what an
  AMR relaxation solver (RAMSES uses multigrid) would produce on the same
  grid and damps the force near the Nyquist frequency.

Everything is rfftn-based and allocation-conscious (views, in-place ops).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

__all__ = ["poisson_solve", "gradient_spectral", "laplacian_eigenvalues",
           "acceleration_from_source", "cic_window", "derivative_vectors",
           "SpectralOperators"]


def cic_window(n: int) -> np.ndarray:
    """Fourier transform of the CIC assignment window on the rfftn grid.

    ``W(k) = prod_i sinc^2(k_i h / (2 pi))`` (numpy's sinc includes the pi).
    Deconvolving the potential by one power of W compensates the deposit
    smoothing (Hockney & Eastwood §5-6); a second power would also undo the
    interpolation smoothing but amplifies lattice alias noise into a grid
    instability for 1:1 particle/grid setups, so the solver applies W once —
    measured linear growth then tracks D(a) to ~2%.
    """
    w1 = np.sinc(np.fft.fftfreq(n)) ** 2
    wz = np.sinc(np.fft.rfftfreq(n)) ** 2
    return w1[:, None, None] * w1[None, :, None] * wz[None, None, :]


def laplacian_eigenvalues(n: int, kernel: str = "spectral") -> np.ndarray:
    """Eigenvalues of the chosen Laplacian on the rfftn grid (shape n,n,n//2+1).

    The k=0 entry is set to -inf placeholder 0 handling: callers divide and
    then zero the mean mode explicitly.
    """
    if n < 2:
        raise ValueError("grid must have at least 2 cells per side")
    kx = 2.0 * np.pi * np.fft.fftfreq(n, d=1.0 / n)      # 2*pi*m
    kz = 2.0 * np.pi * np.fft.rfftfreq(n, d=1.0 / n)
    if kernel == "spectral":
        k2 = (kx[:, None, None] ** 2 + kx[None, :, None] ** 2
              + kz[None, None, :] ** 2)
        return -k2
    if kernel == "discrete":
        h = 1.0 / n
        s = lambda k: (2.0 / h * np.sin(k * h / 2.0)) ** 2
        return -(s(kx)[:, None, None] + s(kx)[None, :, None] + s(kz)[None, None, :])
    raise ValueError(f"unknown kernel {kernel!r}")


def poisson_solve(source: np.ndarray, kernel: str = "spectral") -> np.ndarray:
    """Solve laplacian(phi) = source with periodic BC; phi has zero mean.

    The source's mean is removed (a periodic Poisson equation only admits a
    solution for zero-mean sources; physically, the uniform background does
    not gravitate in comoving coordinates).
    """
    source = np.asarray(source, dtype=np.float64)
    if source.ndim != 3 or len(set(source.shape)) != 1:
        raise ValueError("source must be a cubic 3-d array")
    n = source.shape[0]
    s_hat = np.fft.rfftn(source)
    eig = laplacian_eigenvalues(n, kernel)
    with np.errstate(divide="ignore", invalid="ignore"):
        phi_hat = s_hat / eig
    phi_hat[0, 0, 0] = 0.0  # zero-mean gauge
    return np.fft.irfftn(phi_hat, s=source.shape, axes=(0, 1, 2))


def derivative_vectors(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """``(1j * kx, 1j * kz)``: the spectral d/dx multipliers along a full
    axis and along the rfft axis of an n^3 grid."""
    kx = 2.0 * np.pi * np.fft.fftfreq(n, d=1.0 / n)
    kz = 2.0 * np.pi * np.fft.rfftfreq(n, d=1.0 / n)
    # Zero the pure-Nyquist derivative modes (ik at Nyquist is ambiguous in
    # sign; dropping it keeps the gradient real and symmetric).
    if n % 2 == 0:
        kx[n // 2] = 0.0
    return 1j * kx, 1j * kz


def gradient_spectral(field: np.ndarray,
                      ik: Optional[Tuple[np.ndarray, np.ndarray]] = None
                      ) -> np.ndarray:
    """Spectral gradient of a periodic scalar field -> (n, n, n, 3).

    ``ik`` are the field's :func:`derivative_vectors`, built here when
    omitted.
    """
    field = np.asarray(field, dtype=np.float64)
    ikx, ikz = derivative_vectors(field.shape[0]) if ik is None else ik
    f_hat = np.fft.rfftn(field)
    out = np.empty(field.shape + (3,), dtype=np.float64)
    out[..., 0] = np.fft.irfftn(ikx[:, None, None] * f_hat, s=field.shape, axes=(0, 1, 2))
    out[..., 1] = np.fft.irfftn(ikx[None, :, None] * f_hat, s=field.shape, axes=(0, 1, 2))
    out[..., 2] = np.fft.irfftn(ikz[None, None, :] * f_hat, s=field.shape, axes=(0, 1, 2))
    return out


@dataclass(frozen=True)
class SpectralOperators:
    """What :func:`acceleration_from_source` needs in k-space for one
    (grid size, kernel) pair.

    A solver that evaluates the force many times on one grid builds these
    once and passes them in.  They are the arrays the function otherwise
    builds on every call, so results are bit-identical either way.
    """

    n: int
    kernel: str
    eig: np.ndarray                       # laplacian_eigenvalues(n, kernel)
    window: np.ndarray                    # cic_window(n)
    ik: Tuple[np.ndarray, np.ndarray]     # derivative_vectors(n)

    @classmethod
    def build(cls, n: int, kernel: str = "spectral") -> "SpectralOperators":
        return cls(n=n, kernel=kernel, eig=laplacian_eigenvalues(n, kernel),
                   window=cic_window(n), ik=derivative_vectors(n))


def acceleration_from_source(source: np.ndarray, kernel: str = "spectral",
                             deconvolve_cic: bool = False,
                             ops: Optional[SpectralOperators] = None
                             ) -> Tuple[np.ndarray, np.ndarray]:
    """Convenience: solve Poisson and return (phi, acc = -grad(phi)).

    ``deconvolve_cic=True`` divides the potential by the CIC window once,
    compensating the deposit smoothing; use it when the source came from
    :func:`~repro.ramses.mesh.cic_deposit` (see :func:`cic_window`).
    ``ops`` are the prebuilt :class:`SpectralOperators` of this grid size
    and ``kernel``; what is needed of them is built here when omitted.
    """
    source = np.asarray(source, dtype=np.float64)
    if source.ndim != 3 or len(set(source.shape)) != 1:
        raise ValueError("source must be a cubic 3-d array")
    n = source.shape[0]
    if ops is not None and (ops.n, ops.kernel) != (n, kernel):
        raise ValueError(f"operators built for n={ops.n}, {ops.kernel!r}; "
                         f"called with n={n}, {kernel!r}")
    s_hat = np.fft.rfftn(source)
    eig = laplacian_eigenvalues(n, kernel) if ops is None else ops.eig
    with np.errstate(divide="ignore", invalid="ignore"):
        phi_hat = s_hat / eig
    phi_hat[0, 0, 0] = 0.0
    if deconvolve_cic:
        phi_hat /= cic_window(n) if ops is None else ops.window
    phi = np.fft.irfftn(phi_hat, s=source.shape, axes=(0, 1, 2))
    acc = gradient_spectral(phi, None if ops is None else ops.ik)
    np.negative(acc, out=acc)
    return phi, acc

"""Background cosmology: Friedmann equation, growth factor, time conversion.

Everything is expressed with ``H0 = 1`` (see :mod:`repro.ramses.units`).
The linear growth factor uses the standard quadrature (Heath 1977)

    D(a)  proportional to  H(a) * integral_0^a da' / (a' H(a'))^3

normalized so that D(1) = 1; for an Einstein-de Sitter universe this
reduces to D(a) = a, which property tests verify.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .quadpack import brentq, integral

__all__ = ["Cosmology", "EDS", "LCDM_WMAP"]


@dataclass(frozen=True)
class Cosmology:
    """A flat-or-curved FLRW background.

    ``omega_m`` + ``omega_l`` need not sum to 1; curvature takes the rest.
    ``sigma8`` and ``n_s`` parameterize the initial power spectrum used by
    the GRAFIC substitute.
    """

    omega_m: float = 0.3
    omega_l: float = 0.7
    h: float = 0.7
    sigma8: float = 0.9
    n_s: float = 1.0
    omega_b: float = 0.045

    def __post_init__(self):
        if self.omega_m <= 0:
            raise ValueError("Omega_m must be positive")
        if self.h <= 0:
            raise ValueError("h must be positive")

    @property
    def omega_k(self) -> float:
        return 1.0 - self.omega_m - self.omega_l

    # -- expansion -------------------------------------------------------------------

    def hubble(self, a) -> np.ndarray:
        """H(a) in units of H0."""
        a = np.asarray(a, dtype=float)
        if np.any(a <= 0):
            raise ValueError("expansion factor must be positive")
        return np.sqrt(self.omega_m / a ** 3 + self.omega_k / a ** 2 + self.omega_l)

    def omega_m_a(self, a) -> np.ndarray:
        """Matter density parameter at expansion factor a."""
        a = np.asarray(a, dtype=float)
        return self.omega_m / (a ** 3 * self.hubble(a) ** 2)

    # -- times -------------------------------------------------------------------------

    def age(self, a: float) -> float:
        """Cosmic time t(a) in 1/H0 units: integral_0^a da' / (a' H(a'))."""
        if a <= 0:
            raise ValueError("expansion factor must be positive")
        return integral(f"{self!r}.age({a!r})",
                        lambda x: 1.0 / (x * float(self.hubble(x))),
                        0.0, a, limit=200)

    def a_of_t(self, t: float, a_bracket=(1e-6, 64.0)) -> float:
        """Invert t(a) by bisection (monotone)."""
        lo, hi = a_bracket
        t_lo, t_hi = self.age(lo), self.age(hi)
        if not t_lo <= t <= t_hi:
            raise ValueError(f"t={t} outside [{t_lo}, {t_hi}]")
        root, _iterations, _calls = brentq(lambda a: self.age(a) - t, lo, hi,
                                           xtol=1e-12)
        return root

    # -- linear growth ---------------------------------------------------------------------

    def _growth_unnorm(self, a: float) -> float:
        """H(a) * integral_0^a da' / (a' H(a'))^3: D(a) before normalization."""
        return float(self.hubble(a)) * integral(
            f"{self!r}.growth_factor({a!r})",
            lambda x: 1.0 / (x * float(self.hubble(x))) ** 3,
            0.0, a, limit=200)

    @cached_property
    def _growth_unnorm_today(self) -> float:
        # Every D(a) divides by this; a frozen instance computes it once.
        return self._growth_unnorm(1.0)

    def growth_factor(self, a) -> np.ndarray:
        """Linear growth factor D(a), normalized to D(1) = 1."""
        scalar = np.isscalar(a)
        a_arr = np.atleast_1d(np.asarray(a, dtype=float))
        if np.any(a_arr <= 0):
            raise ValueError("expansion factor must be positive")
        d1 = self._growth_unnorm_today
        out = np.array([self._growth_unnorm(ai) / d1 for ai in a_arr])
        return float(out[0]) if scalar else out

    def growth_rate(self, a) -> np.ndarray:
        """dD/da by centred finite difference, relative step 1e-5 (robust
        for any background)."""
        scalar = np.isscalar(a)
        a_arr = np.atleast_1d(np.asarray(a, dtype=float))
        lo = np.maximum(a_arr * (1 - 1e-5), 1e-8)
        hi = a_arr * (1 + 1e-5)
        out = (np.asarray(self.growth_factor(hi)) - np.asarray(self.growth_factor(lo))) / (hi - lo)
        return float(out[0]) if scalar else out

    def f_growth(self, a) -> np.ndarray:
        """Logarithmic growth rate f = dlnD/dlna (approx Omega_m(a)^0.55)."""
        scalar = np.isscalar(a)
        a_arr = np.atleast_1d(np.asarray(a, dtype=float))
        out = (a_arr * np.atleast_1d(self.growth_rate(a_arr))
               / np.atleast_1d(self.growth_factor(a_arr)))
        return float(out[0]) if scalar else out

    # -- expansion-factor schedules -------------------------------------------------------------

    def aexp_schedule(self, a_start: float, a_end: float, n_steps: int,
                      spacing: str = "log") -> np.ndarray:
        """The sequence of expansion factors a PM run steps through."""
        if not 0 < a_start < a_end:
            raise ValueError("need 0 < a_start < a_end")
        if n_steps < 1:
            raise ValueError("need at least one step")
        if spacing == "log":
            return np.exp(np.linspace(np.log(a_start), np.log(a_end), n_steps + 1))
        if spacing == "linear":
            return np.linspace(a_start, a_end, n_steps + 1)
        raise ValueError(f"unknown spacing {spacing!r}")


#: Einstein-de Sitter: the analytic testbed (D(a) = a, H = a^-1.5).
EDS = Cosmology(omega_m=1.0, omega_l=0.0, h=0.7, sigma8=0.9, n_s=1.0, omega_b=0.0)

#: WMAP-1-like parameters, matching the paper's GRAFIC setup ("consistent
#: with current observational data obtained by the WMAP satellite", 2006).
LCDM_WMAP = Cosmology(omega_m=0.27, omega_l=0.73, h=0.71, sigma8=0.84,
                      n_s=0.99, omega_b=0.044)

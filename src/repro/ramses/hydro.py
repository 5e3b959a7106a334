"""Finite-volume Euler solver (the hydro half of RAMSES, §3).

A 3-d Godunov scheme on a periodic uniform grid: conservative variables
``(rho, rho*u, rho*v, rho*w, E)``, HLLC approximate Riemann fluxes applied
dimension-by-dimension (unsplit, first-order in space/time), ideal-gas EOS,
CFL-limited time steps, and an optional gravity source (from the same FFT
Poisson solver the N-body code uses — "coupled to a finite volume Euler
solver").

The scheme is exactly conservative on the periodic box (tests check mass,
momentum and energy to machine precision) and validated against the exact
Riemann solver on Sod shock tubes along each axis.  Everything is numpy
``np.roll`` stencil algebra — no Python-level cell loops.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .poisson import acceleration_from_source

__all__ = ["HydroState", "HydroSolver", "hllc_flux"]

_SMALL = 1e-12


@dataclass
class HydroState:
    """Conservative fluid state on an (nx, ny, nz) periodic grid."""

    rho: np.ndarray
    mom: np.ndarray           # (..., 3)
    energy: np.ndarray        # total energy density
    gamma: float = 1.4

    def __post_init__(self):
        self.rho = np.asarray(self.rho, dtype=np.float64)
        self.mom = np.asarray(self.mom, dtype=np.float64)
        self.energy = np.asarray(self.energy, dtype=np.float64)
        if self.mom.shape != self.rho.shape + (3,):
            raise ValueError("mom must be rho.shape + (3,)")
        if self.energy.shape != self.rho.shape:
            raise ValueError("energy must match rho's shape")
        if self.gamma <= 1.0:
            raise ValueError("gamma must exceed 1")

    # -- constructors -----------------------------------------------------------

    @classmethod
    def from_primitive(cls, rho: np.ndarray, velocity: np.ndarray,
                       pressure: np.ndarray, gamma: float = 1.4) -> "HydroState":
        if gamma <= 1.0:  # before the division below, not after it
            raise ValueError("gamma must exceed 1")
        rho = np.asarray(rho, dtype=np.float64)
        velocity = np.asarray(velocity, dtype=np.float64)
        pressure = np.asarray(pressure, dtype=np.float64)
        mom = rho[..., None] * velocity
        kinetic = 0.5 * rho * np.sum(velocity ** 2, axis=-1)
        energy = pressure / (gamma - 1.0) + kinetic
        return cls(rho=rho, mom=mom, energy=energy, gamma=gamma)

    @classmethod
    def uniform(cls, shape: Tuple[int, int, int], rho: float = 1.0,
                pressure: float = 1.0, gamma: float = 1.4) -> "HydroState":
        r = np.full(shape, rho)
        v = np.zeros(shape + (3,))
        p = np.full(shape, pressure)
        return cls.from_primitive(r, v, p, gamma)

    # -- primitives ----------------------------------------------------------------

    def velocity(self) -> np.ndarray:
        return self.mom / np.maximum(self.rho, _SMALL)[..., None]

    def pressure(self) -> np.ndarray:
        kinetic = 0.5 * np.sum(self.mom ** 2, axis=-1) / np.maximum(
            self.rho, _SMALL)
        return np.maximum((self.gamma - 1.0) * (self.energy - kinetic), _SMALL)

    def sound_speed(self) -> np.ndarray:
        return np.sqrt(self.gamma * self.pressure()
                       / np.maximum(self.rho, _SMALL))

    # -- conserved totals (for the conservation tests) --------------------------------

    def totals(self) -> Tuple[float, np.ndarray, float]:
        return (float(self.rho.sum()),
                self.mom.sum(axis=tuple(range(self.rho.ndim))),
                float(self.energy.sum()))

    def copy(self) -> "HydroState":
        return HydroState(self.rho.copy(), self.mom.copy(),
                          self.energy.copy(), self.gamma)


def _flux_along(rho, mom, energy, pressure, axis):
    """Physical flux of the conservative variables along ``axis``."""
    u = mom[..., axis] / np.maximum(rho, _SMALL)
    f_rho = mom[..., axis]
    f_mom = mom * u[..., None]
    f_mom[..., axis] += pressure
    f_energy = (energy + pressure) * u
    return f_rho, f_mom, f_energy


def hllc_flux(left: HydroState, right: HydroState, axis: int):
    """HLLC flux (Toro ch. 10) between two cellwise states along ``axis``.

    ``left``/``right`` hold the states on either side of every interface
    (arrays of identical shape); returns (f_rho, f_mom, f_energy).
    """
    gamma = left.gamma
    rl, rr = np.maximum(left.rho, _SMALL), np.maximum(right.rho, _SMALL)
    ul = left.mom[..., axis] / rl
    ur = right.mom[..., axis] / rr
    pl, pr = left.pressure(), right.pressure()
    al, ar = left.sound_speed(), right.sound_speed()

    # wave-speed estimates (Davis/Einfeldt bounds)
    s_l = np.minimum(ul - al, ur - ar)
    s_r = np.maximum(ul + al, ur + ar)
    # contact speed (HLLC)
    denom = rl * (s_l - ul) - rr * (s_r - ur)
    s_star = ((pr - pl + rl * ul * (s_l - ul) - rr * ur * (s_r - ur))
              / np.where(np.abs(denom) < _SMALL, _SMALL, denom))

    fl = _flux_along(left.rho, left.mom, left.energy, pl, axis)
    fr = _flux_along(right.rho, right.mom, right.energy, pr, axis)

    def _signed_safe(x):
        """Protect a denominator without flipping its sign."""
        return np.where(np.abs(x) < _SMALL,
                        np.where(x < 0, -_SMALL, _SMALL), x)

    def star_state(state, rho, u, p, s, s_star):
        """HLLC star-region conservative state (Toro eq. 10.39)."""
        factor = rho * (s - u) / _signed_safe(s - s_star)
        rho_star = factor
        mom_star = state.mom * (factor / np.maximum(state.rho, _SMALL))[..., None]
        mom_star[..., axis] = factor * s_star
        e_star = factor * (state.energy / np.maximum(state.rho, _SMALL)
                           + (s_star - u)
                           * (s_star + p / _signed_safe(rho * (s - u))))
        return rho_star, mom_star, e_star

    rho_sl, mom_sl, e_sl = star_state(left, rl, ul, pl, s_l, s_star)
    rho_sr, mom_sr, e_sr = star_state(right, rr, ur, pr, s_r, s_star)

    # assemble by region
    f_rho = np.where(s_l >= 0, fl[0],
                     np.where(s_star >= 0, fl[0] + s_l * (rho_sl - left.rho),
                              np.where(s_r >= 0,
                                       fr[0] + s_r * (rho_sr - right.rho),
                                       fr[0])))
    f_energy = np.where(s_l >= 0, fl[2],
                        np.where(s_star >= 0,
                                 fl[2] + s_l * (e_sl - left.energy),
                                 np.where(s_r >= 0,
                                          fr[2] + s_r * (e_sr - right.energy),
                                          fr[2])))
    f_mom = np.where(s_l[..., None] >= 0, fl[1],
                     np.where(s_star[..., None] >= 0,
                              fl[1] + s_l[..., None] * (mom_sl - left.mom),
                              np.where(s_r[..., None] >= 0,
                                       fr[1] + s_r[..., None]
                                       * (mom_sr - right.mom),
                                       fr[1])))
    return f_rho, f_mom, f_energy


class HydroSolver:
    """First-order Godunov/HLLC solver on the periodic unit box."""

    def __init__(self, cfl: float = 0.4,
                 self_gravity_constant: float = 0.0):
        if not 0 < cfl < 1:
            raise ValueError("cfl must be in (0, 1)")
        self.cfl = cfl
        #: 4 pi G in code units; 0 disables the gravity source term.
        self.g_constant = self_gravity_constant

    def max_dt(self, state: HydroState, dx: float) -> float:
        speed = (np.abs(state.velocity()).max()
                 + float(state.sound_speed().max()))
        return self.cfl * dx / max(speed, _SMALL)

    def step(self, state: HydroState, dt: float,
             dx: Optional[float] = None) -> None:
        """Advance ``state`` in place by ``dt`` (unsplit Godunov update)."""
        if dx is None:
            dx = 1.0 / state.rho.shape[0]
        d_rho = np.zeros_like(state.rho)
        d_mom = np.zeros_like(state.mom)
        d_energy = np.zeros_like(state.energy)

        for axis in range(state.rho.ndim):
            # interface i+1/2: left = cell i, right = cell i+1
            right = HydroState(np.roll(state.rho, -1, axis=axis),
                               np.roll(state.mom, -1, axis=axis),
                               np.roll(state.energy, -1, axis=axis),
                               state.gamma)
            f_rho, f_mom, f_energy = hllc_flux(state, right, axis)
            d_rho += (np.roll(f_rho, 1, axis=axis) - f_rho) / dx
            d_mom += (np.roll(f_mom, 1, axis=axis) - f_mom) / dx
            d_energy += (np.roll(f_energy, 1, axis=axis) - f_energy) / dx

        state.rho += dt * d_rho
        state.mom += dt * d_mom
        state.energy += dt * d_energy

        if self.g_constant > 0:
            self._apply_gravity(state, dt)

        np.maximum(state.rho, _SMALL, out=state.rho)

    def _apply_gravity(self, state: HydroState, dt: float) -> None:
        """Self-gravity source: laplacian(phi) = g_constant * (rho - mean)."""
        source = self.g_constant * (state.rho - state.rho.mean())
        _, acc = acceleration_from_source(source)
        state.mom += dt * state.rho[..., None] * acc
        state.energy += dt * np.sum(state.mom * acc, axis=-1) \
            / np.maximum(state.rho, _SMALL)

    def run(self, state: HydroState, t_end: float,
            dx: Optional[float] = None, max_steps: int = 100000) -> int:
        """Advance to ``t_end`` with CFL-limited steps; returns step count."""
        if dx is None:
            dx = 1.0 / state.rho.shape[0]
        t = 0.0
        steps = 0
        while t < t_end and steps < max_steps:
            dt = min(self.max_dt(state, dx), t_end - t)
            self.step(state, dt, dx)
            t += dt
            steps += 1
        return steps

"""Cosmological kick-drift-kick leapfrog in the expansion factor.

Equations of motion in code units (H0 = 1, box length 1, p = a^2 dx/dt):

    dx/da = p / (a^3 H(a))                     (drift)
    dp/da = -grad(phi) / (a H(a))              (kick)

with ``laplacian(phi) = (3/2) Omega_m delta / a``.  The KDK splitting is
symplectic for a frozen potential and second-order accurate in da; the
Zel'dovich test (tests/integration) verifies that a pure growing mode in an
Einstein-de Sitter universe follows D(a) = a across many steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from .cosmology import Cosmology
from .gravity import GravitySolver, PMForceResult
from .particles import ParticleSet
from .physcore import phys_c

__all__ = ["Leapfrog", "StepStats"]


@dataclass
class StepStats:
    """Diagnostics from one KDK step."""

    a_before: float
    a_after: float
    max_delta: float
    rms_delta: float
    max_disp: float            # largest drift distance this step (box units)


class Leapfrog:
    """KDK integrator bound to a gravity solver."""

    def __init__(self, cosmology: Cosmology, solver: GravitySolver):
        self.cosmology = cosmology
        self.solver = solver
        self.stats: List[StepStats] = []
        # The last force evaluation and private copies of its x and mass.
        self._force: Optional[PMForceResult] = None
        self._force_x: Optional[np.ndarray] = None
        self._force_mass: Optional[np.ndarray] = None

    # -- operators ---------------------------------------------------------------

    def force(self, parts: ParticleSet, a: float) -> PMForceResult:
        """The PM force on ``parts`` at expansion factor ``a``.

        A KDK step closes with a kick at ``a_next`` and the next one opens
        with a kick at the same ``a`` and the same positions (a kick moves
        ``p`` only), and a snapshot wants the density at that state too.
        The previous evaluation is returned iff ``a``, ``parts.x`` and
        ``parts.mass`` compare equal, element for element, with the copies
        kept of what it was computed from: the force is a pure function of
        those three, so reuse is exact whatever happened in between
        (in-place edits, a restart, another particle set).  Callers must
        not write to the returned arrays.
        """
        last = self._force
        if (last is not None and last.a == a
                and np.array_equal(self._force_x, parts.x)
                and np.array_equal(self._force_mass, parts.mass)):
            return last
        result = self.solver.accelerations(parts.x, parts.mass, a)
        self._force = result
        self._force_x = parts.x.copy()
        self._force_mass = parts.mass.copy()
        return result

    def kick(self, parts: ParticleSet, a: float, da: float) -> PMForceResult:
        """p <- p + dp/da * da at fixed positions (in place).

        Returns the force evaluation it applied.
        """
        result = self.force(parts, a)
        h = float(self.cosmology.hubble(a))
        coef = da / (a * h)
        if phys_c is not None:
            phys_c.kick(parts.p, np.ascontiguousarray(result.acc),
                        coef, parts.p.size)
        else:
            parts.p += result.acc * coef
        return result

    def drift(self, parts: ParticleSet, a: float, da: float) -> float:
        """x <- x + dx/da * da at fixed momenta (in place, wrapped).

        Returns the max displacement (a CFL-like diagnostic).
        """
        h = float(self.cosmology.hubble(a))
        coef = da / (a ** 3 * h)
        if not len(parts):
            return 0.0
        if phys_c is not None:
            # Fused update + wrap + max-|dx| reduction, no temporaries;
            # bit-identical to the numpy expressions below.
            return float(phys_c.drift(parts.x, parts.p, coef, parts.x.size))
        dx = parts.p * coef
        parts.x += dx
        parts.wrap()
        return float(np.abs(dx).max())

    # -- full step -------------------------------------------------------------------

    def step(self, parts: ParticleSet, a: float, a_next: float) -> StepStats:
        """One KDK step from a to a_next (midpoint evaluations)."""
        if a_next <= a:
            raise ValueError("a_next must exceed a")
        da = a_next - a
        self.kick(parts, a, 0.5 * da)
        max_disp = self.drift(parts, 0.5 * (a + a_next), da)
        force = self.kick(parts, a_next, 0.5 * da)
        stats = StepStats(a_before=a, a_after=a_next,
                          max_delta=float(force.delta.max()),
                          rms_delta=float(np.sqrt(np.mean(force.delta ** 2))),
                          max_disp=max_disp)
        self.stats.append(stats)
        return stats

    def run(self, parts: ParticleSet, schedule: np.ndarray,
            callback: Optional[Callable[[float, ParticleSet], None]] = None
            ) -> List[StepStats]:
        """Step through an expansion-factor schedule; callback after each step."""
        schedule = np.asarray(schedule, dtype=float)
        if schedule.ndim != 1 or len(schedule) < 2:
            raise ValueError("schedule must contain at least two expansion factors")
        if np.any(np.diff(schedule) <= 0):
            raise ValueError("schedule must be strictly increasing")
        out = []
        for a, a_next in zip(schedule[:-1], schedule[1:]):
            out.append(self.step(parts, float(a), float(a_next)))
            if callback is not None:
                callback(float(a_next), parts)
        return out

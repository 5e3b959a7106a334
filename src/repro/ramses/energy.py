"""Layzer-Irvine cosmic energy diagnostics.

For the comoving equations of motion used here (``dx/dt = p/a^2``,
``dp/dt = -grad(phi)``, ``laplacian(phi) = (3/2) Omega_m delta / a``),
define

    T(a) = 1/2 sum_i m_i (p_i / a)^2        (peculiar kinetic energy)
    U(a) = 1/2 sum_i m_i phi(x_i)           (comoving potential energy)

Differentiating along the flow gives the Layzer-Irvine equation

    d(T + U)/dt = -(adot/a) (2T + U)

so the integral

    I(a) = T + U + int_{a0}^{a} (2T(a') + U(a')) da'/a'

is an exact invariant of the continuum dynamics.  :class:`LayzerIrvineMonitor`
accumulates I(a) during a run (trapezoidal quadrature between force
evaluations); its relative drift measures the combined time-integration +
PM-force error — a few percent for linear evolution, ~10% deep into the
nonlinear regime at these resolutions, which is standard for a one-level PM
code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from .gravity import GravitySolver
from .particles import ParticleSet

__all__ = ["kinetic_energy", "potential_energy", "LayzerIrvineMonitor"]


def kinetic_energy(parts: ParticleSet, a: float) -> float:
    """Peculiar kinetic energy T = 1/2 sum m (p/a)^2."""
    if a <= 0:
        raise ValueError("expansion factor must be positive")
    return float(0.5 * np.sum(parts.mass * np.sum((parts.p / a) ** 2, axis=1)))


def potential_energy(parts: ParticleSet, solver: GravitySolver,
                     a: float) -> float:
    """Comoving potential energy U = 1/2 sum m phi(x)."""
    return solver.potential_energy_proxy(parts.x, parts.mass, a)


@dataclass
class _Sample:
    a: float
    kinetic: float
    potential: float

    @property
    def virial_sum(self) -> float:
        return 2.0 * self.kinetic + self.potential


@dataclass
class LayzerIrvineMonitor:
    """Accumulates the Layzer-Irvine invariant during a run.

    Use as a :meth:`~repro.ramses.integrator.Leapfrog.run` callback::

        monitor = LayzerIrvineMonitor(solver)
        monitor.sample(a_start, parts)
        leapfrog.run(parts, schedule, callback=monitor.sample)
        assert monitor.relative_drift() < 0.15
    """

    solver: GravitySolver
    samples: List[_Sample] = field(default_factory=list)
    _integral: float = 0.0
    invariants: List[float] = field(default_factory=list)

    def sample(self, a: float, parts: ParticleSet) -> None:
        t = kinetic_energy(parts, a)
        u = potential_energy(parts, self.solver, a)
        current = _Sample(a=a, kinetic=t, potential=u)
        if self.samples:
            prev = self.samples[-1]
            da = current.a - prev.a
            self._integral += 0.5 * (prev.virial_sum / prev.a
                                     + current.virial_sum / current.a) * da
        self.samples.append(current)
        self.invariants.append(t + u + self._integral)

    @property
    def kinetic_history(self) -> np.ndarray:
        return np.array([s.kinetic for s in self.samples])

    def energy_scale(self) -> float:
        """|T| + |U| at the latest sample (the drift normalization)."""
        if not self.samples:
            raise ValueError("no samples taken")
        last = self.samples[-1]
        return abs(last.kinetic) + abs(last.potential)

    def relative_drift(self) -> float:
        """max - min of the invariant, relative to the final energy scale."""
        if len(self.invariants) < 2:
            return 0.0
        inv = np.asarray(self.invariants)
        return float((inv.max() - inv.min()) / max(self.energy_scale(), 1e-300))

    def virial_ratio(self) -> float:
        """-2T/U at the latest sample (-> 1 for a virialized system)."""
        last = self.samples[-1]
        if last.potential == 0:
            raise ValueError("zero potential energy")
        return -2.0 * last.kinetic / last.potential

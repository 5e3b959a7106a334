"""The simulation driver: configuration, run loop, snapshots.

This is the Python stand-in for running ``ramses3d`` on a namelist: it
takes :class:`~repro.grafic.ic.InitialConditions`, steps them with the KDK
integrator and takes snapshots "given a list of time steps (or expansion
factor)" (§3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # avoid a grafic <-> ramses import cycle at runtime
    from ..grafic.ic import InitialConditions

from .gravity import GravitySolver
from .integrator import Leapfrog, StepStats
from .particles import ParticleSet

__all__ = ["RunConfig", "Snapshot", "SimulationResult", "RamsesRun"]


@dataclass(frozen=True)
class RunConfig:
    """Run parameters (the RUN_PARAMS / AMR_PARAMS namelist content)."""

    a_end: float = 1.0
    n_steps: int = 32
    #: Expansion factors at which snapshots are taken (aout in RAMSES).
    output_aexp: tuple = (1.0,)
    #: PM grid cells per side; 0 means match the finest particle lattice.
    n_grid: int = 0
    #: Poisson kernel: "spectral" or "discrete".
    kernel: str = "spectral"
    spacing: str = "log"

    def __post_init__(self):
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if not self.output_aexp:
            raise ValueError("need at least one output expansion factor")
        if any(a <= 0 for a in self.output_aexp):
            raise ValueError("output expansion factors must be positive")


@dataclass
class Snapshot:
    """State of the universe at one output time."""

    aexp: float
    particles: ParticleSet
    rms_delta: float
    max_delta: float

    def projected_density(self, n: int = 64, axis: int = 2) -> np.ndarray:
        """Column-density map (the Figure 2 visual), normalized to mean 1."""
        from .mesh import cic_deposit
        grid = cic_deposit(self.particles.x, self.particles.mass, n)
        proj = grid.sum(axis=axis)
        return proj / proj.mean()


@dataclass
class SimulationResult:
    """Everything a run produced."""

    config: RunConfig
    ic: "InitialConditions"
    snapshots: List[Snapshot] = field(default_factory=list)
    step_stats: List[StepStats] = field(default_factory=list)
    #: PM force evaluations the run made: one per step plus the opening
    #: one (each step's closing kick also serves the next step's opening
    #: kick and any snapshot taken in between).
    force_evaluations: int = 0

    @property
    def final(self) -> Snapshot:
        if not self.snapshots:
            raise ValueError("run produced no snapshots")
        return self.snapshots[-1]


class RamsesRun:
    """One N-body run, from ICs to a list of snapshots."""

    def __init__(self, ic: InitialConditions, config: Optional[RunConfig] = None):
        self.ic = ic
        self.config = config or RunConfig()
        n_grid = self.config.n_grid
        if n_grid == 0:
            # 1:1 with the finest particle lattice: finer grids excite the
            # lattice alias instability, coarser ones waste resolution.
            n_grid = 2 ** ic.levelmax
        self.n_grid = int(n_grid)
        self.solver = GravitySolver(ic.cosmology, self.n_grid,
                                    kernel=self.config.kernel)
        self.integrator = Leapfrog(ic.cosmology, self.solver)

    # -- schedule -------------------------------------------------------------------

    def schedule(self) -> np.ndarray:
        """Expansion-factor schedule including every output time exactly."""
        cfg = self.config
        a0, a1 = self.ic.a_start, cfg.a_end
        if a1 <= a0:
            raise ValueError("a_end must exceed the IC expansion factor")
        base = self.ic.cosmology.aexp_schedule(a0, a1, cfg.n_steps,
                                               spacing=cfg.spacing)
        outputs = np.asarray([a for a in cfg.output_aexp if a0 < a <= a1])
        merged = np.unique(np.concatenate([base, outputs]))
        return merged

    # -- run -----------------------------------------------------------------------------

    def run(self) -> SimulationResult:
        cfg = self.config
        parts = self.ic.particles.copy()
        parts.wrap()
        result = SimulationResult(config=cfg, ic=self.ic)
        schedule = self.schedule()
        outputs = sorted(a for a in cfg.output_aexp
                         if self.ic.a_start < a <= cfg.a_end)
        out_idx = 0
        evaluations_before = self.solver.force_evaluations

        def take_snapshot(aexp: float) -> None:
            force = self.integrator.force(parts, aexp)
            result.snapshots.append(Snapshot(
                aexp=aexp, particles=parts.copy(),
                rms_delta=float(np.sqrt(np.mean(force.delta ** 2))),
                max_delta=float(force.delta.max())))

        for a, a_next in zip(schedule[:-1], schedule[1:]):
            result.step_stats.append(
                self.integrator.step(parts, float(a), float(a_next)))
            while out_idx < len(outputs) and a_next >= outputs[out_idx] - 1e-12:
                take_snapshot(float(a_next))
                out_idx += 1

        if not result.snapshots:
            take_snapshot(float(schedule[-1]))
        result.force_evaluations = (self.solver.force_evaluations
                                    - evaluations_before)
        return result

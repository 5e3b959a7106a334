"""The simulation driver: configuration, run loop, snapshots.

This is the Python stand-in for running ``ramses3d`` on a namelist: it
takes :class:`~repro.grafic.ic.InitialConditions`, steps them with the KDK
integrator, writes snapshots "given a list of time steps (or expansion
factor)" (§3), and keeps the AMR/domain-decomposition bookkeeping that the
cost model and the analysis figures consume.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # avoid a grafic <-> ramses import cycle at runtime
    from ..grafic.ic import InitialConditions

from .amr import AmrHierarchy, build_amr
from .cosmology import Cosmology
from .domain import DomainDecomposition, decompose
from .gravity import GravitySolver
from .integrator import Leapfrog, StepStats
from .io import SnapshotHeader, write_snapshot
from .namelist import Namelist
from .particles import ParticleSet

__all__ = ["RunConfig", "Snapshot", "SimulationResult", "RamsesRun",
           "config_from_namelist"]


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
    #: MPI ranks for the domain-decomposition bookkeeping.
    ncpu: int = 1
    #: AMR refinement threshold (particles per cell), RAMSES' m_refine.
    m_refine: float = 8.0
    #: Extra AMR levels allowed above the particle lattice level.
    n_extra_levels: int = 2
    spacing: str = "log"

    def __post_init__(self):
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if self.ncpu < 1:
            raise ValueError("ncpu must be >= 1")
        if not self.output_aexp:
            raise ValueError("need at least one output expansion factor")
        if any(a <= 0 for a in self.output_aexp):
            raise ValueError("output expansion factors must be positive")


@dataclass
class Snapshot:
    """State of the universe at one output time."""

    output_number: int
    aexp: float
    particles: ParticleSet
    amr: AmrHierarchy
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
    #: load imbalance (max/mean work) per re-decomposition
    imbalance_history: List[float] = field(default_factory=list)
    total_work_units: float = 0.0
    #: PM force evaluations the run made: one per step plus the opening
    #: one (each step's closing kick also serves the next step's opening
    #: kick and any snapshot taken in between).
    force_evaluations: int = 0

    def snapshot_at(self, aexp: float, tol: float = 1e-6) -> Snapshot:
        for snap in self.snapshots:
            if abs(snap.aexp - aexp) <= tol:
                return snap
        raise KeyError(f"no snapshot at aexp={aexp}")

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

    def run(self, callback: Optional[Callable[[Snapshot], None]] = None,
            output_dir: Optional[str] = None) -> SimulationResult:
        cfg = self.config
        parts = self.ic.particles.copy()
        parts.wrap()
        result = SimulationResult(config=cfg, ic=self.ic)
        schedule = self.schedule()
        outputs = sorted(a for a in cfg.output_aexp
                         if self.ic.a_start < a <= cfg.a_end)
        out_idx = 0
        levelmin = self.ic.levelmin
        levelmax = self.ic.levelmax + cfg.n_extra_levels
        work_weights = parts.mass.min() / parts.mass  # fine particles cost more
        evaluations_before = self.solver.force_evaluations

        decomp = decompose(parts.x, cfg.ncpu, weights=work_weights)
        result.imbalance_history.append(
            decomp.load_imbalance(parts.x, weights=work_weights))

        def take_snapshot(aexp: float) -> None:
            nonlocal out_idx
            amr = build_amr(parts.x, parts.mass, levelmin, levelmax,
                            m_refine=cfg.m_refine)
            force = self.integrator.force(parts, aexp)
            snap = Snapshot(output_number=out_idx + 1, aexp=aexp,
                            particles=parts.copy(), amr=amr,
                            rms_delta=float(np.sqrt(np.mean(force.delta ** 2))),
                            max_delta=float(force.delta.max()))
            result.snapshots.append(snap)
            result.total_work_units += amr.work_units(n_particles=len(parts))
            if output_dir is not None:
                header = SnapshotHeader(
                    ncpu=cfg.ncpu, ndim=3, npart=len(parts), aexp=aexp,
                    omega_m=self.ic.cosmology.omega_m,
                    omega_l=self.ic.cosmology.omega_l,
                    h0=100.0 * self.ic.cosmology.h,
                    boxlen_mpc_h=self.ic.boxsize_mpc_h,
                    levelmin=levelmin, levelmax=levelmax,
                    output_number=snap.output_number)
                write_snapshot(os.path.join(output_dir,
                                            f"output_{snap.output_number:05d}"),
                               header, parts,
                               ranks=decomp.rank_of_positions(parts.x))
            if callback is not None:
                callback(snap)
            out_idx += 1

        for a, a_next in zip(schedule[:-1], schedule[1:]):
            stats = self.integrator.step(parts, float(a), float(a_next))
            result.step_stats.append(stats)
            # periodic re-decomposition (RAMSES load balances as it runs)
            if len(result.step_stats) % 8 == 0:
                decomp = decompose(parts.x, cfg.ncpu, weights=work_weights)
                result.imbalance_history.append(
                    decomp.load_imbalance(parts.x, weights=work_weights))
            while out_idx < len(outputs) and a_next >= outputs[out_idx] - 1e-12:
                take_snapshot(float(a_next))

        if not result.snapshots:
            take_snapshot(float(schedule[-1]))
        result.force_evaluations = (self.solver.force_evaluations
                                    - evaluations_before)
        return result


def resume_run(directory: str, output_number: int,
               config: RunConfig) -> "RamsesRun":
    """Restart a run from an on-disk snapshot (RAMSES' restart files).

    Reads the snapshot written by a previous run's ``output_dir`` and
    builds a :class:`RamsesRun` whose initial state is the checkpoint: the
    background cosmology comes from the snapshot header, the expansion
    factor from its ``aexp``.  With a stepping schedule that subdivides the
    original one identically, the resumed run reproduces the original
    trajectory bit for bit (the KDK integrator is deterministic) — the
    restart test asserts exactly that.

    Note: the snapshot header does not carry sigma8/n_s (they only matter
    for IC generation, which a restart never redoes).
    """
    from ..grafic.ic import InitialConditions
    from .cosmology import Cosmology
    from .io import read_snapshot

    header, parts = read_snapshot(directory, output_number)
    cosmology = Cosmology(omega_m=header.omega_m, omega_l=header.omega_l,
                          h=header.h0 / 100.0)
    # The finest particle-lattice level follows from the mass hierarchy
    # (the header's levelmax includes AMR headroom beyond the lattice).
    n_finest = (parts.total_mass / parts.mass.min()) ** (1.0 / 3.0)
    lattice_level = max(int(round(np.log2(max(n_finest, 2.0)))),
                        header.levelmin)
    ic = InitialConditions(particles=parts, a_start=header.aexp,
                           boxsize_mpc_h=header.boxlen_mpc_h,
                           cosmology=cosmology, levelmin=header.levelmin,
                           levelmax=lattice_level)
    return RamsesRun(ic, config)


def config_from_namelist(nml: Namelist) -> RunConfig:
    """Build a RunConfig from a RAMSES-style namelist."""
    aout = nml.get_param("OUTPUT_PARAMS", "aout", 1.0)
    if not isinstance(aout, list):
        aout = [aout]
    return RunConfig(
        a_end=float(nml.get_param("RUN_PARAMS", "aexp_end", 1.0)),
        n_steps=int(nml.get_param("RUN_PARAMS", "nstepmax", 32)),
        output_aexp=tuple(float(a) for a in aout),
        n_grid=int(nml.get_param("AMR_PARAMS", "ngridmax", 0)),
        ncpu=int(nml.get_param("RUN_PARAMS", "ncpu", 1)),
        m_refine=float(nml.get_param("REFINE_PARAMS", "m_refine", 8.0)),
    )

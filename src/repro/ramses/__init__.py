"""RAMSES substitute: a working cosmological N-body code.

Particle-mesh gravity (CIC + FFT Poisson), cosmological KDK leapfrog,
quasi-Lagrangian AMR bookkeeping, Peano-Hilbert domain decomposition,
Fortran-unformatted snapshot I/O, namelist configuration, and the zoom
re-simulation workflow of the paper's §3.
"""

from .amr import AmrHierarchy, AmrLevel, build_amr
from .cosmology import Cosmology, EDS, LCDM_WMAP
from .energy import LayzerIrvineMonitor, kinetic_energy, potential_energy
from .domain import DomainDecomposition, decompose, exchange_matrix, slab_ranks
from .gravity import GravitySolver, PMForceResult
from .hilbert import hilbert_decode, hilbert_encode, positions_to_keys
from .hydro import HydroSolver, HydroState, hllc_flux
from .integrator import Leapfrog, StepStats
from .io import (
    FortranRecordFile,
    SnapshotHeader,
    read_snapshot,
    snapshot_paths,
    write_snapshot,
)
from .mesh import cic_deposit, cic_interpolate, cic_weights, density_contrast
from .namelist import Namelist, format_namelist, parse_namelist
from .parallel import MpiCostModel, ParallelStepModel, StepBreakdown
from .riemann import PrimitiveState, exact_riemann, sample_riemann, sod_states
from .particles import ParticleSet
from .physcore import PHYS_IMPL
from .poisson import (
    acceleration_from_source,
    gradient_spectral,
    laplacian_eigenvalues,
    poisson_solve,
)
from .simulation import (
    RamsesRun,
    resume_run,
    RunConfig,
    SimulationResult,
    Snapshot,
    config_from_namelist,
)
from .units import Units
from .zoom import (
    ZoomSpec,
    lagrangian_positions_of_ids,
    lagrangian_region,
    resolution_gain,
    run_zoom,
)

__all__ = [
    "AmrHierarchy",
    "AmrLevel",
    "Cosmology",
    "DomainDecomposition",
    "EDS",
    "FortranRecordFile",
    "GravitySolver",
    "HydroSolver",
    "HydroState",
    "LCDM_WMAP",
    "LayzerIrvineMonitor",
    "Leapfrog",
    "MpiCostModel",
    "Namelist",
    "ParallelStepModel",
    "PMForceResult",
    "ParticleSet",
    "PrimitiveState",
    "RamsesRun",
    "RunConfig",
    "SimulationResult",
    "Snapshot",
    "SnapshotHeader",
    "StepStats",
    "Units",
    "ZoomSpec",
    "acceleration_from_source",
    "build_amr",
    "PHYS_IMPL",
    "cic_deposit",
    "cic_interpolate",
    "cic_weights",
    "config_from_namelist",
    "decompose",
    "density_contrast",
    "exact_riemann",
    "exchange_matrix",
    "format_namelist",
    "gradient_spectral",
    "hllc_flux",
    "hilbert_decode",
    "kinetic_energy",
    "hilbert_encode",
    "lagrangian_positions_of_ids",
    "lagrangian_region",
    "laplacian_eigenvalues",
    "parse_namelist",
    "poisson_solve",
    "potential_energy",
    "positions_to_keys",
    "read_snapshot",
    "sample_riemann",
    "sod_states",
    "resolution_gain",
    "resume_run",
    "run_zoom",
    "slab_ranks",
    "snapshot_paths",
    "StepBreakdown",
    "write_snapshot",
]

"""Parallel-execution model: RAMSES over MPI ranks on a cluster slice.

§4.1: each SeD "will be in charge of a set of machines (typically 32
machines to run a 256^3 particules simulation)"; §5.1 uses 16 machines per
SeD for the 128^3 runs.  This module models what those machines do: the
per-step wall time of a PM/AMR N-body step distributed over ``p`` ranks via
the Peano-Hilbert decomposition,

    t_step(p) = t_compute(p) + t_ghost(p) + t_fft(p)

* ``t_compute`` — the heaviest rank's particle+cell work (the Hilbert cut
  balances counts, not geometry, so clustered snapshots carry imbalance);
* ``t_ghost`` — boundary exchange: per-neighbour latency plus boundary
  volume over the bisection bandwidth (from the real
  :func:`~repro.ramses.domain.exchange_matrix` of the distribution);
* ``t_fft`` — the global PM solve: FFT flops split over ranks plus the
  all-to-all transpose shipping each rank's slab.

The model returns speedup/efficiency curves used by the E10 ablation bench
("why 16 machines per SeD?") and by integration tests that check the
expected scaling regimes (linear at small p, communication-bound at large
p).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .domain import decompose, exchange_matrix

__all__ = ["MpiCostModel", "StepBreakdown", "ParallelStepModel"]


@dataclass(frozen=True)
class MpiCostModel:
    """Cluster-interconnect and node parameters (GigE-era defaults).

    Work terms are normalized operations (GHz-seconds x speed), matching
    :class:`~repro.services.perfmodel.RamsesPerfModel`.
    """

    #: per-message MPI latency (s) — GigE + TCP stack, mid-2000s.
    latency: float = 60e-6
    #: point-to-point bandwidth (bytes/s).
    bandwidth: float = 1.0e8
    #: bytes exchanged per boundary particle: positions, masses and the
    #: ghost AMR cells riding along (AMR codes ship whole boundary octs).
    bytes_per_boundary_particle: float = 2048.0
    #: normalized work per particle per step (drift+kick+CIC); together
    #: with ``work_per_cell`` this is consistent with the campaign cost
    #: model's kappa (~4.5e-5 GHz-seconds per particle-step).
    work_per_particle: float = 3.5e-5
    #: normalized work per grid cell per step (FFT + difference stencils).
    work_per_cell: float = 1.0e-5
    #: bytes per grid cell crossing the all-to-all FFT transpose.
    bytes_per_cell_transpose: float = 16.0


@dataclass
class StepBreakdown:
    """Per-step wall-time decomposition for one rank count."""

    ncpu: int
    compute: float
    ghost: float
    fft: float
    imbalance: float       # max work / mean work

    @property
    def total(self) -> float:
        return self.compute + self.ghost + self.fft


class ParallelStepModel:
    """Wall-time model of one N-body step for a given particle snapshot."""

    def __init__(self, x: np.ndarray, n_grid: int,
                 cost: Optional[MpiCostModel] = None,
                 node_speed_ghz: float = 2.0,
                 decomposition_level: int = 5):
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != 3:
            raise ValueError("x must be (N, 3)")
        if n_grid < 2:
            raise ValueError("n_grid must be >= 2")
        if node_speed_ghz <= 0:
            raise ValueError("node speed must be positive")
        self.x = x
        self.n_grid = int(n_grid)
        self.cost = cost or MpiCostModel()
        self.node_speed = float(node_speed_ghz)
        self.level = decomposition_level

    def breakdown(self, ncpu: int) -> StepBreakdown:
        if ncpu < 1:
            raise ValueError("ncpu must be >= 1")
        cost = self.cost
        n_particles = len(self.x)
        n_cells = self.n_grid ** 3

        if ncpu == 1:
            compute_work = (n_particles * cost.work_per_particle
                            + n_cells * cost.work_per_cell)
            return StepBreakdown(ncpu=1,
                                 compute=compute_work / self.node_speed,
                                 ghost=0.0, fft=0.0, imbalance=1.0)

        decomp = decompose(self.x, ncpu, level=self.level)
        ranks = decomp.rank_of_positions(self.x)
        counts = np.bincount(ranks, minlength=ncpu).astype(float)
        imbalance = counts.max() / max(counts.mean(), 1e-300)

        # compute: the slowest rank paces the step
        max_work = (counts.max() * cost.work_per_particle
                    + (n_cells / ncpu) * cost.work_per_cell)
        compute = max_work / self.node_speed

        # ghost exchange: per-rank neighbour messages + boundary volume
        xmat = exchange_matrix(ranks, self.x, ncpu, level=self.level)
        neighbours = (xmat > 0).sum(axis=1)
        boundary = xmat.sum(axis=1)   # boundary particles per rank (x2-ish)
        ghost = float((neighbours * cost.latency).max()
                      + (boundary * cost.bytes_per_boundary_particle
                         / cost.bandwidth).max())

        # FFT all-to-all: every rank ships its slab once each way
        transpose_bytes = n_cells * cost.bytes_per_cell_transpose / ncpu
        fft = (2.0 * (ncpu - 1) * cost.latency
               + 2.0 * transpose_bytes / cost.bandwidth)

        return StepBreakdown(ncpu=ncpu, compute=compute, ghost=ghost,
                             fft=fft, imbalance=float(imbalance))

    def speedup(self, ncpu: int) -> float:
        return self.breakdown(1).total / self.breakdown(ncpu).total

    def efficiency(self, ncpu: int) -> float:
        return self.speedup(ncpu) / ncpu

"""Execution-time model for the RAMSES services.

The §5 experiment ran on hardware we do not have, so wall-clock costs come
from this model (DESIGN.md substitution table).  Work is expressed in
normalized GHz-seconds: a job of work ``W`` takes ``W / host.speed`` seconds
on a host of speed ``speed`` (GHz-equivalent), which is how the simulated
SeDs charge time.  On top of the CPU work every job pays NFS time for its
IC files and snapshots (speed-independent), which the calibration accounts
for.

Calibration targets (§5.2):

* part 1 (single 128^3, 100 Mpc/h run) lasted **1 h 15 min 11 s = 4511 s**
  on the SeD the default policy picks first (a 2.0 GHz Opteron 246 —
  lyon-capricorne);
* the 100 zoom sub-simulations averaged **1 h 24 min 1 s = 5041 s**; with
  the §5.1 SeD speed mix, that pins the mean zoom work.  The paper reports
  a *sample* average, so the calibration divides out the realized mean of
  the noise draws the canonical campaign consumes (job indices 2..101 —
  part 1 takes index 1);
* per-SeD busy time then spans ~10.5 h (Nancy) to ~15 h (Toulouse),
  Figure 4 right.

The work formulas scale physically (particles x steps, with zoom-level
subcycling), so REAL-mode toy runs use the *same* model at their own
parameters; only the constants are calibrated.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..sim.rng import RandomStreams

__all__ = ["RamsesPerfModel", "SurveyPerfModel", "PAPER_PART1_SECONDS",
           "PAPER_PART2_MEAN_SECONDS", "PAPER_TOTAL_SECONDS",
           "PAPER_RESOLUTION", "PAPER_BOX_MPC_H"]

#: §5.2 headline numbers (seconds).
PAPER_PART1_SECONDS = 1 * 3600 + 15 * 60 + 11      # 4511
PAPER_PART2_MEAN_SECONDS = 1 * 3600 + 24 * 60 + 1  # 5041
PAPER_TOTAL_SECONDS = 16 * 3600 + 18 * 60 + 43     # 58723
PAPER_RESOLUTION = 128
PAPER_BOX_MPC_H = 100

#: Speed of the SeD that receives the first (part-1) request under the
#: default policy on the paper deployment: lyon-capricorne, Opteron 246.
_FIRST_SED_SPEED = 2.0

#: Mean inverse speed of the 11 paper SeDs (see grid5000.py):
#: 2 x 2.0, 1 x 2.4, 2 x 2.2, 2 x 2.6, 2 x 1.82(violette), 2 x 2.2.
_MEAN_INV_SPEED = (2 / 2.0 + 1 / 2.4 + 2 / 2.2 + 2 / 2.6
                   + 2 / 1.82 + 2 / 2.2) / 11.0

#: Job indices the canonical campaign's 100 zoom requests consume.
_CANONICAL_INDICES = (2, 102)


# Sized to the canonical range: a campaign draws it once for the sample
# mean and again, index by index, for its zooms (a smaller LRU lets the
# second pass evict every entry just before it is read).
@lru_cache(maxsize=_CANONICAL_INDICES[1] - _CANONICAL_INDICES[0])
def _noise_draw(seed: int, sigma: float, index: int) -> float:
    """The (mean-one) lognormal work factor of job ``index``."""
    rng = RandomStreams(seed).get("zoom-work", index)
    return float(np.exp(rng.normal(-0.5 * sigma ** 2, sigma)))


@lru_cache(maxsize=16)
def _realized_noise_mean(seed: int, sigma: float, lo: int, hi: int) -> float:
    return float(np.mean([_noise_draw(seed, sigma, i) for i in range(lo, hi)]))


@dataclass(frozen=True)
class RamsesPerfModel:
    """Work model for both services.

    ``kappa`` is GHz-seconds per particle-step of the PM/AMR solver;
    ``n_steps`` the canonical number of coarse steps per run; both derive
    from the calibration targets above.
    """

    #: coarse time steps of a production run (RAMSES nstepmax scale).
    n_steps: int = 80
    #: relative per-request scatter of the zoom work (region-dependent
    #: clustering => different AMR depth per target halo).
    sigma: float = 0.08
    #: GALICS post-processing cost as a fraction of the solve cost.
    postproc_fraction: float = 0.06
    #: IC generation (GRAFIC) cost as a fraction of the solve cost.
    ic_fraction: float = 0.04
    #: effective NFS throughput for the I/O charge, bytes/s (matches the
    #: platform's NfsVolume default).
    nfs_throughput: float = 60e6
    seed: int = 2007

    # -- NFS charge --------------------------------------------------------------------

    def snapshot_bytes(self, resolution: int, n_outputs: int = 10) -> int:
        """On-NFS snapshot volume of one run (8 doubles per particle)."""
        return int(resolution ** 3 * 8 * 8 * n_outputs)

    def nfs_seconds(self, resolution: int) -> float:
        """I/O time a job spends on its cluster's NFS volume (uncontended):
        IC files (one output worth) plus the full snapshot series."""
        total_bytes = (self.snapshot_bytes(resolution, 1)
                       + self.snapshot_bytes(resolution, 10))
        return total_bytes / self.nfs_throughput

    # -- derived calibration constants ------------------------------------------------

    @property
    def kappa(self) -> float:
        """GHz-seconds per particle-step, from the part-1 target."""
        n_particles = PAPER_RESOLUTION ** 3
        cpu_seconds = PAPER_PART1_SECONDS - self.nfs_seconds(PAPER_RESOLUTION)
        total = cpu_seconds * _FIRST_SED_SPEED
        solve = total / (1.0 + self.postproc_fraction + self.ic_fraction)
        return solve / (n_particles * self.n_steps)

    @property
    def zoom_overhead_factor(self) -> float:
        """Extra work of a zoom run relative to a single-level run of the
        same coarse resolution, from the part-2 sample-mean target."""
        single = self.part1_work(PAPER_RESOLUTION)
        cpu_target = PAPER_PART2_MEAN_SECONDS - self.nfs_seconds(PAPER_RESOLUTION)
        noise_mean = _realized_noise_mean(self.seed, self.sigma,
                                          *_CANONICAL_INDICES)
        return cpu_target / (_MEAN_INV_SPEED * noise_mean) / single

    # -- work (GHz-seconds); divide by host speed for seconds ----------------------------

    def _with_overheads(self, solve_work: float) -> float:
        return solve_work * (1.0 + self.postproc_fraction + self.ic_fraction)

    def part1_work(self, resolution: int) -> float:
        """Full-box single-level run at ``resolution``^3 particles."""
        if resolution < 2:
            raise ValueError("resolution must be >= 2")
        return self._with_overheads(self.kappa * resolution ** 3 * self.n_steps)

    def part2_work(self, resolution: int, n_levels: int,
                   request_index: int = 0) -> float:
        """One zoom re-simulation.

        The coarse box costs like part 1; nested levels add subcycled work
        on their (shrinking) subvolumes.  The calibrated
        ``zoom_overhead_factor`` absorbs the level bookkeeping for the
        canonical 2-level request; other depths scale by the subcycling
        series.  ``request_index`` selects the deterministic per-request
        scatter draw (the SeD uses its job counter, so the canonical
        campaign consumes draws 2..101 in arrival order).
        """
        if n_levels < 0:
            raise ValueError("n_levels must be >= 0")
        base = self.part1_work(resolution) * self.zoom_overhead_factor

        def level_sum(nl: int) -> float:
            return 1.0 + sum(2.0 ** l / 8.0 ** l * 4.0 for l in range(1, nl + 1))

        base *= level_sum(n_levels) / level_sum(2)
        return base * _noise_draw(self.seed, self.sigma, request_index)

    # -- data sizes ----------------------------------------------------------------------

    def result_tarball_bytes(self, resolution: int) -> int:
        """Size of the packed GALICS products shipped back to the client."""
        return int(4e6 + 64.0 * resolution ** 2)


@dataclass(frozen=True)
class SurveyPerfModel:
    """Work model for the survey pipeline services (IC -> run -> lensing).

    Survey boxes are modest full-box runs swept over many cosmologies
    (LensTools shape), not deep zooms: the work is noise-free and scales
    with particles x steps for the N-body stages and with plane pixels
    for the lensing stages.  Same unit convention as
    :class:`RamsesPerfModel`: work is GHz-seconds, a host of speed ``s``
    takes ``work / s`` seconds.
    """

    #: GHz-seconds per particle-step of the survey solver (single-level
    #: full box, no AMR subcycling — cheaper per particle than a zoom).
    kappa: float = 2.0e-6
    #: coarse steps of one survey box.
    n_steps: int = 40
    #: IC generation (CAMB + GRAFIC pass) relative to a run.
    ic_fraction: float = 0.05
    #: GHz-seconds per lens-plane pixel of the Born ray bookkeeping.
    kappa_lens: float = 2.0e-4
    #: effective NFS throughput for staging products, bytes/s.
    nfs_throughput: float = 60e6

    # -- work (GHz-seconds) --------------------------------------------------------------

    def ic_work(self, resolution: int) -> float:
        """Initial-conditions generation for one cosmology point."""
        if resolution < 2:
            raise ValueError("resolution must be >= 2")
        return self.kappa * resolution ** 3 * self.n_steps * self.ic_fraction

    def run_work(self, resolution: int) -> float:
        """One full-box survey run at ``resolution``^3 particles."""
        if resolution < 2:
            raise ValueError("resolution must be >= 2")
        return self.kappa * resolution ** 3 * self.n_steps

    def lensing_work(self, resolution: int, n_planes: int) -> float:
        """Born stacking of ``n_planes`` density slabs into one map."""
        if n_planes < 1:
            raise ValueError("n_planes must be >= 1")
        return self.kappa_lens * n_planes * resolution ** 2

    def reduce_work(self, resolution: int) -> float:
        """Pairwise weighted stack of two convergence maps."""
        return self.kappa_lens * resolution ** 2

    # -- data sizes ----------------------------------------------------------------------

    def ic_bytes(self, resolution: int) -> int:
        """Displacement field: 3 doubles per particle."""
        return int(resolution ** 3 * 3 * 8)

    def slab_bytes(self, resolution: int, n_planes: int) -> int:
        """Projected density slabs: ``n_planes`` single-precision planes."""
        return int(n_planes * resolution ** 2 * 4)

    def map_bytes(self, resolution: int) -> int:
        """One convergence map, single precision."""
        return int(resolution ** 2 * 4)

    def nfs_seconds(self, nbytes: int) -> float:
        """Uncontended NFS time for staging ``nbytes`` of products."""
        return nbytes / self.nfs_throughput

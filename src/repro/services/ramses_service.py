"""The RAMSES DIET services: ``ramsesZoom1`` and ``ramsesZoom2`` (paper §4).

"The cosmological simulation is divided in two services: ramsesZoom1 and
ramsesZoom2 [...].  The first one is used to determine interesting parts of
the universe, while the second is used to study these parts in details."

``ramsesZoom2`` uses the paper's exact nine-argument profile
(``diet_profile_desc_alloc("ramsesZoom2", 6, 6, 8)``):

====  ====  =============================================================
 #    dir   content
====  ====  =============================================================
 0    IN    namelist file (RAMSES parameters)
 1    IN    resolution (particles per side)
 2    IN    size of the initial conditions box (Mpc/h)
 3-5  IN    centre coordinates cx, cy, cz (DIET_INT fixed point, x 1e6)
 6    IN    number of zoom levels (nested boxes)
 7    OUT   result file (tarball of post-processed GALICS products)
 8    OUT   error-control integer (0 == success)
====  ====  =============================================================

Each service supports two execution modes:

* ``MODELED`` — charge the calibrated §5 durations (benchmarks);
* ``REAL`` — actually run the Python GRAFIC -> RAMSES -> GALICS pipeline at
  the profile's (toy) parameters, producing genuine files and a genuine
  ``.tar.gz``, while simulated time still comes from the cost model at
  those parameters (examples, integration tests).

Both modes execute the same DIET code path end to end.
"""

from __future__ import annotations

import enum
import gzip
import math
import os
import tarfile
from dataclasses import dataclass, field
from typing import Any, Dict, Generator, Optional

from ..core.data import BaseType, FileRef, file_desc, scalar_desc
from ..core.deployment import Deployment
from ..core.profile import Profile, ProfileDesc
from ..core.sed import SolveContext
from ..galics.catalogs import write_halo_catalog
from ..platform.nfs import NfsVolume
from ..galics.halomaker import find_halos
from ..grafic.ic import make_multi_level_ic, make_single_level_ic
from ..ramses.cosmology import LCDM_WMAP, Cosmology
from ..ramses.namelist import parse_namelist
from ..ramses.simulation import RamsesRun, RunConfig
from .perfmodel import RamsesPerfModel

__all__ = ["ExecutionMode", "RamsesServiceConfig", "RamsesService",
           "FaultStats", "zoom1_profile_desc", "zoom2_profile_desc",
           "COORD_SCALE", "register_ramses_services"]

#: Fixed-point scale for the DIET_INT centre coordinates (box units x 1e6).
COORD_SCALE = 1_000_000


def zoom1_profile_desc() -> ProfileDesc:
    """ramsesZoom1: (namelist, resolution, size) -> (halo catalog, error)."""
    desc = ProfileDesc("ramsesZoom1", 2, 2, 4)
    desc.set_arg(0, file_desc())
    desc.set_arg(1, scalar_desc(BaseType.INT))
    desc.set_arg(2, scalar_desc(BaseType.INT))
    desc.set_arg(3, file_desc())
    desc.set_arg(4, scalar_desc(BaseType.INT))
    return desc


def zoom2_profile_desc() -> ProfileDesc:
    """ramsesZoom2 with the paper's argument layout (§4.2.1/§4.3.2)."""
    desc = ProfileDesc("ramsesZoom2", 6, 6, 8)
    desc.set_arg(0, file_desc())                      # namelist
    for i in range(1, 7):
        desc.set_arg(i, scalar_desc(BaseType.INT))    # resol, size, cx..cz, nbBox
    desc.set_arg(7, file_desc())                      # result tarball
    desc.set_arg(8, scalar_desc(BaseType.INT))        # error control
    return desc


class ExecutionMode(enum.Enum):
    MODELED = "modeled"
    REAL = "real"


@dataclass
class RamsesServiceConfig:
    """Configuration shared by every SeD's RAMSES services."""

    mode: ExecutionMode = ExecutionMode.MODELED
    perf: RamsesPerfModel = field(default_factory=RamsesPerfModel)
    cosmology: Cosmology = LCDM_WMAP
    #: REAL mode: directory for genuine output files (one subdir per job).
    workdir: Optional[str] = None
    #: REAL mode: toy-run integration steps and end time.
    real_n_steps: int = 16
    real_a_end: float = 1.0
    real_zoom_half_size: float = 0.2
    seed: int = 42
    #: Checkpoint the ramsesZoom2 main phase every this many normalized work
    #: units (RAMSES's own restart dumps: amr/hydro state written to the NFS
    #: working directory).  None — the default — disables checkpointing
    #: entirely and the solve path is byte-for-byte the happy-path one.
    checkpoint_interval_work: Optional[float] = None
    #: Advertise restart dumps through the data manager's replica catalog,
    #: and let a resumed attempt on a *different* cluster pull the dump
    #: volume-to-volume instead of restarting from scratch.
    checkpoint_catalog: bool = False

    def __post_init__(self):
        if self.mode is ExecutionMode.REAL and not self.workdir:
            raise ValueError("REAL mode needs a workdir for output files")
        if (self.checkpoint_interval_work is not None
                and self.checkpoint_interval_work <= 0):
            raise ValueError("checkpoint_interval_work must be positive")


@dataclass
class FaultStats:
    """What fault tolerance did (and cost) across a service's lifetime."""

    checkpoints_written: int = 0
    restarts_from_checkpoint: int = 0
    restarts_from_scratch: int = 0
    #: Normalized work executed by dead attempts and never recovered
    #: (counted at segment granularity — a partially executed segment
    #: counts as entirely lost).
    work_lost: float = 0.0
    #: Normalized work a resumed attempt did NOT redo thanks to a checkpoint.
    work_recovered: float = 0.0


@dataclass
class _JobProgress:
    """Durable identity of one zoom2 job across solve attempts.

    ``total_work`` pins the job's noise draw at first attempt: a resubmitted
    job must cost the same work wherever it lands, not redraw from the
    shared job counter.  ``volume``/``path`` locate the newest checkpoint;
    §4.1 makes it readable only from hosts mounting that same volume.
    """

    key: str
    total_work: float
    path: str
    volume: Optional[NfsVolume] = None
    #: Main-phase segments durably checkpointed so far.
    segments_done: int = 0
    #: Work executed since the last durable checkpoint (the amount a crash
    #: right now would lose).
    unsaved: float = 0.0
    attempts: int = 0


class RamsesService:
    """Solve-function factory for one deployment-wide configuration."""

    def __init__(self, config: RamsesServiceConfig):
        self.config = config
        self._job_counter = 0
        #: Shared across every SeD the service is registered on, so a
        #: resubmitted job finds its record wherever it lands.
        self._progress: Dict[str, _JobProgress] = {}
        self.fault_stats = FaultStats()

    def _run_config_from_profile(self, profile: Profile) -> RunConfig:
        """REAL mode: honour the shipped namelist (the paper's "file
        containing parameters for RAMSES") when it carries run parameters;
        fall back to the service defaults otherwise."""
        n_steps = self.config.real_n_steps
        a_end = self.config.real_a_end
        namelist_ref = profile.parameter(0).get()
        if isinstance(namelist_ref, FileRef) and namelist_ref.content:
            try:
                nml = parse_namelist(namelist_ref.content)
            except ValueError:
                nml = None
            if nml is not None:
                n_steps = int(nml.get_param("RUN_PARAMS", "nstepmax", n_steps))
                a_end = float(nml.get_param("RUN_PARAMS", "aexp_end", a_end))
        return RunConfig(a_end=a_end, n_steps=n_steps, output_aexp=(a_end,))

    # -- shared plumbing ---------------------------------------------------------------

    def _charge_phases(self, ctx: SolveContext, work: float, resolution: int,
                       job_id: int) -> Generator[Any, Any, None]:
        """Charge IC generation + solve + post-processing, with NFS traffic.

        §4.1: "For each simulation the generation of the initial conditions
        files, the processing and the post-processing are done on the same
        cluster" — all three phases run under this SeD, touching its NFS
        volume.
        """
        perf = self.config.perf
        denom = 1.0 + perf.ic_fraction + perf.postproc_fraction
        solve_work = work / denom
        yield from ctx.execute(solve_work * perf.ic_fraction)      # GRAFIC
        if ctx.nfs is not None:
            yield from ctx.nfs.write(ctx.host.name, f"ic-{job_id}",
                                     perf.snapshot_bytes(resolution, 1))
        yield from ctx.execute(solve_work)                          # RAMSES
        if ctx.nfs is not None:
            yield from ctx.nfs.write(ctx.host.name, f"snapshots-{job_id}",
                                     perf.snapshot_bytes(resolution))
        yield from ctx.execute(solve_work * perf.postproc_fraction)  # GALICS

    def _charge_phases_checkpointed(self, ctx: SolveContext,
                                    progress: _JobProgress, resolution: int,
                                    job_id: int) -> Generator[Any, Any, None]:
        """Fault-tolerant variant of :meth:`_charge_phases` for zoom2.

        The RAMSES main phase runs in segments of
        ``checkpoint_interval_work``; after each one a restart dump goes to
        the cluster's NFS volume.  A later attempt resumes from the dump —
        but only when it runs on a host mounting the *same* volume (§4.1:
        the working directory does not cross clusters); otherwise it starts
        from scratch and the checkpointed work is lost with the cluster.
        """
        perf = self.config.perf
        stats = self.fault_stats
        denom = 1.0 + perf.ic_fraction + perf.postproc_fraction
        solve_work = progress.total_work / denom
        ic_work = solve_work * perf.ic_fraction
        interval = self.config.checkpoint_interval_work
        assert interval is not None
        n_segments = max(1, math.ceil(solve_work / interval))
        seg_work = solve_work / n_segments
        ckpt_bytes = perf.snapshot_bytes(resolution, 1)

        resumable = (progress.segments_done > 0 and ctx.nfs is not None
                     and progress.volume is ctx.nfs
                     and ctx.nfs.exists(progress.path))
        if (not resumable and progress.attempts > 1
                and progress.segments_done > 0
                and self.config.checkpoint_catalog and ctx.nfs is not None):
            # The dump lives on another cluster's volume: locate it through
            # the replica catalog and stage it onto the local volume, lifting
            # the §4.1 same-cluster restriction on resume.
            pulled = yield from ctx.sed.data_manager.pull_checkpoint(
                progress.path)
            if pulled:
                progress.volume = ctx.nfs
                resumable = True
        if progress.attempts > 1:
            # The previous attempt died: everything it ran past the last
            # durable checkpoint is gone.
            stats.work_lost += progress.unsaved
            progress.unsaved = 0.0
            durable = ic_work + progress.segments_done * seg_work
            if resumable:
                stats.restarts_from_checkpoint += 1
                stats.work_recovered += durable
            else:
                stats.restarts_from_scratch += 1
                if progress.segments_done > 0:
                    # Checkpoints exist but on a volume this host does not
                    # mount: unreachable, so that work is lost too.
                    stats.work_lost += durable
                progress.segments_done = 0
                progress.volume = None

        if resumable:
            # Load the restart dump instead of regenerating ICs.
            yield from ctx.nfs.read(ctx.host.name, progress.path)
        else:
            yield from ctx.execute(ic_work)                         # GRAFIC
            progress.unsaved += ic_work
            if ctx.nfs is not None:
                yield from ctx.nfs.write(ctx.host.name, f"ic-{job_id}",
                                         ckpt_bytes)

        for _seg in range(progress.segments_done, n_segments):      # RAMSES
            yield from ctx.execute(seg_work)
            progress.unsaved += seg_work
            if ctx.nfs is not None:
                yield from ctx.nfs.write(ctx.host.name, progress.path,
                                         ckpt_bytes)
                progress.volume = ctx.nfs
                progress.segments_done = _seg + 1
                progress.unsaved = 0.0
                stats.checkpoints_written += 1
                if self.config.checkpoint_catalog:
                    ctx.sed.data_manager.register_checkpoint(
                        progress.path, ckpt_bytes, ctx.nfs)

        if ctx.nfs is not None:
            yield from ctx.nfs.write(ctx.host.name, f"snapshots-{job_id}",
                                     perf.snapshot_bytes(resolution))
        yield from ctx.execute(solve_work * perf.postproc_fraction)  # GALICS
        progress.unsaved += solve_work * perf.postproc_fraction

    def _job_dir(self, service: str, job_id: int) -> str:
        assert self.config.workdir is not None
        path = os.path.join(self.config.workdir, f"{service}-{job_id:04d}")
        os.makedirs(path, exist_ok=True)
        return path

    # -- ramsesZoom1 ----------------------------------------------------------------------

    def solve_zoom1(self, profile: Profile, ctx: SolveContext
                    ) -> Generator[Any, Any, int]:
        """Low-resolution full-box run -> halo catalog (§3 step one)."""
        resolution = int(profile.parameter(1).get())
        boxsize = int(profile.parameter(2).get())
        work = self.config.perf.part1_work(resolution)
        self._job_counter += 1
        job_id = self._job_counter
        yield from self._charge_phases(ctx, work, resolution, job_id)

        if self.config.mode is ExecutionMode.REAL:
            catalog_path = self._run_real_zoom1(
                resolution, boxsize, job_id,
                self._run_config_from_profile(profile))
            nbytes = os.path.getsize(catalog_path)
            profile.parameter(3).set(FileRef(
                path=os.path.basename(catalog_path), nbytes=nbytes,
                local_path=catalog_path))
        else:
            profile.parameter(3).set(FileRef(
                path="halo_catalog.dat",
                nbytes=self.config.perf.result_tarball_bytes(resolution) // 4))
        profile.parameter(4).set(0)
        return 0

    def _run_real_zoom1(self, resolution: int, boxsize: int, job_id: int,
                        run_cfg: RunConfig) -> str:
        cfg = self.config
        ic = make_single_level_ic(resolution, float(boxsize),
                                  cfg.cosmology, a_start=0.05, seed=cfg.seed)
        result = RamsesRun(ic, run_cfg).run()
        snap = result.final
        catalog = find_halos(snap.particles, snap.aexp)
        job_dir = self._job_dir("zoom1", job_id)
        catalog_path = os.path.join(job_dir, "halo_catalog.dat")
        write_halo_catalog(catalog_path, catalog)
        return catalog_path

    # -- ramsesZoom2 ----------------------------------------------------------------------

    def solve_zoom2(self, profile: Profile, ctx: SolveContext
                    ) -> Generator[Any, Any, int]:
        """One zoom re-simulation (§3 step two; the paper's code example)."""
        resolution = int(profile.parameter(1).get())
        boxsize = int(profile.parameter(2).get())
        cx = int(profile.parameter(3).get())
        cy = int(profile.parameter(4).get())
        cz = int(profile.parameter(5).get())
        n_levels = int(profile.parameter(6).get())
        self._job_counter += 1
        job_id = self._job_counter
        if self.config.checkpoint_interval_work is None:
            # Deterministic per-job work scatter: the job counter is shared
            # across the deployment, so the canonical campaign always consumes
            # the same multiset of draws (indices 2..101) whatever the policy —
            # keeping scheduler ablations workload-identical.
            work = self.config.perf.part2_work(resolution, n_levels, job_id)
            yield from self._charge_phases(ctx, work, resolution, job_id)
        else:
            # Job identity, not attempt identity: a resubmission of the same
            # zoom (same centre/resolution/depth) reuses the first attempt's
            # work draw and may resume from its checkpoint.
            job_key = f"zoom2/{resolution}/{cx}-{cy}-{cz}/{n_levels}"
            progress = self._progress.get(job_key)
            if progress is None:
                work = self.config.perf.part2_work(resolution, n_levels, job_id)
                progress = _JobProgress(key=job_key, total_work=work,
                                        path=f"ckpt/{job_key}")
                self._progress[job_key] = progress
            progress.attempts += 1
            yield from self._charge_phases_checkpointed(
                ctx, progress, resolution, job_id)
            # Completed: retire the record and the restart dump.
            self._progress.pop(job_key, None)
            if progress.volume is not None:
                progress.volume.unlink(progress.path)
            if self.config.checkpoint_catalog:
                ctx.sed.data_manager.unregister_checkpoint(progress.path)

        if self.config.mode is ExecutionMode.REAL:
            tar_path = self._run_real_zoom2(
                resolution, boxsize, cx, cy, cz, n_levels, job_id,
                self._run_config_from_profile(profile))
            profile.parameter(7).set(FileRef(
                path=os.path.basename(tar_path),
                nbytes=os.path.getsize(tar_path), local_path=tar_path))
        else:
            profile.parameter(7).set(FileRef(
                path=f"results-{cx}-{cy}-{cz}.tar.gz",
                nbytes=self.config.perf.result_tarball_bytes(resolution)))
        profile.parameter(8).set(0)
        return 0

    def _run_real_zoom2(self, resolution: int, boxsize: int, cx: int, cy: int,
                        cz: int, n_levels: int, job_id: int,
                        run_cfg: RunConfig) -> str:
        cfg = self.config
        center = (cx / COORD_SCALE, cy / COORD_SCALE, cz / COORD_SCALE)
        ic = make_multi_level_ic(
            n_coarse=resolution, boxsize_mpc_h=float(boxsize),
            cosmology=cfg.cosmology, center=center, n_levels=n_levels,
            region_half_size=cfg.real_zoom_half_size,
            a_start=0.05, seed=cfg.seed)
        result = RamsesRun(ic, run_cfg).run()
        snap = result.final
        catalog = find_halos(snap.particles, snap.aexp, min_particles=8)

        job_dir = self._job_dir("zoom2", job_id)
        catalog_path = os.path.join(job_dir, "halo_catalog.dat")
        write_halo_catalog(catalog_path, catalog)
        from ..ramses.io import SnapshotHeader, write_snapshot
        header = SnapshotHeader(
            ncpu=1, ndim=3, npart=len(snap.particles), aexp=snap.aexp,
            omega_m=cfg.cosmology.omega_m, omega_l=cfg.cosmology.omega_l,
            h0=100.0 * cfg.cosmology.h, boxlen_mpc_h=float(boxsize),
            levelmin=ic.levelmin, levelmax=ic.levelmax)
        write_snapshot(os.path.join(job_dir, "output_00001"), header,
                       snap.particles)
        tar_path = os.path.join(job_dir, "results.tar.gz")
        # No clock or account in the archive: its size prices the simulated
        # transfer, so identical runs must produce identical bytes.
        with gzip.GzipFile(tar_path, "wb", compresslevel=_GZIP_LEVEL,
                           mtime=0) as gz, \
                tarfile.open(fileobj=gz, mode="w") as tar:
            tar.add(catalog_path, arcname="halo_catalog.dat",
                    filter=_without_host_metadata)
            tar.add(os.path.join(job_dir, "output_00001"),
                    arcname="output_00001", filter=_without_host_metadata)
        return tar_path


#: zlib's own default (gzip(1)'s too).  GzipFile's default of 9 took 4x the
#: time on the float64 snapshot payload for an archive 0.013 % smaller.
_GZIP_LEVEL = 6


def _without_host_metadata(info: tarfile.TarInfo) -> tarfile.TarInfo:
    info.mtime = info.uid = info.gid = 0
    info.uname = info.gname = ""
    return info


#: Default box size (Mpc/h) used by REAL-mode runs (the paper's 100).
PAPER_BOX_DEFAULT = 100


def register_ramses_services(deployment: Deployment,
                             config: Optional[RamsesServiceConfig] = None,
                             with_predictor: bool = False) -> RamsesService:
    """Register both services on every SeD of a deployment.

    ``with_predictor=True`` also registers a performance predictor (the
    SeD-side half of a plug-in scheduler): the SeD then advertises its
    predicted solve time in ``EST_TCOMP``, which MCT-style policies consume.
    The paper's deployment had none — that is why its schedule was
    suboptimal.
    """
    config = config or RamsesServiceConfig()
    service = RamsesService(config)
    z1, z2 = zoom1_profile_desc(), zoom2_profile_desc()
    for sed in deployment.seds:
        predictor1 = predictor2 = None
        if with_predictor:
            speed = sed.host.speed
            predictor1 = lambda desc, s=speed: config.perf.part1_work(
                PAPER_RESOLUTION_DEFAULT) / s
            predictor2 = lambda desc, s=speed: (
                config.perf.part1_work(PAPER_RESOLUTION_DEFAULT)
                * config.perf.zoom_overhead_factor / s)
        sed.add_service(z1, service.solve_zoom1, predictor=predictor1)
        sed.add_service(z2, service.solve_zoom2, predictor=predictor2)
    return service


PAPER_RESOLUTION_DEFAULT = 128

"""The survey pipeline DIET services: surveyIC, surveyRun,
lensingConvergence and surveyReduce.

The paper's follow-up ("Cosmological Simulations on a Grid of Computers",
Depardon et al. 2010) runs production surveys on DIET by wrapping each
pipeline step as its own service; the post-processing here is the
LensTools chain — density slabs from a survey box stacked into a Born
convergence map (:mod:`repro.survey.lensing`), then maps combined across
realizations by a pairwise reduction.

Profiles (all IN args first, then OUT result file + OUT error int):

========================  ==========================================================
 service                   arguments
========================  ==========================================================
 ``surveyIC``              (cosmology file, resolution, seed | IC file, err)
 ``surveyRun``             (IC file, resolution, n_planes | slab stack, err)
 ``lensingConvergence``    (slab stack, cosmology file, resolution, n_planes,
                            z_source x 1e6 | κ map, err)
 ``surveyReduce``          (map a, map b, weight a, weight b, resolution | map, err)
========================  ==========================================================

Persistence is chosen by the *client* per campaign data policy
(``ProfileDesc.matches`` ignores it): the desc factories take the result
mode, and :func:`survey_result_modes` maps a policy name to the
(intermediate, final) modes.  Like the RAMSES services each solve runs in
``MODELED`` mode (charge the :class:`~repro.services.perfmodel.SurveyPerfModel`
costs) or ``REAL`` mode (additionally compute genuine slabs/maps with the
numpy lensing kernels), and registration can attach a per-SeD performance
predictor so the service advertises its own ``EST_TCOMP`` through CoRI.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from typing import Any, Generator, Iterable, Optional, Tuple

from ..core.data import BaseType, FileRef, PersistenceMode, file_desc, scalar_desc
from ..core.profile import Profile, ProfileDesc
from ..core.sed import SeD, SolveContext
from .perfmodel import SurveyPerfModel
from .ramses_service import ExecutionMode

# The survey math (repro.survey.lensing / .grid) is imported lazily inside
# the REAL-mode branches: repro.survey.pipeline imports this module for the
# profile descs, so a module-level import here would cycle.

__all__ = [
    "Z_SOURCE_SCALE",
    "LensingServiceConfig",
    "LensingService",
    "survey_ic_desc",
    "survey_run_desc",
    "lensing_convergence_desc",
    "survey_reduce_desc",
    "survey_result_modes",
    "register_survey_services",
]

#: Fixed-point scale for the DIET_INT source redshift (z x 1e6).
Z_SOURCE_SCALE = 1_000_000


def _error_mode(result_mode: PersistenceMode) -> PersistenceMode:
    """Persistence of the error-control integer.

    Memoization requires *every* OUT argument to keep a server copy, so
    when the results persist the tiny error int rides along as
    PERSISTENT_RETURN; volatile campaigns keep it volatile.
    """
    if result_mode.keeps_server_copy:
        return PersistenceMode.PERSISTENT_RETURN
    return PersistenceMode.VOLATILE


def survey_ic_desc(result_mode: PersistenceMode = PersistenceMode.VOLATILE
                   ) -> ProfileDesc:
    """surveyIC: (cosmology, resolution, seed) -> (IC file, error)."""
    desc = ProfileDesc("surveyIC", 2, 2, 4)
    desc.set_arg(0, file_desc())                       # cosmology parameters
    desc.set_arg(1, scalar_desc(BaseType.INT))         # resolution
    desc.set_arg(2, scalar_desc(BaseType.INT))         # realization seed
    desc.set_arg(3, file_desc(result_mode))            # displacement field
    desc.set_arg(4, scalar_desc(BaseType.INT, _error_mode(result_mode)))
    return desc


def survey_run_desc(result_mode: PersistenceMode = PersistenceMode.VOLATILE
                    ) -> ProfileDesc:
    """surveyRun: (IC file, resolution, n_planes) -> (slab stack, error)."""
    desc = ProfileDesc("surveyRun", 2, 2, 4)
    desc.set_arg(0, file_desc())                       # IC displacement field
    desc.set_arg(1, scalar_desc(BaseType.INT))         # resolution
    desc.set_arg(2, scalar_desc(BaseType.INT))         # number of lens planes
    desc.set_arg(3, file_desc(result_mode))            # projected density slabs
    desc.set_arg(4, scalar_desc(BaseType.INT, _error_mode(result_mode)))
    return desc


def lensing_convergence_desc(result_mode: PersistenceMode = PersistenceMode.VOLATILE
                             ) -> ProfileDesc:
    """lensingConvergence: (slabs, cosmology, resolution, n_planes,
    z_source x 1e6) -> (κ map, error)."""
    desc = ProfileDesc("lensingConvergence", 4, 4, 6)
    desc.set_arg(0, file_desc())                       # slab stack
    desc.set_arg(1, file_desc())                       # cosmology parameters
    desc.set_arg(2, scalar_desc(BaseType.INT))         # resolution
    desc.set_arg(3, scalar_desc(BaseType.INT))         # number of lens planes
    desc.set_arg(4, scalar_desc(BaseType.INT))         # z_source fixed point
    desc.set_arg(5, file_desc(result_mode))            # convergence map
    desc.set_arg(6, scalar_desc(BaseType.INT, _error_mode(result_mode)))
    return desc


def survey_reduce_desc(result_mode: PersistenceMode = PersistenceMode.VOLATILE
                       ) -> ProfileDesc:
    """surveyReduce: (map a, map b, weight a, weight b, resolution) ->
    (stacked map, error)."""
    desc = ProfileDesc("surveyReduce", 4, 4, 6)
    desc.set_arg(0, file_desc())                       # map a
    desc.set_arg(1, file_desc())                       # map b
    desc.set_arg(2, scalar_desc(BaseType.INT))         # weight a (#maps folded)
    desc.set_arg(3, scalar_desc(BaseType.INT))         # weight b
    desc.set_arg(4, scalar_desc(BaseType.INT))         # resolution
    desc.set_arg(5, file_desc(result_mode))            # stacked map
    desc.set_arg(6, scalar_desc(BaseType.INT, _error_mode(result_mode)))
    return desc


def survey_result_modes(data_policy: str
                        ) -> Tuple[PersistenceMode, PersistenceMode]:
    """(intermediate, final) result persistence for a campaign policy.

    Volatile ships every product through the client; the persisting
    policies keep intermediates as server-side PERSISTENT handles (the
    DAG passes handles between stages) and return the final map while
    also keeping a copy (PERSISTENT_RETURN — required for memoization).
    """
    from ..data import policy_keeps_results

    if policy_keeps_results(data_policy):
        return PersistenceMode.PERSISTENT, PersistenceMode.PERSISTENT_RETURN
    return PersistenceMode.VOLATILE, PersistenceMode.VOLATILE


def _stamp(*parts: Any) -> str:
    """Deterministic short tag tying a product file to its inputs.

    The memo normalizes a FileRef to (path, nbytes, content), so product
    paths must be unique per logical computation or distinct requests
    downstream would alias in the memo key space.
    """
    raw = "|".join(str(p) for p in parts).encode()
    return hashlib.sha256(raw).hexdigest()[:12]


@dataclass
class LensingServiceConfig:
    """Configuration shared by every SeD's survey services."""

    mode: ExecutionMode = ExecutionMode.MODELED
    perf: SurveyPerfModel = field(default_factory=SurveyPerfModel)
    #: REAL mode: directory for genuine .npy products (one subdir per job).
    workdir: Optional[str] = None
    #: Parameters the performance predictor quotes EST_TCOMP at.
    predict_resolution: int = 64
    predict_n_planes: int = 8
    seed: int = 2007

    def __post_init__(self):
        if self.mode is ExecutionMode.REAL and not self.workdir:
            raise ValueError("REAL mode needs a workdir for output files")


class LensingService:
    """Solve functions for the survey pipeline stages."""

    def __init__(self, config: Optional[LensingServiceConfig] = None):
        self.config = config or LensingServiceConfig()
        self._job_counter = 0

    # -- shared plumbing ---------------------------------------------------------------

    def _next_job(self) -> int:
        self._job_counter += 1
        return self._job_counter

    def _charge(self, ctx: SolveContext, work: float, product_bytes: int,
                tag: str) -> Generator[Any, Any, None]:
        """CPU work then the NFS staging write of the stage's product."""
        yield from ctx.execute(work)
        if ctx.nfs is not None:
            yield from ctx.nfs.write(ctx.host.name, tag, product_bytes)

    def _job_dir(self, service: str, job_id: int) -> str:
        assert self.config.workdir is not None
        path = os.path.join(self.config.workdir, f"{service}-{job_id:04d}")
        os.makedirs(path, exist_ok=True)
        return path

    @property
    def _real(self) -> bool:
        return self.config.mode is ExecutionMode.REAL

    @staticmethod
    def _file_arg(profile: Profile, index: int, what: str) -> FileRef:
        value = profile.parameter(index).get()
        if not isinstance(value, FileRef):
            raise ValueError(f"{what} argument must resolve to a file, "
                             f"got {type(value).__name__}")
        return value

    def _save_array(self, service: str, job_id: int, name: str,
                    array: Any) -> str:
        import numpy as np

        path = os.path.join(self._job_dir(service, job_id), name)
        np.save(path, array)
        return path + ".npy" if not path.endswith(".npy") else path

    # -- surveyIC ----------------------------------------------------------------------

    def solve_ic(self, profile: Profile, ctx: SolveContext
                 ) -> Generator[Any, Any, int]:
        """Initial conditions for one cosmology point."""
        cosmo_ref = self._file_arg(profile, 0, "cosmology")
        resolution = int(profile.parameter(1).get())
        seed = int(profile.parameter(2).get())
        perf = self.config.perf
        job_id = self._next_job()
        nbytes = perf.ic_bytes(resolution)
        stamp = _stamp("ic", cosmo_ref.content or cosmo_ref.path,
                       resolution, seed)
        yield from self._charge(ctx, perf.ic_work(resolution), nbytes,
                                f"survey-ic-{job_id}")

        content = None
        if self._real:
            from ..survey.grid import parse_cosmology_text

            cosmo = parse_cosmology_text(cosmo_ref.content or "")
            realization = int.from_bytes(hashlib.sha256(
                f"{self.config.seed}:{stamp}".encode()).digest()[:8], "big")
            content = (f"realization = {realization}\n"
                       f"resolution = {resolution}\n"
                       f"sigma8 = {cosmo.sigma8!r}\n"
                       f"ns = {cosmo.ns!r}\n")
        profile.parameter(3).set(FileRef(path=f"ic-{stamp}.dat",
                                         nbytes=nbytes, content=content))
        profile.parameter(4).set(0)
        return 0

    # -- surveyRun ---------------------------------------------------------------------

    def solve_run(self, profile: Profile, ctx: SolveContext
                  ) -> Generator[Any, Any, int]:
        """Full-box survey run -> projected density slab stack."""
        ic_ref = self._file_arg(profile, 0, "IC")
        resolution = int(profile.parameter(1).get())
        n_planes = int(profile.parameter(2).get())
        perf = self.config.perf
        job_id = self._next_job()
        nbytes = perf.slab_bytes(resolution, n_planes)
        stamp = _stamp("run", ic_ref.path, resolution, n_planes)
        yield from self._charge(ctx, perf.run_work(resolution), nbytes,
                                f"survey-run-{job_id}")

        local_path = None
        if self._real:
            from ..survey.lensing import density_slabs

            params = {}
            for line in (ic_ref.content or "").splitlines():
                key, sep, raw = line.partition("=")
                if sep:
                    params[key.strip()] = raw.strip()
            slabs = density_slabs(
                resolution, n_planes,
                seed=int(params["realization"]),
                sigma8=float(params.get("sigma8", "0.8")),
                ns=float(params.get("ns", "0.96")))
            local_path = self._save_array("run", job_id, "slabs", slabs)
        profile.parameter(3).set(FileRef(path=f"slabs-{stamp}.npy",
                                         nbytes=nbytes,
                                         local_path=local_path))
        profile.parameter(4).set(0)
        return 0

    # -- lensingConvergence ------------------------------------------------------------

    def solve_lensing(self, profile: Profile, ctx: SolveContext
                      ) -> Generator[Any, Any, int]:
        """Born-stack the slab stack into one convergence map."""
        slab_ref = self._file_arg(profile, 0, "slab stack")
        cosmo_ref = self._file_arg(profile, 1, "cosmology")
        resolution = int(profile.parameter(2).get())
        n_planes = int(profile.parameter(3).get())
        z_source = int(profile.parameter(4).get()) / Z_SOURCE_SCALE
        perf = self.config.perf
        job_id = self._next_job()
        nbytes = perf.map_bytes(resolution)
        stamp = _stamp("lens", slab_ref.path,
                       cosmo_ref.content or cosmo_ref.path,
                       profile.parameter(4).get())
        yield from self._charge(ctx, perf.lensing_work(resolution, n_planes),
                                nbytes, f"survey-lens-{job_id}")

        local_path = None
        if self._real:
            import numpy as np

            from ..survey.grid import parse_cosmology_text
            from ..survey.lensing import born_convergence

            if not slab_ref.local_path:
                raise ValueError("REAL lensing needs slabs with a local_path")
            slabs = np.load(slab_ref.local_path)
            cosmo = parse_cosmology_text(cosmo_ref.content or "")
            kappa = born_convergence(slabs, z_source, cosmo.h0,
                                     cosmo.omega_m, cosmo.w0)
            local_path = self._save_array("lens", job_id, "kappa", kappa)
        profile.parameter(5).set(FileRef(path=f"kappa-{stamp}.npy",
                                         nbytes=nbytes,
                                         local_path=local_path))
        profile.parameter(6).set(0)
        return 0

    # -- surveyReduce ------------------------------------------------------------------

    def solve_reduce(self, profile: Profile, ctx: SolveContext
                     ) -> Generator[Any, Any, int]:
        """Weighted pairwise stack of two convergence maps (fan-in)."""
        ref_a = self._file_arg(profile, 0, "map a")
        ref_b = self._file_arg(profile, 1, "map b")
        weight_a = int(profile.parameter(2).get())
        weight_b = int(profile.parameter(3).get())
        resolution = int(profile.parameter(4).get())
        perf = self.config.perf
        job_id = self._next_job()
        nbytes = perf.map_bytes(resolution)
        stamp = _stamp("reduce", ref_a.path, ref_b.path, weight_a, weight_b)
        yield from self._charge(ctx, perf.reduce_work(resolution), nbytes,
                                f"survey-reduce-{job_id}")

        local_path = None
        if self._real:
            import numpy as np

            from ..survey.lensing import stack_maps

            if not (ref_a.local_path and ref_b.local_path):
                raise ValueError("REAL reduce needs maps with a local_path")
            stacked = stack_maps(
                [np.load(ref_a.local_path), np.load(ref_b.local_path)],
                [weight_a, weight_b])
            local_path = self._save_array("reduce", job_id, "kappa", stacked)
        profile.parameter(5).set(FileRef(path=f"stack-{stamp}.npy",
                                         nbytes=nbytes,
                                         local_path=local_path))
        profile.parameter(6).set(0)
        return 0


def register_survey_services(seds: Iterable[SeD],
                             config: Optional[LensingServiceConfig] = None,
                             with_predictor: bool = False) -> LensingService:
    """Register the four survey services on the given SeDs.

    Takes the SeD iterable directly so it works for both a
    ``Deployment`` and a ``Federation`` (pass ``deployment.seds`` /
    ``federation.seds``).  With ``with_predictor=True`` each service
    also registers a per-SeD performance predictor, so CoRI stamps
    ``EST_TCOMP`` into the estimates MCT-style policies consume.
    """
    config = config or LensingServiceConfig()
    service = LensingService(config)
    perf = config.perf
    res, planes = config.predict_resolution, config.predict_n_planes
    for sed in seds:
        p_ic = p_run = p_lens = p_reduce = None
        if with_predictor:
            speed = sed.host.speed
            p_ic = lambda desc, s=speed: perf.ic_work(res) / s
            p_run = lambda desc, s=speed: perf.run_work(res) / s
            p_lens = lambda desc, s=speed: perf.lensing_work(res, planes) / s
            p_reduce = lambda desc, s=speed: perf.reduce_work(res) / s
        sed.add_service(survey_ic_desc(), service.solve_ic, predictor=p_ic)
        sed.add_service(survey_run_desc(), service.solve_run, predictor=p_run)
        sed.add_service(lensing_convergence_desc(), service.solve_lensing,
                        predictor=p_lens)
        sed.add_service(survey_reduce_desc(), service.solve_reduce,
                        predictor=p_reduce)
    return service

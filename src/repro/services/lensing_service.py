"""The survey pipeline DIET services: surveyIC, surveyRun,
lensingConvergence and surveyReduce.

The paper's follow-up ("Cosmological Simulations on a Grid of Computers",
Depardon et al. 2010) runs production surveys on DIET by wrapping each
pipeline step as its own service; the chain here has the LensTools
shape — density slabs from a survey box stacked into a Born
convergence map, then maps combined across realizations by a pairwise
reduction.  No stage computes a map: each solve charges the
:class:`~repro.services.perfmodel.SurveyPerfModel` work and NFS staging
of its stage and returns a product file stamped from its inputs.

Each stage is declared once, as a :class:`SurveyStage` in
:data:`SURVEY_STAGES`: its IN arguments, its product and its cost.  The
description (all IN args first, then OUT product file + OUT error int),
the one solve function (:meth:`LensingService.solver`), the predictor
and the client's profile builder (``repro.survey.pipeline``) all derive
from that record:

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
(``ProfileDesc.matches`` ignores it): :meth:`SurveyStage.desc` builds one
shared description per result mode (nothing mutates one), and
:func:`survey_result_modes` maps a policy name to the (intermediate,
final) modes.  Registration can attach a per-SeD performance predictor
so the service advertises its own ``EST_TCOMP`` through CoRI.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Iterable, Optional, Tuple

from ..core.data import BaseType, FileRef, PersistenceMode, file_desc, scalar_desc
from ..core.profile import Profile, ProfileDesc
from ..core.sed import SeD, SolveContext
from .perfmodel import SurveyPerfModel

__all__ = [
    "Z_SOURCE_SCALE",
    "SurveyStage",
    "SURVEY_STAGES",
    "SURVEY_IC",
    "SURVEY_RUN",
    "LENSING_CONVERGENCE",
    "SURVEY_REDUCE",
    "LensingServiceConfig",
    "LensingService",
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


@dataclass(frozen=True)
class SurveyStage:
    """One survey service: its layout, product and cost, declared once."""

    service: str
    #: (name, "file" | "int") per IN argument, in argument order; a file
    #: argument's name is what its validation error calls it.
    ins: Tuple[Tuple[str, str], ...]
    #: Product file ``{product}-{stamp}{suffix}``; ``tag`` names the NFS
    #: staging write ``survey-{tag}-{job}`` and leads the stamp.
    product: str
    suffix: str
    tag: str
    #: (perf, *IN values) -> (work, product bytes, stamp parts).
    cost: Callable[..., Tuple[float, int, Tuple[Any, ...]]]
    #: (perf, resolution, n_planes) -> the work the predictor quotes.
    quote: Callable[[SurveyPerfModel, int, int], float]

    @functools.cache
    def desc(self, result_mode: PersistenceMode) -> ProfileDesc:
        """The INs, then the product file and the error int as OUTs."""
        n_ins = len(self.ins)
        desc = ProfileDesc(self.service, n_ins - 1, n_ins - 1, n_ins + 1)
        for index, (_, kind) in enumerate(self.ins):
            desc.set_arg(
                index, file_desc() if kind == "file" else scalar_desc(BaseType.INT)
            )
        desc.set_arg(n_ins, file_desc(result_mode))
        desc.set_arg(n_ins + 1, scalar_desc(BaseType.INT, _error_mode(result_mode)))
        return desc


SURVEY_IC = SurveyStage(
    "surveyIC",
    (("cosmology", "file"), ("resolution", "int"), ("seed", "int")),
    product="ic", suffix=".dat", tag="ic",
    cost=lambda perf, cosmo, res, seed: (
        perf.ic_work(res), perf.ic_bytes(res),
        (cosmo.content or cosmo.path, res, seed)),
    quote=lambda perf, res, planes: perf.ic_work(res),
)
SURVEY_RUN = SurveyStage(
    "surveyRun",
    (("IC", "file"), ("resolution", "int"), ("n_planes", "int")),
    product="slabs", suffix=".npy", tag="run",
    cost=lambda perf, ic, res, planes: (
        perf.run_work(res), perf.slab_bytes(res, planes), (ic.path, res, planes)),
    quote=lambda perf, res, planes: perf.run_work(res),
)
LENSING_CONVERGENCE = SurveyStage(
    "lensingConvergence",
    (("slab stack", "file"), ("cosmology", "file"), ("resolution", "int"),
     ("n_planes", "int"), ("z_source", "int")),
    product="kappa", suffix=".npy", tag="lens",
    cost=lambda perf, slabs, cosmo, res, planes, z_source: (
        perf.lensing_work(res, planes), perf.map_bytes(res),
        (slabs.path, cosmo.content or cosmo.path, z_source)),
    quote=lambda perf, res, planes: perf.lensing_work(res, planes),
)
SURVEY_REDUCE = SurveyStage(
    "surveyReduce",
    (("map a", "file"), ("map b", "file"), ("weight a", "int"),
     ("weight b", "int"), ("resolution", "int")),
    product="stack", suffix=".npy", tag="reduce",
    cost=lambda perf, map_a, map_b, weight_a, weight_b, res: (
        perf.reduce_work(res), perf.map_bytes(res),
        (map_a.path, map_b.path, weight_a, weight_b)),
    quote=lambda perf, res, planes: perf.reduce_work(res),
)
#: Every survey stage, in pipeline order.
SURVEY_STAGES = (SURVEY_IC, SURVEY_RUN, LENSING_CONVERGENCE, SURVEY_REDUCE)


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

    perf: SurveyPerfModel = field(default_factory=SurveyPerfModel)
    #: Parameters the performance predictor quotes EST_TCOMP at.
    predict_resolution: int = 64
    predict_n_planes: int = 8


class LensingService:
    """Solve functions for the survey pipeline stages; one job counter
    numbers every stage's NFS staging writes."""

    def __init__(self, config: Optional[LensingServiceConfig] = None):
        self.config = config or LensingServiceConfig()
        self._job_counter = 0

    def solver(self, stage: SurveyStage
               ) -> Callable[[Profile, SolveContext], Generator[Any, Any, int]]:
        """The solve function of ``stage``: CPU work, then the NFS staging
        write of its product, then the product file and status 0."""
        n_ins = len(stage.ins)

        def solve(profile: Profile, ctx: SolveContext) -> Generator[Any, Any, int]:
            values = []
            for index, (name, kind) in enumerate(stage.ins):
                value = profile.parameter(index).get()
                if kind == "int":
                    value = int(value)
                elif not isinstance(value, FileRef):
                    raise ValueError(f"{name} argument must resolve to a file, "
                                     f"got {type(value).__name__}")
                values.append(value)
            self._job_counter += 1
            job_id = self._job_counter
            work, nbytes, parts = stage.cost(self.config.perf, *values)
            yield from ctx.execute(work)
            if ctx.nfs is not None:
                yield from ctx.nfs.write(ctx.host.name,
                                         f"survey-{stage.tag}-{job_id}", nbytes)
            path = f"{stage.product}-{_stamp(stage.tag, *parts)}{stage.suffix}"
            profile.parameter(n_ins).set(FileRef(path=path, nbytes=nbytes))
            profile.parameter(n_ins + 1).set(0)
            return 0

        return solve


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
    solvers = [(stage, service.solver(stage)) for stage in SURVEY_STAGES]
    for sed in seds:
        for stage, solve in solvers:
            predictor = None
            if with_predictor:
                predictor = (lambda desc, s=sed.host.speed, q=stage.quote:
                             q(perf, res, planes) / s)
            sed.add_service(stage.desc(PersistenceMode.VOLATILE), solve,
                            predictor=predictor)
    return service

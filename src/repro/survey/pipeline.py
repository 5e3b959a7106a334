"""The survey pipeline as a :class:`~repro.survey.dag.SurveyDAG`.

Per cosmology point an IC→run→lensing chain, then a pairwise reduction
tree folding every point's convergence map into one survey-mean map (the
fan-in stage; with four or more points the tree contains diamonds, which
is exactly the dependency shape the executor's tests pin).

Inter-node data follows the campaign data policy
(:func:`~repro.services.lensing_service.survey_result_modes`): the
persisting policies pass PERSISTENT ``DataHandle``\\ s between stages —
bytes stay on the SeDs and move peer-to-peer through ``repro.data`` —
while the volatile policy round-trips every product through the client.
Every node's profile is laid out by its stage's
:class:`~repro.services.lensing_service.SurveyStage` record; profiles
are built fresh per attempt from the dependency results, so retries
after an upstream refresh automatically pick up new handles.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Union

from ..core.data import FileRef, PersistenceMode
from ..core.profile import Profile
from ..services.lensing_service import (
    LENSING_CONVERGENCE,
    SURVEY_IC,
    SURVEY_REDUCE,
    SURVEY_RUN,
    Z_SOURCE_SCALE,
    SurveyStage,
    survey_result_modes,
)
from .dag import NodeResult, SurveyDAG
from .grid import CosmologyPoint, ParameterGrid

__all__ = ["build_survey_dag"]

Results = Mapping[str, NodeResult]


def _builder(stage: SurveyStage, mode: PersistenceMode, *ins):
    """A profile builder for ``stage`` whose results persist as ``mode``.

    Each IN is a literal int, a :class:`CosmologyPoint` (sent as its
    cosmology file) or a node id (sent as that dependency's product).
    """
    desc = stage.desc(mode)

    def build(results: Results) -> Profile:
        profile = desc.instantiate()
        for index, value in enumerate(ins):
            if isinstance(value, CosmologyPoint):
                value = FileRef.from_text(f"{value.label}.ini", value.cosmology_text())
            elif isinstance(value, str):
                value = results[value].product
            else:
                value = int(value)
            profile.parameter(index).set(value)
        profile.parameter(len(ins)).set(None)
        profile.parameter(len(ins) + 1).set(None)
        return profile

    return build


def build_survey_dag(
    points: Union[ParameterGrid, Iterable[CosmologyPoint]],
    resolution: int = 64,
    n_planes: int = 8,
    z_source: float = 1.0,
    data_policy: str = "persistent",
    realization_seed: int = 1,
    name: str = "survey",
    prefix: str = "",
    with_reduce: bool = True,
    dag: Optional[SurveyDAG] = None,
) -> SurveyDAG:
    """Build the IC→run→lensing(+reduce) DAG over ``points``.

    ``realization_seed`` is part of every IC request, so two clients
    building DAGs over the same grid with the same seed submit
    byte-identical requests — the duplicated-cosmology leg that should
    memo-hit.  Pass ``prefix`` to namespace node ids when several DAGs
    share bookkeeping, and ``dag`` to extend an existing one.
    """
    point_list = list(points)
    if not point_list:
        raise ValueError("survey needs at least one cosmology point")
    dag = dag if dag is not None else SurveyDAG(name=name)
    inter_mode, final_mode = survey_result_modes(data_policy)
    z_scaled = int(round(z_source * Z_SOURCE_SCALE))

    # (node id producing a map, number of maps folded into it)
    maps = []
    for index, point in enumerate(point_list):
        pid = f"{prefix}p{index:03d}"
        map_mode = (
            final_mode if (len(point_list) == 1 or not with_reduce) else inter_mode
        )
        ic_id = dag.add_node(
            f"{pid}:ic",
            SURVEY_IC.service,
            _builder(SURVEY_IC, inter_mode, point, resolution, realization_seed),
            stage="ic",
            point=point.label,
        )
        run_id = dag.add_node(
            f"{pid}:run",
            SURVEY_RUN.service,
            _builder(SURVEY_RUN, inter_mode, ic_id, resolution, n_planes),
            deps=(ic_id,),
            stage="run",
            point=point.label,
        )
        lens_id = dag.add_node(
            f"{pid}:lens",
            LENSING_CONVERGENCE.service,
            _builder(
                LENSING_CONVERGENCE,
                map_mode,
                run_id,
                point,
                resolution,
                n_planes,
                z_scaled,
            ),
            deps=(run_id,),
            stage="lensing",
            point=point.label,
        )
        maps.append((lens_id, 1))

    if with_reduce:
        level = 0
        while len(maps) > 1:
            folded = []
            for pair in range(0, len(maps) - 1, 2):
                (a_id, wa), (b_id, wb) = maps[pair], maps[pair + 1]
                mode = final_mode if len(maps) <= 2 else inter_mode
                rid = dag.add_node(
                    f"{prefix}reduce-L{level}-{pair // 2}",
                    SURVEY_REDUCE.service,
                    _builder(SURVEY_REDUCE, mode, a_id, b_id, wa, wb, resolution),
                    deps=(a_id, b_id),
                    stage="reduce",
                )
                folded.append((rid, wa + wb))
            if len(maps) % 2:
                folded.append(maps[-1])
            maps = folded
            level += 1
    return dag

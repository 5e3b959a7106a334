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
Profiles are built fresh per attempt from the dependency results, so
retries after an upstream refresh automatically pick up new handles.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Union

from ..core.data import FileRef, PersistenceMode
from ..core.profile import Profile
from ..services.lensing_service import (
    Z_SOURCE_SCALE,
    lensing_convergence_desc,
    survey_ic_desc,
    survey_reduce_desc,
    survey_run_desc,
    survey_result_modes,
)
from .dag import NodeResult, SurveyDAG
from .grid import CosmologyPoint, ParameterGrid

__all__ = ["build_survey_dag"]

Results = Mapping[str, NodeResult]


def _cosmology_ref(point: CosmologyPoint) -> FileRef:
    return FileRef.from_text(f"{point.label}.ini", point.cosmology_text())


def _ic_builder(
    point: CosmologyPoint, resolution: int, seed: int, mode: PersistenceMode
):
    def build(results: Results) -> Profile:
        profile = survey_ic_desc(mode).instantiate()
        profile.parameter(0).set(_cosmology_ref(point))
        profile.parameter(1).set(int(resolution))
        profile.parameter(2).set(int(seed))
        profile.parameter(3).set(None)
        profile.parameter(4).set(None)
        return profile

    return build


def _run_builder(ic_id: str, resolution: int, n_planes: int, mode: PersistenceMode):
    def build(results: Results) -> Profile:
        profile = survey_run_desc(mode).instantiate()
        profile.parameter(0).set(results[ic_id].output(3))
        profile.parameter(1).set(int(resolution))
        profile.parameter(2).set(int(n_planes))
        profile.parameter(3).set(None)
        profile.parameter(4).set(None)
        return profile

    return build


def _lensing_builder(
    run_id: str,
    point: CosmologyPoint,
    resolution: int,
    n_planes: int,
    z_source: float,
    mode: PersistenceMode,
):
    def build(results: Results) -> Profile:
        profile = lensing_convergence_desc(mode).instantiate()
        profile.parameter(0).set(results[run_id].output(3))
        profile.parameter(1).set(_cosmology_ref(point))
        profile.parameter(2).set(int(resolution))
        profile.parameter(3).set(int(n_planes))
        profile.parameter(4).set(int(round(z_source * Z_SOURCE_SCALE)))
        profile.parameter(5).set(None)
        profile.parameter(6).set(None)
        return profile

    return build


def _reduce_builder(
    a_id: str,
    b_id: str,
    weight_a: int,
    weight_b: int,
    resolution: int,
    mode: PersistenceMode,
):
    def build(results: Results) -> Profile:
        profile = survey_reduce_desc(mode).instantiate()
        profile.parameter(0).set(results[a_id].output(5))
        profile.parameter(1).set(results[b_id].output(5))
        profile.parameter(2).set(int(weight_a))
        profile.parameter(3).set(int(weight_b))
        profile.parameter(4).set(int(resolution))
        profile.parameter(5).set(None)
        profile.parameter(6).set(None)
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

    # (node id producing a map at arg 5, number of maps folded into it)
    maps = []
    for index, point in enumerate(point_list):
        pid = f"{prefix}p{index:03d}"
        map_mode = (
            final_mode if (len(point_list) == 1 or not with_reduce) else inter_mode
        )
        ic_id = dag.add_node(
            f"{pid}:ic",
            "surveyIC",
            _ic_builder(point, resolution, realization_seed, inter_mode),
            stage="ic",
            point=point.label,
        )
        run_id = dag.add_node(
            f"{pid}:run",
            "surveyRun",
            _run_builder(ic_id, resolution, n_planes, inter_mode),
            deps=(ic_id,),
            stage="run",
            point=point.label,
        )
        lens_id = dag.add_node(
            f"{pid}:lens",
            "lensingConvergence",
            _lensing_builder(run_id, point, resolution, n_planes, z_source, map_mode),
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
                    "surveyReduce",
                    _reduce_builder(a_id, b_id, wa, wb, resolution, mode),
                    deps=(a_id, b_id),
                    stage="reduce",
                )
                folded.append((rid, wa + wb))
            if len(maps) % 2:
                folded.append(maps[-1])
            maps = folded
            level += 1
    return dag

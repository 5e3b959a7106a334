"""Parameter-survey campaigns: grids of cosmologies run as DAGs of DIET
requests (ROADMAP item 4, the LensTools pipeline shape).

* :mod:`~repro.survey.grid` — :class:`~repro.survey.grid.CosmologyPoint`
  and :class:`~repro.survey.grid.ParameterGrid` (cartesian + explicit
  construction, stable per-point digests over ``canonical_pickle``);
* :mod:`~repro.survey.dag` — :class:`~repro.survey.dag.SurveyDAG` +
  :class:`~repro.survey.dag.DagExecutor`: a client-side executor that
  submits ready nodes through a :class:`~repro.core.client.DietClient`
  with bounded in-flight width, dead-letter retry, and dependency-aware
  upstream refresh when a persistent input died with its SeD;
* :mod:`~repro.survey.pipeline` — the IC→run→lensing chain per cosmology
  point plus the pairwise map-reduction fan-in; each node's profile is
  laid out by its stage's
  :class:`~repro.services.lensing_service.SurveyStage` record and fed its
  dependencies' :attr:`~repro.survey.dag.NodeResult.product`, passed as
  ``PERSISTENT`` handles under the campaign data policies (every stage
  is priced by its record's cost function and computes no map);
* :mod:`~repro.survey.batch` — the LensTools-style home/storage tree
  (small bookkeeping files to "home", large products to
  catalog-registered storage).
"""

from __future__ import annotations

from .batch import ProductRecord, SurveyBatch
from .dag import (
    DagError,
    DagExecutor,
    DagNode,
    DagNodeFailed,
    DagStats,
    NodeResult,
    SurveyDAG,
)
from .grid import PARAMETER_NAMES, CosmologyPoint, ParameterGrid
from .pipeline import build_survey_dag

__all__ = [
    "PARAMETER_NAMES",
    "CosmologyPoint",
    "DagError",
    "DagExecutor",
    "DagNode",
    "DagNodeFailed",
    "DagStats",
    "NodeResult",
    "ParameterGrid",
    "ProductRecord",
    "SurveyBatch",
    "SurveyDAG",
    "build_survey_dag",
]

"""A finished run leaves no handler in flight and no deadline armed.

After a seed-2007 campaign, a quick E13 point (the e2e ``load_pull``
workload at its quick size) and a quick E14 arm (the e2e ``survey_dag``
workload at its quick size, the one that joins with ``AnyOf`` and DAG-wide
``AllOf``s), every bound endpoint's ``_inflight`` is empty, and every
``_DeadlineQueue`` of the fabric has nothing pending and no timer on the
heap.  The handler process pops its own ``_inflight`` entry, on the
compiled leg in ``_simcore``; an interrupted caller that left its attempt in
a queue would keep that queue armed.  CI runs this on both legs.
"""

import pytest

from repro.experiments import load_federation, survey_campaign
from repro.services import CampaignConfig, run_campaign


@pytest.fixture
def federations(monkeypatch):
    """Every federation an experiment builds, kept for inspection."""
    kept = []

    def keeper(module):
        build = module.build_federation

        def build_and_keep(*args, **kwargs):
            kept.append(build(*args, **kwargs))
            return kept[-1]

        monkeypatch.setattr(module, "build_federation", build_and_keep)
    return kept, keeper


def assert_quiescent(fabric):
    busy = {name: list(ep._inflight) for name, ep in fabric._endpoints.items()
            if ep._inflight}
    assert busy == {}
    assert fabric._deadline_queues, "no RPC of the run had a deadline"
    armed = {deadline: (len(queue._pending), queue._timer)
             for deadline, queue in fabric._deadline_queues.items()
             if queue._pending or queue._timer is not None}
    assert armed == {}


def test_a_campaign_ends_quiescent():
    result = run_campaign(CampaignConfig(seed=2007))
    assert_quiescent(result.deployment.fabric)


def test_a_load_point_ends_quiescent(federations):
    kept, keep = federations
    keep(load_federation)
    result = load_federation.run(
        loads=(64.0,), routings=("pull",), n_clients=1000, memo="off",
        n_grids=4, clusters_per_grid=4, churn=0, zipf=(1.1,), seed=2007,
        duration=3.0)
    (point,) = result.runs
    assert point.completed > 0 and len(kept) == 1
    assert_quiescent(kept[0].fabric)


def test_a_survey_arm_ends_quiescent(federations):
    kept, keep = federations
    keep(survey_campaign)
    result = survey_campaign.run(
        routings=("pull",), policies=("mct",), data_policies=("replicated",),
        shape=(5, 5), zooms=2, seed=2007)
    (arm,) = result.runs
    assert arm.completed == arm.nodes > 0 and len(kept) == 1
    assert_quiescent(kept[0].fabric)

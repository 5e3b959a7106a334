"""A finished run leaves no handler in flight and no deadline armed.

After a seed-2007 campaign and a quick E13 point (the e2e ``load_pull``
workload at its quick size), every bound endpoint's ``_inflight`` is empty,
and every ``_DeadlineQueue`` of the fabric has nothing pending and no timer
on the heap.  The handler process pops its own ``_inflight`` entry, on the
compiled leg in ``_simcore``; an interrupted caller that left its attempt in
a queue would keep that queue armed.  CI runs this on both legs.
"""

from repro.experiments import load_federation
from repro.services import CampaignConfig, run_campaign


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


def test_a_load_point_ends_quiescent(monkeypatch):
    kept = []
    build = load_federation.build_federation

    def build_and_keep(*args, **kwargs):
        kept.append(build(*args, **kwargs))
        return kept[-1]

    monkeypatch.setattr(load_federation, "build_federation", build_and_keep)
    result = load_federation.run(
        loads=(64.0,), routings=("pull",), n_clients=1000, memo="off",
        n_grids=4, clusters_per_grid=4, churn=0, zipf=(1.1,), seed=2007,
        duration=3.0)
    (point,) = result.runs
    assert point.completed > 0 and len(kept) == 1
    assert_quiescent(kept[0].fabric)

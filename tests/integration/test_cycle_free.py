"""The MODELED request path leaves nothing for the cyclic collector.

With the collector switched off, a run is made and its deployment kept
alive; ``gc.collect()`` afterwards reports how many objects only the
collector could have freed.  Every handler, reply and fan-out process of
the run must already be gone by reference count, so that number is a small
constant — it must not grow with the number of requests served.  (Before
the kernel objects were made cycle-free it was ~430 per zoom request and
900-1 600 per second of E13 load.)
"""

import gc

import pytest

from repro.experiments import load_federation
from repro.services import CampaignConfig, run_campaign

#: A handful of set-up closures (recursive local functions) per deployment.
SMALL = 64


def unreachable_after(run):
    """Objects only the cyclic collector can free after ``run()``, with the
    result still alive."""
    gc.collect()
    gc.disable()
    try:
        result = run()
        found = gc.collect()
    finally:
        gc.enable()
    del result
    return found


def test_campaign_garbage_does_not_grow_with_requests():
    found = [unreachable_after(lambda n=n: run_campaign(
        CampaignConfig(n_sub_simulations=n, seed=2007))) for n in (10, 40)]
    assert max(found) <= SMALL
    assert found[0] == found[1]


@pytest.mark.parametrize("routing", load_federation.ROUTING_MODES)
def test_load_point_garbage_does_not_grow_with_requests(routing, monkeypatch):
    # A LoadPoint does not pin its federation: keep the federations so that
    # only per-request cycles, not the dropped deployment, are counted.
    kept = []
    build = load_federation.build_federation

    def build_and_keep(*args, **kwargs):
        kept.append(build(*args, **kwargs))
        return kept[-1]

    monkeypatch.setattr(load_federation, "build_federation", build_and_keep)
    found = []
    for duration in (5.0, 15.0):
        def point(duration=duration):
            return load_federation.run(
                loads=(8.0,), routings=(routing,), duration=duration,
                n_clients=500, churn=1, seed=17)
        found.append(unreachable_after(point))
    assert len(kept) == 2
    assert max(found) <= SMALL
    assert found[0] == found[1]

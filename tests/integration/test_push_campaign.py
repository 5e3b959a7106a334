"""Push-routing campaigns end to end: completion, determinism, figures.

The pull path's bit-identity is pinned by the existing paper-number and
determinism suites; this module pins the push path to the same standards —
serial == parallel, observe-on == observe-off, rerun == rerun — and checks
the campaign completes under both the default and the MCT plug-in policy.
"""

from repro.experiments.runner import Task, canonical_pickle, run_tasks
from repro.services.workflow import (
    CampaignConfig,
    run_campaign,
    run_campaign_detached,
)

N_SUB = 4


def push_cfg(**overrides):
    kw = dict(n_sub_simulations=N_SUB, seed=11, routing="push")
    kw.update(overrides)
    return CampaignConfig(**kw)


def figure_series(result):
    """Every series the §5 figures read, as one comparable tuple."""
    return (result.finding_times(), result.latencies(),
            result.requests_per_sed(), result.busy_time_per_sed(),
            result.gantt(), result.overhead_per_request)


class TestPushCampaign:
    def test_pull_stays_the_default(self):
        assert CampaignConfig().routing == "pull"

    def test_push_campaign_completes(self):
        result = run_campaign(push_cfg())
        assert len(result.statuses) == N_SUB  # one status per zoom request
        assert all(status == 0 for status in result.statuses)
        # every request was actually routed through the materialized table
        assert sum(result.requests_per_sed().values()) == N_SUB
        assert result.deployment.routing == "push"

    def test_push_campaign_with_mct_policy(self):
        result = run_campaign(push_cfg(policy="mct", with_predictor=True))
        assert all(status == 0 for status in result.statuses)
        assert sum(result.requests_per_sed().values()) == N_SUB

    def test_push_rerun_is_bit_identical(self):
        first = run_campaign_detached(push_cfg())
        again = run_campaign_detached(push_cfg())
        assert canonical_pickle(first) == canonical_pickle(again)

    def test_push_serial_matches_parallel(self):
        configs = [push_cfg(seed=11), push_cfg(seed=12)]
        serial = [run_campaign_detached(cfg) for cfg in configs]
        parallel = run_tasks(
            [Task(key=f"seed={cfg.seed}", func=run_campaign_detached,
                  args=(cfg,)) for cfg in configs], jobs=2)
        for s, p in zip(serial, parallel):
            assert canonical_pickle(s) == canonical_pickle(p)

    def test_push_observe_off_matches_on(self):
        on = run_campaign(push_cfg(observe=True))
        off = run_campaign(push_cfg(observe=False))
        assert on.span_store() is not None
        assert off.span_store() is None
        # the span-store derivation and the trace-field fallback agree on
        # every figure series: observing never changes the simulation
        assert figure_series(on) == figure_series(off)

    def test_push_and_pull_solve_the_same_workload(self):
        push = run_campaign(push_cfg())
        pull = run_campaign(push_cfg(routing="pull"))
        assert push.statuses == pull.statuses
        assert push.zoom_centers == pull.zoom_centers
        assert (sum(push.requests_per_sed().values())
                == sum(pull.requests_per_sed().values()))

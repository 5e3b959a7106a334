"""The data-policy table: one record per campaign policy, and one error for
an unknown name wherever a policy name enters a run."""

import pytest

from repro.core.federation import FederationConfig, build_federation
from repro.data import DATA_POLICIES, lookup_data_policy
from repro.experiments import survey_campaign
from repro.services import CampaignConfig, run_campaign
from repro.sim import Engine

KNOWN = "known: volatile, persistent, replicated, broadcast"


def test_one_record_per_policy_name():
    for name, policy in DATA_POLICIES.items():
        assert lookup_data_policy(name) is policy
        assert policy.name == name
    # (keeps results, pushes replicas)
    assert {
        name: (p.keeps_results, p.replica_targets is not None)
        for name, p in DATA_POLICIES.items()
    } == {
        "volatile": (False, False),
        "persistent": (True, False),
        "replicated": (True, True),
        "broadcast": (True, True),
    }


def _no_workers(*args, **kwargs):
    raise AssertionError("an arm started before the policy was checked")


@pytest.mark.parametrize(
    "start",
    [
        lambda: run_campaign(CampaignConfig(n_sub_simulations=1, data_policy="bogus")),
        lambda: build_federation(Engine(), FederationConfig(data_policy="bogus")),
        lambda: survey_campaign.run(data_policies=("volatile", "bogus"), jobs=2),
    ],
    ids=["run_campaign", "build_federation", "survey_campaign"],
)
def test_unknown_policy_fails_before_any_run(start, monkeypatch):
    monkeypatch.setattr(survey_campaign, "run_tasks", _no_workers)
    with pytest.raises(ValueError, match=f"'bogus'; {KNOWN}$"):
        start()

"""E12 end to end: the data-locality ablation's acceptance properties.

Persistent campaigns must move strictly fewer WAN bytes than volatile ones
while producing bit-identical figure-4/figure-5 series, and the parallel
runner must reproduce the serial results byte for byte.
"""

import pytest

from repro.experiments import data_locality
from repro.services import CampaignConfig, FailurePlan, run_campaign

N_SUB = 12


def fingerprint(result):
    """Everything e12 reports about one campaign arm."""
    return (
        result.total_elapsed,
        tuple(result.statuses),
        result.net_bytes_total,
        result.net_bytes_wan,
        tuple(sorted(result.data_report.items())) if result.data_report
        else None,
        tuple(sorted(result.requests_per_sed().items())),
        tuple(result.finding_times()),
        tuple(sorted(result.busy_time_per_sed().items())),
    )


class TestDataLocalityAblation:
    @pytest.fixture(scope="class")
    def result(self):
        return data_locality.run(policies=("volatile", "persistent"),
                                 n_sub_simulations=N_SUB)

    def test_persistent_moves_strictly_fewer_wan_bytes(self, result):
        volatile = result.campaigns["volatile"]
        persistent = result.campaigns["persistent"]
        assert persistent.net_bytes_wan < volatile.net_bytes_wan
        assert persistent.net_bytes_total < volatile.net_bytes_total
        assert result.wan_saved("persistent") > 0

    def test_figures_are_bit_identical_across_arms(self, result):
        assert result.figures_identical
        assert result.figure_series("persistent") == \
            result.figure_series("volatile")

    def test_persistent_arm_reports_data_savings(self, result):
        report = result.campaigns["persistent"].data_report
        assert report is not None
        assert report["bytes_saved"] > 0

    def test_parallel_run_is_byte_identical_to_serial(self, result):
        again = data_locality.run(policies=("volatile", "persistent"),
                                  n_sub_simulations=N_SUB, jobs=2)
        for policy in ("volatile", "persistent"):
            assert fingerprint(again.campaigns[policy]) == \
                fingerprint(result.campaigns[policy])

    def test_render_mentions_every_arm(self, result):
        text = data_locality.render(result)
        assert "volatile" in text and "persistent" in text
        assert "WAN" in text


class TestDegradedCampaignAcrossDataPolicies:
    def test_fault_stats_do_not_depend_on_data_policy(self):
        """Keeping results SeD-side changes nothing about what the crashes
        cost: a resubmitted zoom starts over wherever it lands."""

        def faults(policy):
            result = run_campaign(CampaignConfig(
                n_sub_simulations=40, seed=2007, data_policy=policy,
                failures=FailurePlan(n_crashes=2)))
            assert all(s == 0 for s in result.statuses)
            report = result.failure_report
            return (report.resubmissions, result.solve_time_lost,
                    report.outages)

        persistent = faults("persistent")
        assert persistent[1] > 0.0  # a crash killed a running solve
        assert persistent == faults("volatile")

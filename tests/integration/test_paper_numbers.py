"""E1-E7 acceptance: the MODELED campaign reproduces §5 of the paper.

These are the headline reproduction checks.  Tolerances are generous where
the paper's number is itself noisy (total makespan depends on which SeD
drew the unlucky jobs) and tight where our calibration pins the value
(part-1 duration, finding time, request distribution).
"""

import hashlib

import numpy as np
import pytest

from repro.__main__ import _EXPERIMENTS
from repro.experiments import ablation_scheduler
from repro.services import (
    CampaignConfig,
    PAPER_PART1_SECONDS,
    PAPER_PART2_MEAN_SECONDS,
    PAPER_TOTAL_SECONDS,
    run_campaign,
)


@pytest.fixture(scope="module")
def campaign():
    return run_campaign(CampaignConfig())


class TestE1Timings:
    def test_part1_duration(self, campaign):
        """Paper: 1h 15min 11s."""
        assert campaign.part1_duration == pytest.approx(
            PAPER_PART1_SECONDS, rel=0.02)

    def test_part2_mean_duration(self, campaign):
        """Paper: 1h 24min 1s average over the 100 sub-simulations."""
        assert campaign.part2_mean_duration == pytest.approx(
            PAPER_PART2_MEAN_SECONDS, rel=0.02)

    def test_total_elapsed(self, campaign):
        """Paper: 16h 18min 43s (within 5%: depends on noise placement)."""
        assert campaign.total_elapsed == pytest.approx(
            PAPER_TOTAL_SECONDS, rel=0.05)

    def test_sequential_estimate_exceeds_141h(self, campaign):
        """Paper: 'more than 141h to run the 101 simulation sequentially'."""
        assert campaign.sequential_estimate > 141 * 3600
        assert campaign.sequential_estimate < 150 * 3600

    def test_parallel_speedup(self, campaign):
        """11 SeDs, heterogeneous: speedup should be ~8-9x."""
        assert 7.5 < campaign.speedup < 10.0

    def test_all_simulations_succeeded(self, campaign):
        assert len(campaign.part2_traces) == 100
        assert all(t.status == 0 for t in campaign.part2_traces)


class TestE2Distribution:
    def test_nine_nine_ten_split(self, campaign):
        """Paper: 'each SED received 9 requests (one of them received 10)'."""
        counts = sorted(campaign.requests_per_sed().values())
        assert counts == [9] * 10 + [10]

    def test_gantt_no_overlap_per_sed(self, campaign):
        for sed, spans in campaign.gantt().items():
            for (s1, e1, _), (s2, e2, _) in zip(spans[:-1], spans[1:]):
                assert s2 >= e1 - 1e-9, f"overlapping jobs on {sed}"


class TestE3BusyTime:
    def test_toulouse_slowest_nancy_fastest_shape(self, campaign):
        """Paper: 'about 15h for Toulouse and 10h30 for Nancy'."""
        by_cluster = campaign.per_cluster(campaign.busy_time_per_sed())
        nancy = min(by_cluster["nancy-grillon"]) / 3600.0
        toulouse = max(by_cluster["toulouse-violette"]) / 3600.0
        assert nancy == pytest.approx(10.5, rel=0.08)
        assert toulouse == pytest.approx(15.0, rel=0.08)
        # Nancy's SeDs are among the least busy, Toulouse's among the most
        assert min(by_cluster, key=lambda c: min(by_cluster[c])) == "nancy-grillon"

    def test_schedule_not_optimal(self, campaign):
        """The spread demonstrates the paper's point: default scheduling
        ignores machine speed."""
        assert campaign.busy_spread > 1.3


class TestE4FindingTime:
    def test_average_matches_paper(self, campaign):
        """Paper: 49.8 ms average."""
        assert campaign.finding_mean * 1e3 == pytest.approx(49.8, rel=0.03)

    def test_nearly_constant(self, campaign):
        """Paper: 'low and nearly constant'."""
        assert campaign.finding_cv < 0.10


class TestE5Latency:
    def test_first_wave_is_milliseconds(self, campaign):
        lat = sorted(campaign.latencies())
        assert lat[0] < 0.5   # transfer + initiation only

    def test_grows_by_orders_of_magnitude(self, campaign):
        """Paper: latency 'grows rapidly' (log-scale plot): queueing."""
        lat = campaign.latencies()
        assert max(lat) / min(lat) > 1e4
        assert max(lat) > 10 * 3600   # last wave waits ~9 solves

    def test_latency_wave_structure(self, campaign):
        """Latencies cluster into ~9-10 waves of ~11 requests."""
        lat = np.sort(campaign.latencies())
        first_wave = np.sum(lat < 60.0)
        assert 10 <= first_wave <= 12


class TestE6Overhead:
    def test_per_request_overhead(self, campaign):
        """Paper: ~70.6 ms per simulation (finding + initiation)."""
        assert campaign.overhead_mean * 1e3 == pytest.approx(70.6, rel=0.05)

    def test_total_overhead_seconds(self, campaign):
        """Paper: ~7 s for the 101 simulations."""
        total = campaign.overhead_mean * 101
        assert total == pytest.approx(7.0, rel=0.1)

    def test_negligible_fraction(self, campaign):
        total = campaign.overhead_mean * 101
        assert total / campaign.sequential_estimate < 1e-4


class TestE7PluginScheduler:
    @pytest.fixture(scope="class")
    def ablation(self):
        return ablation_scheduler.run(
            policies=(("default", False), ("mct", True)))

    def test_mct_improves_makespan(self, ablation):
        """The paper's prediction: 'a better makespan could be attained by
        writing a plug-in scheduler'."""
        gain = ablation.improvement_over_default()
        assert gain > 0.05

    def test_mct_balances_busy_time(self, ablation):
        assert (ablation.campaigns["mct"].busy_spread
                < ablation.campaigns["default"].busy_spread)

    def test_mct_gives_fast_seds_more_work(self, ablation):
        mct = ablation.campaigns["mct"]
        by_cluster = mct.per_cluster(mct.requests_per_sed())
        assert max(by_cluster["nancy-grillon"]) >= max(
            by_cluster["toulouse-violette"])


class TestReportText:
    """The full stdout of the rows that print this campaign, pinned by
    sha256 prefix.  ``main`` prints ``row.render(result)`` and a newline;
    the ``campaign`` row's defaults are this campaign's config."""

    @pytest.mark.parametrize("row, digest", [
        ("timings", "44cef7bb549283f6"),
        ("figure4", "622bedcdf5f70f2b"),
        ("figure5", "17d8304250abb0e4"),
        ("overhead", "68b70916df5611f8"),
        ("campaign", "3fd20b78d8202a5f"),
    ])
    def test_report_digest(self, campaign, row, digest):
        stdout = _EXPERIMENTS[row].render(campaign) + "\n"
        assert hashlib.sha256(stdout.encode()).hexdigest()[:16] == digest

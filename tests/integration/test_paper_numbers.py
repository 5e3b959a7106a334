"""E1-E7 acceptance: the MODELED campaign reproduces §5 of the paper.

These are the headline reproduction checks.  Tolerances are generous where
the paper's number is itself noisy (total makespan depends on which SeD
drew the unlucky jobs) and tight where our calibration pins the value
(part-1 duration, finding time, request distribution).
"""

import math
import statistics

import numpy as np
import pytest

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
        by_cluster = {}
        for sed, busy in campaign.busy_time_per_sed().items():
            cluster = campaign.deployment.cluster_of_sed(sed)
            by_cluster.setdefault(cluster, []).append(busy / 3600.0)
        nancy = min(by_cluster["nancy-grillon"])
        toulouse = max(by_cluster["toulouse-violette"])
        assert nancy == pytest.approx(10.5, rel=0.08)
        assert toulouse == pytest.approx(15.0, rel=0.08)
        # Nancy's SeDs are among the least busy, Toulouse's among the most
        assert min(by_cluster, key=lambda c: min(by_cluster[c])) == "nancy-grillon"

    def test_schedule_not_optimal(self, campaign):
        """The spread demonstrates the paper's point: default scheduling
        ignores machine speed."""
        busy = list(campaign.busy_time_per_sed().values())
        assert max(busy) / min(busy) > 1.3


class TestE4FindingTime:
    def test_average_matches_paper(self, campaign):
        """Paper: 49.8 ms average."""
        ft = campaign.finding_times()
        assert statistics.mean(ft) * 1e3 == pytest.approx(49.8, rel=0.03)

    def test_nearly_constant(self, campaign):
        """Paper: 'low and nearly constant'."""
        ft = np.asarray(campaign.finding_times())
        assert ft.std() / ft.mean() < 0.10


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
        per = statistics.mean(campaign.overhead_per_request) * 1e3
        assert per == pytest.approx(70.6, rel=0.05)

    def test_total_overhead_seconds(self, campaign):
        """Paper: ~7 s for the 101 simulations."""
        total = statistics.mean(campaign.overhead_per_request) * 101
        assert total == pytest.approx(7.0, rel=0.1)

    def test_negligible_fraction(self, campaign):
        total = statistics.mean(campaign.overhead_per_request) * 101
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
        assert (ablation.busy_spread("mct")
                < ablation.busy_spread("default"))

    def test_mct_gives_fast_seds_more_work(self, ablation):
        counts = ablation.campaigns["mct"].requests_per_sed()
        by_cluster = {}
        for sed, n in counts.items():
            cl = ablation.campaigns["mct"].deployment.cluster_of_sed(sed)
            by_cluster.setdefault(cl, []).append(n)
        assert max(by_cluster["nancy-grillon"]) >= max(
            by_cluster["toulouse-violette"])

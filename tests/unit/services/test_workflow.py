"""Unit tests for the campaign workflow (small configurations)."""

import pytest

from repro.platform import ClusterSpec, build_grid5000
from repro.services import (
    CampaignConfig,
    run_campaign,
    synthetic_zoom_centers,
)


class TestSyntheticCenters:
    def test_deterministic(self):
        assert synthetic_zoom_centers(5, 7) == synthetic_zoom_centers(5, 7)

    def test_in_unit_box(self):
        for c in synthetic_zoom_centers(20, 1):
            assert all(0 <= v < 1 for v in c)

    def test_seed_sensitivity(self):
        assert synthetic_zoom_centers(5, 1) != synthetic_zoom_centers(5, 2)


class TestSmallCampaigns:
    def test_small_campaign_counts(self):
        result = run_campaign(CampaignConfig(n_sub_simulations=7))
        assert len(result.part2_traces) == 7
        assert len(result.zoom_centers) == 7
        assert all(t.status == 0 for t in result.part2_traces)

    def test_distribution_small_burst(self):
        """7 requests over 11 SeDs: each goes to a distinct SeD."""
        result = run_campaign(CampaignConfig(n_sub_simulations=7))
        counts = result.requests_per_sed()
        assert sorted(counts.values()) == [1] * 7

    def test_custom_cluster_layout(self):
        specs = (
            ClusterSpec("s1", "fast", "opteron-252", 48, n_seds=2),
            ClusterSpec("s2", "slow", "opteron-246", 48, n_seds=2),
        )
        result = run_campaign(CampaignConfig(n_sub_simulations=8,
                                             cluster_specs=specs))
        assert len(result.deployment.seds) == 4
        busy = result.busy_time_per_sed()
        # the slow cluster is busier for the same request count
        slow = [b for s, b in busy.items() if "slow" in s]
        fast = [b for s, b in busy.items() if "fast" in s]
        assert min(slow) > max(fast) * 1.1

    def test_failed_sub_simulation_names_request_sed_and_cause(
            self, monkeypatch):
        """A full NFS volume fails solves with status 1 (the 4000-zoom run's
        failure at toy scale): the campaign must say so — request, SeD and
        the SeD-side error — not die decoding an unset OUT argument."""
        from repro.services import workflow
        from repro.services.perfmodel import RamsesPerfModel

        perf = RamsesPerfModel()
        per_job = perf.snapshot_bytes(128, 1) + perf.snapshot_bytes(128)

        def tight_platform(engine, cluster_specs=None):
            platform = build_grid5000(engine, cluster_specs=cluster_specs)
            for cluster in platform.clusters.values():
                # room for part 1 and one zoom, not for the second zoom
                cluster.nfs.capacity_bytes = 2.5 * per_job
            return platform

        monkeypatch.setattr(workflow, "build_grid5000", tight_platform)
        specs = (ClusterSpec("s1", "only", "opteron-252", 16, n_seds=1),)
        with pytest.raises(RuntimeError) as excinfo:
            run_campaign(CampaignConfig(n_sub_simulations=2,
                                        cluster_specs=specs))
        message = str(excinfo.value)
        assert "request 3 on SeD-s1-only-sed0" in message
        assert "status 1: NfsError: volume 'nfs-s1-only' full" in message

    def test_policy_switch_changes_distribution(self):
        default = run_campaign(CampaignConfig(n_sub_simulations=40))
        mct = run_campaign(CampaignConfig(n_sub_simulations=40,
                                          policy="mct", with_predictor=True))
        assert (max(mct.requests_per_sed().values())
                > max(default.requests_per_sed().values()) - 1)
        assert mct.total_elapsed <= default.total_elapsed * 1.05

    def test_random_policy_runs(self):
        result = run_campaign(CampaignConfig(n_sub_simulations=10,
                                             policy="random"))
        assert len(result.part2_traces) == 10

    def test_deterministic_given_seed(self):
        a = run_campaign(CampaignConfig(n_sub_simulations=5))
        b = run_campaign(CampaignConfig(n_sub_simulations=5))
        assert a.total_elapsed == b.total_elapsed
        assert a.requests_per_sed() == b.requests_per_sed()

    def test_zoom_level_count_affects_duration(self):
        shallow = run_campaign(CampaignConfig(n_sub_simulations=5,
                                              n_zoom_levels=1))
        deep = run_campaign(CampaignConfig(n_sub_simulations=5,
                                           n_zoom_levels=4))
        assert deep.part2_mean_duration > shallow.part2_mean_duration


class TestResultAccessors:
    @pytest.fixture(scope="class")
    def result(self):
        return run_campaign(CampaignConfig(n_sub_simulations=12))

    def test_gantt_covers_all_requests(self, result):
        spans = sum(len(v) for v in result.gantt().values())
        assert spans == 12

    def test_overhead_list_length(self, result):
        assert len(result.overhead_per_request) == 12

    def test_sequential_exceeds_parallel(self, result):
        assert result.sequential_estimate > result.total_elapsed
        assert result.speedup > 1.0

    def test_finding_times_include_part1(self, result):
        assert len(result.finding_times()) == 13

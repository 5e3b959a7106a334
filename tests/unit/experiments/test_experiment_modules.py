"""Unit tests for the experiment modules at reduced scale (fast paths).

The default-size results are checked in
``tests/integration/test_paper_numbers.py``; these tests exercise the same
code paths in seconds.
"""

import pytest

from repro.experiments import (
    ablation_scheduler,
    figure2_density,
    figure3_zoom,
    paper_campaign,
    scaling_nodes,
)
from repro.services import CampaignConfig, run_campaign


SMALL = CampaignConfig(n_sub_simulations=12)


@pytest.fixture(scope="module")
def small_campaign():
    return run_campaign(SMALL)


class TestMiddlewareExperiments:
    def test_table_timings_small(self, small_campaign):
        r = small_campaign
        assert r.part1_duration > 0
        assert r.sequential_estimate / 3600 > r.total_elapsed / 3600
        text = paper_campaign.render_timings(r)
        assert "paper" in text and "1h 15min 11s" in text

    def test_figure4_small(self, small_campaign):
        r = small_campaign
        assert sum(r.requests_per_sed().values()) == 12
        text = paper_campaign.render_figure4(r)
        assert "Gantt" in text and "toulouse" in text.lower()

    def test_figure5_small(self, small_campaign):
        r = small_campaign
        assert r.finding_mean * 1e3 == pytest.approx(49.8, rel=0.05)
        text = paper_campaign.render_figure5(r)
        assert "finding time" in text and "latency" in text

    def test_overhead_small(self, small_campaign):
        r = small_campaign
        assert r.init_time * 1e3 == pytest.approx(20.8, rel=0.01)
        assert "overhead" in paper_campaign.render_overhead(r)

    def test_ablation_small(self):
        result = ablation_scheduler.run(
            CampaignConfig(n_sub_simulations=22),
            policies=(("default", False), ("mct", True)))
        assert set(result.campaigns) == {"default", "mct"}
        spans = result.part2_makespans()
        assert spans["mct"] <= spans["default"] * 1.02
        assert "makespan" in ablation_scheduler.render(result)

    def test_ablation_honours_the_whole_base_config(self):
        """Only ``policy``/``with_predictor`` vary per arm; the hand field
        copy this replaced dropped routing, data policy, failures, observe."""
        base = CampaignConfig(n_sub_simulations=4, routing="push",
                              observe=False, data_policy="persistent")
        result = ablation_scheduler.run(base, policies=(("default", False),
                                                        ("mct", True)))
        for policy, campaign in result.campaigns.items():
            cfg = campaign.config
            assert (cfg.routing, cfg.observe, cfg.data_policy) == (
                "push", False, "persistent")
            assert cfg.policy == policy
            assert cfg.with_predictor == (policy == "mct")
            assert campaign.data_report is not None
            assert campaign.span_store() is None

    def test_routing_ablation_small(self):
        result = ablation_scheduler.run_routing(
            CampaignConfig(n_sub_simulations=6), widths=(2, 4))
        assert set(result.campaigns) == {"pull@2", "push@2",
                                         "pull@4", "push@4"}
        assert result.n_seds(4) > result.n_seds(2)
        # pull finding time grows with width; push must not
        assert (result.campaign("pull", 4).finding_mean
                > result.campaign("pull", 2).finding_mean)
        assert result.campaign("push", 4).finding_mean == pytest.approx(
            result.campaign("push", 2).finding_mean, rel=0.05)
        assert result.finding_speedup(4) > result.finding_speedup(2)
        text = ablation_scheduler.render_routing(result)
        assert "routing ablation" in text and "speedup" in text

    def test_routing_cluster_specs_unique(self):
        specs = ablation_scheduler.routing_cluster_specs(8)
        assert len(specs) == 8
        assert len({s.full_name for s in specs}) == 8


class TestScienceExperiments:
    def test_figure2_small(self):
        r = figure2_density.run(n_per_side=16, n_steps=16, seed=13)
        assert len(r.aexps) == 4
        assert r.monotone_growth
        text = figure2_density.render(r)
        assert "rms delta" in text

    def test_figure3_small(self):
        r = figure3_zoom.run(n_coarse=16, n_levels=1, n_steps=16, seed=11)
        assert r.mass_resolution_gain == pytest.approx(8.0)
        assert r.center_offset < 0.1
        assert "resolution gain" in figure3_zoom.render(r)

    def test_scaling_nodes_small(self):
        r = scaling_nodes.run(rank_counts=(1, 2, 8), base_resolution=16,
                              replicate=8)
        assert r.efficiency(2) > 0.5
        assert "scaling" in scaling_nodes.render(r)
        with pytest.raises(KeyError):
            r.efficiency(99)

"""Unit tests for the calibrated performance model."""

import numpy as np
import pytest

from repro.services import (
    PAPER_PART1_SECONDS,
    PAPER_PART2_MEAN_SECONDS,
    RamsesPerfModel,
)


@pytest.fixture(scope="module")
def model():
    return RamsesPerfModel()


class TestCalibration:
    def test_part1_target_on_first_sed(self, model):
        """Work / 2.0 GHz + NFS time == 1h15m11s on lyon-capricorne."""
        total = model.part1_work(128) / 2.0 + model.nfs_seconds(128)
        assert total == pytest.approx(PAPER_PART1_SECONDS, rel=1e-9)

    def test_part2_canonical_sample_mean(self, model):
        """Mean over the canonical campaign's 100 draws == 1h24m01s."""
        mean_inv_speed = (2 / 2.0 + 1 / 2.4 + 2 / 2.2 + 2 / 2.6
                          + 2 / 1.82 + 2 / 2.2) / 11.0
        works = [model.part2_work(128, 2, i) for i in range(2, 102)]
        mean_seconds = np.mean(works) * mean_inv_speed + model.nfs_seconds(128)
        assert mean_seconds == pytest.approx(PAPER_PART2_MEAN_SECONDS, rel=1e-6)

    def test_zoom_costs_more_than_single_level(self, model):
        assert model.zoom_overhead_factor > 1.0


def test_one_campaign_makes_one_draw_per_zoom():
    """The sample mean and the zooms read the same 100 draws: one numpy
    Generator each, made once."""
    from repro.services import CampaignConfig, run_campaign
    from repro.services.perfmodel import _noise_draw, _realized_noise_mean

    _noise_draw.cache_clear()
    _realized_noise_mean.cache_clear()
    run_campaign(CampaignConfig(seed=2007))
    info = _noise_draw.cache_info()
    assert (info.misses, info.hits) == (100, 100)


class TestScaling:
    def test_part1_scales_with_particle_count(self, model):
        # N^3 scaling: doubling resolution costs 8x
        assert (model.part1_work(64) / model.part1_work(32)
                == pytest.approx(8.0))

    def test_part2_deeper_zoom_costs_more(self, model):
        w1 = model.part2_work(64, 1, request_index=5)
        w3 = model.part2_work(64, 3, request_index=5)
        assert w3 > w1

    def test_noise_deterministic_per_index(self, model):
        a = model.part2_work(128, 2, request_index=7)
        b = RamsesPerfModel().part2_work(128, 2, request_index=7)
        assert a == b

    def test_noise_varies_between_indices(self, model):
        draws = {model.part2_work(128, 2, i) for i in range(20)}
        assert len(draws) == 20

    def test_noise_scatter_matches_sigma(self, model):
        works = np.array([model.part2_work(128, 2, i) for i in range(500)])
        cv = works.std() / works.mean()
        assert cv == pytest.approx(model.sigma, rel=0.25)

    def test_validation(self, model):
        with pytest.raises(ValueError):
            model.part1_work(1)
        with pytest.raises(ValueError):
            model.part2_work(64, -1)


class TestDataSizes:
    def test_tarball_megabytes(self, model):
        nbytes = model.result_tarball_bytes(128)
        assert 1e6 < nbytes < 1e8

    def test_snapshot_volume_scales(self, model):
        assert (model.snapshot_bytes(128) / model.snapshot_bytes(64)
                == pytest.approx(8.0))

    def test_nfs_seconds_positive(self, model):
        assert 0 < model.nfs_seconds(128) < 120

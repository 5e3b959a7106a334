"""Unit tests for the simulated-MPI parallel step model."""

import numpy as np
import pytest

from repro.ramses.parallel import MpiCostModel, ParallelStepModel


@pytest.fixture(scope="module")
def cloud():
    rng = np.random.default_rng(0)
    uniform = rng.random((6000, 3))
    clump = np.mod(0.5 + 0.05 * rng.standard_normal((2000, 3)), 1.0)
    return np.vstack([uniform, clump])


@pytest.fixture(scope="module")
def model(cloud):
    return ParallelStepModel(cloud, n_grid=32)


class TestBreakdown:
    def test_single_rank_no_comm(self, model):
        bd = model.breakdown(1)
        assert bd.ghost == 0.0 and bd.fft == 0.0
        assert bd.compute > 0 and bd.imbalance == 1.0

    def test_compute_shrinks_with_ranks(self, model):
        assert model.breakdown(8).compute < model.breakdown(2).compute

    def test_comm_terms_positive_multirank(self, model):
        bd = model.breakdown(8)
        assert bd.ghost > 0 and bd.fft > 0

    def test_imbalance_grows_with_ranks(self, model):
        assert model.breakdown(64).imbalance >= model.breakdown(4).imbalance

    def test_total_is_sum(self, model):
        bd = model.breakdown(4)
        assert bd.total == pytest.approx(bd.compute + bd.ghost + bd.fft)

    def test_validation(self, cloud):
        with pytest.raises(ValueError):
            ParallelStepModel(cloud, n_grid=1)
        with pytest.raises(ValueError):
            ParallelStepModel(cloud, n_grid=16, node_speed_ghz=0)
        with pytest.raises(ValueError):
            ParallelStepModel(np.zeros((4, 2)), n_grid=16)
        model = ParallelStepModel(cloud, n_grid=16)
        with pytest.raises(ValueError):
            model.breakdown(0)


class TestScalingShape:
    def test_speedup_monotone_small_p(self, model):
        assert model.speedup(4) > model.speedup(2) > 1.0

    def test_efficiency_decreasing(self, model):
        effs = [model.efficiency(p) for p in (2, 8, 32)]
        assert effs[0] > effs[1] > effs[2]

    def test_faster_network_helps(self, cloud):
        slow = ParallelStepModel(cloud, 32,
                                 cost=MpiCostModel(bandwidth=1e7))
        fast = ParallelStepModel(cloud, 32,
                                 cost=MpiCostModel(bandwidth=1e9))
        assert fast.efficiency(16) > slow.efficiency(16)

    def test_faster_nodes_hurt_efficiency(self, cloud):
        """Quicker compute makes the same network relatively costlier."""
        slow_nodes = ParallelStepModel(cloud, 32, node_speed_ghz=1.0)
        fast_nodes = ParallelStepModel(cloud, 32, node_speed_ghz=8.0)
        assert slow_nodes.efficiency(16) > fast_nodes.efficiency(16)

"""Unit tests for the cosmology parameter grid (repro.survey.grid)."""

import pytest

from repro.survey.grid import CosmologyPoint, ParameterGrid


class TestCosmologyPoint:
    def test_defaults_are_the_survey_base(self):
        point = CosmologyPoint()
        assert point.h0 == 72.0
        assert point.omega_m == 0.26
        assert point.w0 == -1.0

    def test_label_encodes_the_sweep_axes(self):
        label = CosmologyPoint(omega_m=0.3, sigma8=0.85).label
        assert "Om0.300" in label and "si0.850" in label

    def test_labels_distinguish_points(self):
        a = CosmologyPoint(omega_m=0.24)
        b = CosmologyPoint(omega_m=0.26)
        assert a.label != b.label

    def test_digest_is_stable_and_parameter_sensitive(self):
        assert CosmologyPoint().digest == CosmologyPoint().digest
        assert CosmologyPoint(sigma8=0.8).digest != CosmologyPoint(sigma8=0.81).digest
        assert len(CosmologyPoint().digest) == 16

    def test_rejects_non_finite_parameters(self):
        with pytest.raises(ValueError):
            CosmologyPoint(h0=float("nan"))
        with pytest.raises(ValueError):
            CosmologyPoint(omega_m=float("inf"))


class TestParameterGrid:
    def test_cartesian_shape_and_order(self):
        axes = {"omega_m": (0.24, 0.26), "sigma8": (0.75, 0.8, 0.85)}
        grid = ParameterGrid.cartesian(axes)
        assert len(grid) == 6
        # First axis is the outer loop: omega_m varies slowest.
        assert [p.omega_m for p in grid][:3] == [0.24, 0.24, 0.24]
        assert [p.sigma8 for p in grid][:3] == [0.75, 0.8, 0.85]

    def test_cartesian_respects_base_point(self):
        base = CosmologyPoint(h0=70.0)
        grid = ParameterGrid.cartesian({"sigma8": (0.8,)}, base=base)
        assert grid[0].h0 == 70.0

    def test_from_points_applies_overrides(self):
        specs = [{"omega_m": 0.3}, CosmologyPoint(sigma8=0.7)]
        grid = ParameterGrid.from_points(specs)
        assert grid[0].omega_m == 0.3
        assert grid[1].sigma8 == 0.7

    def test_digests_are_unique_across_the_grid(self):
        axes = {"omega_m": (0.24, 0.26, 0.28), "sigma8": (0.75, 0.8)}
        grid = ParameterGrid.cartesian(axes)
        assert len(set(grid.digests())) == len(grid)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            ParameterGrid([])

    def test_identical_grids_compare_equal(self):
        axes = {"omega_m": (0.24, 0.26)}
        assert ParameterGrid.cartesian(axes) == ParameterGrid.cartesian(axes)

"""Unit tests for the particle container."""

import numpy as np
import pytest

from repro.ramses import ParticleSet


class TestConstruction:
    def test_uniform_lattice(self):
        parts = ParticleSet.uniform_lattice(4)
        assert len(parts) == 64
        assert parts.total_mass == pytest.approx(1.0)
        assert np.all(parts.p == 0)
        assert len(np.unique(parts.ids)) == 64
        # lattice points at cell centres
        assert parts.x.min() == pytest.approx(0.5 / 4)
        assert parts.x.max() == pytest.approx(3.5 / 4)

    def test_empty(self):
        parts = ParticleSet.empty()
        assert len(parts) == 0
        assert parts.total_mass == 0.0

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ParticleSet(np.zeros((3, 2)), np.zeros((3, 3)), np.zeros(3),
                        np.zeros(3, dtype=np.int64), np.zeros(3, dtype=np.int16))
        with pytest.raises(ValueError):
            ParticleSet(np.zeros((3, 3)), np.zeros((3, 3)), np.zeros(4),
                        np.zeros(3, dtype=np.int64), np.zeros(3, dtype=np.int16))

    def test_negative_mass_rejected(self):
        with pytest.raises(ValueError):
            ParticleSet(np.zeros((1, 3)), np.zeros((1, 3)), np.array([-1.0]),
                        np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int16))


class TestOperations:
    def test_copy_is_deep(self):
        a = ParticleSet.uniform_lattice(2)
        b = a.copy()
        b.x += 0.01
        assert not np.allclose(a.x, b.x)

    def test_select_mask(self):
        parts = ParticleSet.uniform_lattice(4)
        sel = parts.select(parts.x[:, 0] < 0.5)
        assert len(sel) == 32
        assert np.all(sel.x[:, 0] < 0.5)

    def test_concatenate_preserves_mass(self):
        a = ParticleSet.uniform_lattice(2)
        b = ParticleSet.uniform_lattice(4)
        both = ParticleSet.concatenate([a, b])
        assert len(both) == 8 + 64
        assert both.total_mass == pytest.approx(2.0)

    def test_concatenate_empty_list(self):
        assert len(ParticleSet.concatenate([])) == 0

    def test_wrap(self):
        parts = ParticleSet.uniform_lattice(2)
        parts.x += 0.9
        parts.wrap()
        assert np.all((parts.x >= 0) & (parts.x < 1))


class TestValidate:
    def test_valid_set_passes(self):
        ParticleSet.uniform_lattice(3).validate()

    def test_unwrapped_positions_fail(self):
        parts = ParticleSet.uniform_lattice(2)
        parts.x[0, 0] = 1.5
        with pytest.raises(ValueError, match="wrap"):
            parts.validate()

    def test_nan_fails(self):
        parts = ParticleSet.uniform_lattice(2)
        parts.p[0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            parts.validate()

    def test_duplicate_ids_fail(self):
        parts = ParticleSet.uniform_lattice(2)
        parts.ids[1] = parts.ids[0]
        with pytest.raises(ValueError, match="duplicate"):
            parts.validate()

    def test_repr_contains_counts(self):
        text = repr(ParticleSet.uniform_lattice(2))
        assert "N=8" in text

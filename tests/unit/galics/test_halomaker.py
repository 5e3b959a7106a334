"""Unit tests for the FoF halo finder."""

import numpy as np
import pytest

from repro.galics import find_halos, friends_of_friends, periodic_center
from repro.ramses import ParticleSet


def blob(center, n, scale, rng):
    return np.mod(np.asarray(center) + scale * rng.standard_normal((n, 3)), 1.0)


def make_parts(x):
    n = len(x)
    return ParticleSet(x, np.zeros_like(x), np.full(n, 1.0 / n),
                       np.arange(n, dtype=np.int64),
                       np.zeros(n, dtype=np.int16))


class TestPeriodicCenter:
    def test_simple_mean(self):
        x = np.array([[0.4, 0.4, 0.4], [0.6, 0.6, 0.6]])
        assert np.allclose(periodic_center(x), [0.5, 0.5, 0.5])

    def test_wraparound_mean(self):
        x = np.array([[0.95, 0.5, 0.5], [0.05, 0.5, 0.5]])
        c = periodic_center(x)
        assert min(c[0], 1 - c[0]) < 0.01   # centre near the seam, not 0.5

    def test_weighted(self):
        x = np.array([[0.2, 0.5, 0.5], [0.4, 0.5, 0.5]])
        c = periodic_center(x, weights=np.array([3.0, 1.0]))
        assert c[0] < 0.3

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            periodic_center(np.empty((0, 3)))


class TestFoF:
    def test_two_separated_blobs(self):
        rng = np.random.default_rng(0)
        x = np.vstack([blob([0.25] * 3, 50, 0.005, rng),
                       blob([0.75] * 3, 50, 0.005, rng)])
        labels = friends_of_friends(x, 0.05)
        assert len(np.unique(labels)) == 2
        assert len(np.unique(labels[:50])) == 1
        assert len(np.unique(labels[50:])) == 1

    def test_isolated_points_singletons(self):
        x = np.array([[0.1, 0.1, 0.1], [0.5, 0.5, 0.5], [0.9, 0.9, 0.9]])
        labels = friends_of_friends(x, 0.01)
        assert len(np.unique(labels)) == 3

    def test_periodic_linking(self):
        """Particles across the box seam belong to the same group."""
        x = np.array([[0.001, 0.5, 0.5], [0.999, 0.5, 0.5]])
        labels = friends_of_friends(x, 0.01)
        assert labels[0] == labels[1]

    def test_chain_percolation(self):
        """FoF links transitively along a chain of close particles."""
        x = np.column_stack([np.linspace(0.3, 0.5, 21),
                             np.full(21, 0.5), np.full(21, 0.5)])
        labels = friends_of_friends(x, 0.011)
        assert len(np.unique(labels)) == 1

    def test_labels_partition(self):
        rng = np.random.default_rng(1)
        x = rng.random((500, 3))
        labels = friends_of_friends(x, 0.02)
        assert labels.shape == (500,)
        assert labels.min() >= 0

    def test_validation(self):
        with pytest.raises(ValueError):
            friends_of_friends(np.zeros((2, 2)), 0.1)
        with pytest.raises(ValueError):
            friends_of_friends(np.zeros((2, 3)), 0.6)

    def test_empty(self):
        assert len(friends_of_friends(np.empty((0, 3)), 0.1)) == 0


class TestFindHalos:
    def test_catalog_from_blobs(self):
        rng = np.random.default_rng(2)
        x = np.vstack([blob([0.3] * 3, 100, 0.002, rng),
                       blob([0.7] * 3, 40, 0.002, rng),
                       rng.random((60, 3))])   # field particles
        parts = make_parts(x)
        catalog = find_halos(parts, aexp=1.0, min_particles=20)
        assert len(catalog) == 2
        # sorted by decreasing mass
        assert catalog[0].n_particles == 100
        assert catalog[1].n_particles == 40
        assert np.allclose(catalog[0].center, 0.3, atol=0.01)

    def test_min_particles_filter(self):
        rng = np.random.default_rng(3)
        x = np.vstack([blob([0.5] * 3, 30, 0.002, rng),
                       blob([0.2] * 3, 5, 0.002, rng)])
        catalog = find_halos(make_parts(x), aexp=1.0, min_particles=10)
        assert len(catalog) == 1

    def test_member_ids_sorted_and_valid(self):
        rng = np.random.default_rng(4)
        x = blob([0.5] * 3, 50, 0.002, rng)
        parts = make_parts(x)
        catalog = find_halos(parts, aexp=1.0, min_particles=10)
        ids = catalog[0].member_ids
        assert np.array_equal(ids, np.sort(ids))
        assert set(ids) <= set(parts.ids)

    def test_velocity_is_mass_weighted_mean(self):
        rng = np.random.default_rng(5)
        x = blob([0.5] * 3, 50, 0.002, rng)
        parts = make_parts(x)
        parts.p[:] = 2.0
        catalog = find_halos(parts, aexp=0.5, min_particles=10)
        # v = p / a = 4.0
        assert np.allclose(catalog[0].velocity, 4.0)

    def test_zoom_links_at_fine_resolution(self):
        """Mixed-mass sets use the finest species' mean separation."""
        rng = np.random.default_rng(6)
        fine = blob([0.5] * 3, 200, 0.001, rng)
        x = np.vstack([fine, rng.random((20, 3))])
        mass = np.concatenate([np.full(200, 1.0 / 8), np.full(20, 1.0)])
        parts = ParticleSet(x, np.zeros_like(x), mass / mass.sum(),
                            np.arange(220, dtype=np.int64),
                            np.zeros(220, dtype=np.int16))
        catalog = find_halos(parts, aexp=1.0, min_particles=50)
        assert len(catalog) >= 1

    def test_empty_particles(self):
        catalog = find_halos(ParticleSet.empty(), aexp=1.0)
        assert len(catalog) == 0

    def test_mass_function(self):
        rng = np.random.default_rng(7)
        x = np.vstack([blob([0.2] * 3, 80, 0.002, rng),
                       blob([0.8] * 3, 20, 0.002, rng)])
        catalog = find_halos(make_parts(x), aexp=1.0, min_particles=10)
        centres, counts = catalog.mass_function(n_bins=4)
        assert counts.sum() == len(catalog)

"""Unit tests for Peano-Hilbert keys and the domain decomposition."""

import numpy as np
import pytest

from repro.ramses import (
    DomainDecomposition,
    decompose,
    exchange_matrix,
    hilbert_decode,
    hilbert_encode,
    positions_to_keys,
    slab_ranks,
)


class TestHilbertCurve:
    @pytest.mark.parametrize("level", [1, 2, 3, 6, 10])
    def test_roundtrip(self, level):
        rng = np.random.default_rng(level)
        n = 1 << level
        ix = rng.integers(0, n, 500)
        iy = rng.integers(0, n, 500)
        iz = rng.integers(0, n, 500)
        jx, jy, jz = hilbert_decode(hilbert_encode(ix, iy, iz, level), level)
        assert np.array_equal(ix, jx)
        assert np.array_equal(iy, jy)
        assert np.array_equal(iz, jz)

    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_bijective_on_full_grid(self, level):
        n = 1 << level
        g = np.meshgrid(np.arange(n), np.arange(n), np.arange(n), indexing="ij")
        keys = hilbert_encode(g[0].ravel(), g[1].ravel(), g[2].ravel(), level)
        assert len(np.unique(keys)) == n ** 3
        assert keys.min() == 0 and keys.max() == n ** 3 - 1

    def test_locality_unit_steps(self):
        """Consecutive keys differ by exactly one cell face (Hilbert property)."""
        level = 4
        keys = np.arange((1 << level) ** 3, dtype=np.int64)
        x, y, z = hilbert_decode(keys, level)
        manhattan = (np.abs(np.diff(x)) + np.abs(np.diff(y))
                     + np.abs(np.diff(z)))
        assert np.all(manhattan == 1)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            hilbert_encode(np.array([4]), np.array([0]), np.array([0]), 2)
        with pytest.raises(ValueError):
            hilbert_decode(np.array([-1]), 2)
        with pytest.raises(ValueError):
            hilbert_encode(np.array([0]), np.array([0]), np.array([0]), 0)

    def test_positions_to_keys(self):
        x = np.array([[0.01, 0.01, 0.01], [0.99, 0.99, 0.99]])
        keys = positions_to_keys(x, 3)
        assert keys.shape == (2,)
        assert keys[0] != keys[1]


class TestDecomposition:
    def make_points(self, n=5000, seed=0):
        rng = np.random.default_rng(seed)
        # clustered + uniform mix, like a cosmological snapshot
        uniform = rng.random((n // 2, 3))
        cluster = 0.5 + 0.05 * rng.standard_normal((n // 2, 3))
        return np.mod(np.vstack([uniform, cluster]), 1.0)

    def test_equal_count_split(self):
        x = self.make_points()
        dd = decompose(x, ncpu=8)
        counts = dd.counts(x)
        assert counts.sum() == len(x)
        assert counts.max() / counts.mean() < 1.3

    def test_single_cpu(self):
        x = self.make_points(n=100)
        dd = decompose(x, ncpu=1)
        assert np.all(dd.rank_of_positions(x) == 0)

    def test_bound_keys_monotone(self):
        dd = decompose(self.make_points(), ncpu=16)
        assert np.all(np.diff(dd.bound_key) >= 0)
        assert dd.bound_key[0] == 0

    def test_rank_assignment_consistent_with_bounds(self):
        x = self.make_points(n=1000)
        dd = decompose(x, ncpu=4)
        keys = positions_to_keys(x, dd.level)
        ranks = dd.rank_of_keys(keys)
        for r in range(4):
            sel = keys[ranks == r]
            if len(sel):
                assert sel.min() >= dd.bound_key[r]
                assert sel.max() < dd.bound_key[r + 1]

    def test_validation(self):
        with pytest.raises(ValueError):
            decompose(np.zeros((1, 3)), ncpu=0)
        with pytest.raises(ValueError):
            DomainDecomposition(2, 3, np.array([0, 5], dtype=np.int64))


class TestLocalityMetric:
    def test_hilbert_beats_slab_on_communication(self):
        """The point of Peano-Hilbert ordering: less boundary traffic than
        slabs for the same rank count (§3's mesh partitioning strategy)."""
        rng = np.random.default_rng(1)
        x = rng.random((8000, 3))
        ncpu = 8
        hilbert = decompose(x, ncpu).rank_of_positions(x)
        slab = slab_ranks(x, ncpu)
        comm_h = exchange_matrix(hilbert, x, ncpu).sum()
        comm_s = exchange_matrix(slab, x, ncpu).sum()
        assert comm_h < comm_s

    def test_exchange_matrix_symmetric_zero_diagonal(self):
        rng = np.random.default_rng(2)
        x = rng.random((2000, 3))
        ranks = decompose(x, 4).rank_of_positions(x)
        mat = exchange_matrix(ranks, x, 4)
        assert np.array_equal(mat, mat.T)
        assert np.all(np.diag(mat) == 0)

    def test_slab_ranks_range(self):
        x = np.array([[0.0, 0.5, 0.5], [0.999, 0.5, 0.5]])
        ranks = slab_ranks(x, 4)
        assert list(ranks) == [0, 3]

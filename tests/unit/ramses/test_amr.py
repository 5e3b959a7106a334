"""Unit tests for the AMR refinement bookkeeping."""

import numpy as np
import pytest

from repro.ramses import ParticleSet, build_amr
from repro.ramses.amr import parent_cell_ids


def clustered_particles(n_uniform=512, n_cluster=512, seed=0):
    rng = np.random.default_rng(seed)
    uniform = rng.random((n_uniform, 3))
    cluster = np.mod(0.5 + 0.02 * rng.standard_normal((n_cluster, 3)), 1.0)
    x = np.vstack([uniform, cluster])
    mass = np.full(len(x), 1.0 / len(x))
    return x, mass


class TestBuild:
    def test_uniform_lattice_no_refinement(self):
        parts = ParticleSet.uniform_lattice(8)
        # 1 particle per level-3 cell, threshold 8 -> no refinement
        amr = build_amr(parts.x, parts.mass, levelmin=3, levelmax=6)
        assert amr.deepest_refined_level == 3
        assert amr.levels[0].n_cells == 8 ** 3
        assert amr.levels[0].n_leaves == 8 ** 3

    def test_cluster_triggers_refinement(self):
        x, mass = clustered_particles()
        amr = build_amr(x, mass, levelmin=3, levelmax=7)
        assert amr.deepest_refined_level > 3

    def test_strict_nesting(self):
        """Every active cell at level L+1 lies inside a refined L cell."""
        x, mass = clustered_particles()
        amr = build_amr(x, mass, levelmin=3, levelmax=6)
        assert amr.levels[1].n_cells > 0
        for parent, child in zip(amr.levels[:-1], amr.levels[1:]):
            assert np.isin(parent.refined_ids, parent.cell_ids).all()
            assert np.isin(parent_cell_ids(child.cell_ids, child.level),
                           parent.refined_ids).all()

    def test_leaves_partition_cells(self):
        x, mass = clustered_particles()
        amr = build_amr(x, mass, levelmin=3, levelmax=6)
        for lv in amr.levels:
            assert lv.n_leaves <= lv.n_cells

    def test_m_refine_controls_depth(self):
        x, mass = clustered_particles()
        deep = build_amr(x, mass, 3, 7, m_refine=4.0)
        shallow = build_amr(x, mass, 3, 7, m_refine=64.0)
        assert deep.total_cells >= shallow.total_cells

    def test_multi_mass_quantum(self):
        """Zoom particle sets refine against the smallest mass species."""
        rng = np.random.default_rng(1)
        coarse = rng.random((256, 3))
        fine = np.mod(0.5 + 0.01 * rng.standard_normal((256, 3)), 1.0)
        x = np.vstack([coarse, fine])
        mass = np.concatenate([np.full(256, 8.0 / 512), np.full(256, 1.0 / 512)])
        amr = build_amr(x, mass, 3, 8)
        assert amr.deepest_refined_level >= 5

    def test_validation(self):
        with pytest.raises(ValueError):
            build_amr(np.empty((0, 3)), np.empty(0), 3, 6)
        x, mass = clustered_particles(8, 8)
        with pytest.raises(ValueError):
            build_amr(x, mass, 5, 3)
        with pytest.raises(ValueError):
            build_amr(x, np.zeros_like(mass), 3, 5)


class TestWorkModel:
    def test_work_grows_with_refinement(self):
        x, mass = clustered_particles()
        deep = build_amr(x, mass, 3, 7, m_refine=4.0)
        shallow = build_amr(x, mass, 3, 7, m_refine=1e9)
        assert (deep.work_units(n_particles=len(x))
                > shallow.work_units(n_particles=len(x)))

    def test_subcycling_weight(self):
        """A level-L cell costs 2^(L - levelmin) sweeps."""
        x, mass = clustered_particles()
        amr = build_amr(x, mass, 3, 6)
        manual = sum(lv.n_cells * 2.0 ** (lv.level - 3) for lv in amr.levels)
        assert amr.work_units(cell_cost=1.0, particle_cost=0.0) == manual

    def test_cells_per_level_mapping(self):
        x, mass = clustered_particles()
        amr = build_amr(x, mass, 3, 5)
        cpl = amr.cells_per_level()
        assert set(cpl) == {3, 4, 5}
        assert cpl[3] == amr.levels[0].n_cells

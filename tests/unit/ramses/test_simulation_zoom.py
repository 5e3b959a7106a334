"""Unit tests for the run driver and the zoom machinery."""

import numpy as np
import pytest

from repro.grafic import ZoomRegion, make_single_level_ic
from repro.ramses import (
    EDS,
    LCDM_WMAP,
    ParticleSet,
    RamsesRun,
    RunConfig,
    ZoomSpec,
    lagrangian_positions_of_ids,
    lagrangian_region,
    run_zoom,
)


@pytest.fixture(scope="module")
def small_run():
    ic = make_single_level_ic(16, 100.0, LCDM_WMAP, a_start=0.05, seed=42)
    cfg = RunConfig(a_end=0.6, n_steps=12, output_aexp=(0.3, 0.6))
    return ic, RamsesRun(ic, cfg).run()


class TestRunConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            RunConfig(n_steps=0)
        with pytest.raises(ValueError):
            RunConfig(output_aexp=())
        with pytest.raises(ValueError):
            RunConfig(output_aexp=(0.0,))


class TestSchedule:
    def test_outputs_included_exactly(self):
        ic = make_single_level_ic(8, 50.0, EDS, a_start=0.1, seed=0)
        run = RamsesRun(ic, RunConfig(a_end=1.0, n_steps=10,
                                      output_aexp=(0.37, 1.0)))
        sched = run.schedule()
        assert np.any(np.isclose(sched, 0.37))
        assert sched[0] == pytest.approx(0.1)
        assert sched[-1] == pytest.approx(1.0)

    def test_default_grid_matches_lattice(self):
        ic = make_single_level_ic(16, 50.0, EDS, a_start=0.1, seed=0)
        run = RamsesRun(ic, RunConfig())
        assert run.n_grid == 16


class TestRun:
    def test_snapshots_at_requested_epochs(self, small_run):
        _, result = small_run
        assert [s.aexp for s in result.snapshots] == pytest.approx([0.3, 0.6])

    def test_structure_grows(self, small_run):
        _, result = small_run
        assert result.snapshots[1].rms_delta > result.snapshots[0].rms_delta

    def test_particles_conserved(self, small_run):
        ic, result = small_run
        for snap in result.snapshots:
            assert len(snap.particles) == len(ic.particles)
            assert snap.particles.total_mass == pytest.approx(1.0)
            snap.particles.validate()

    def test_projected_density_normalized(self, small_run):
        _, result = small_run
        proj = result.final.projected_density(n=16)
        assert proj.shape == (16, 16)
        assert proj.mean() == pytest.approx(1.0)


class TestLagrangian:
    def test_positions_of_ids_inverse_of_lattice(self):
        parts = ParticleSet.uniform_lattice(8)
        q = lagrangian_positions_of_ids(parts.ids, 8)
        assert np.allclose(q, parts.x)

    def test_bad_ids_rejected(self):
        with pytest.raises(ValueError):
            lagrangian_positions_of_ids(np.array([1000]), 8)

    def test_region_contains_all_members(self):
        ids = np.array([0, 1, 8, 9, 64])   # a compact id clump on an 8-lattice
        region = lagrangian_region(ids, 8, padding=1.0)
        q = lagrangian_positions_of_ids(ids, 8)
        assert region.contains(q).all()

    def test_region_periodic_wraparound(self):
        """A clump straddling the box edge gets a compact region."""
        # lattice sites near x=0 and x=1 (ix = 0 and 7)
        ids = np.array([0, 7 * 64])
        region = lagrangian_region(ids, 8, padding=1.0)
        assert region.half_size < 0.3


class TestZoom:
    def test_zoom_run_end_to_end(self):
        parent_ic = make_single_level_ic(8, 50.0, LCDM_WMAP, a_start=0.05,
                                         seed=3)
        spec = ZoomSpec(center=(0.5, 0.5, 0.5), n_levels=1,
                        region_half_size=0.2, n_coarse=8, boxsize_mpc_h=50.0)
        cfg = RunConfig(a_end=0.3, n_steps=6, output_aexp=(0.3,))
        result = run_zoom(parent_ic, spec, cfg)
        snap = result.final
        levels = np.unique(snap.particles.level)
        assert list(levels) == [0, 1]
        # fine particles are 8x lighter
        m0 = snap.particles.mass[snap.particles.level == 0].min()
        m1 = snap.particles.mass[snap.particles.level == 1].max()
        assert m0 / m1 == pytest.approx(8.0)

    def test_zoom_spec_validation(self):
        with pytest.raises(ValueError):
            ZoomSpec(center=(0.5, 0.5, 0.5), n_levels=0,
                     region_half_size=0.2, n_coarse=8, boxsize_mpc_h=50.0)

    def test_zoom_region_validation(self):
        with pytest.raises(ValueError):
            ZoomRegion((0.5, 0.5, 0.5), half_size=0.7)

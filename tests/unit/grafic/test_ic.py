"""Unit tests for single- and multi-level initial conditions."""

import numpy as np
import pytest

from repro.grafic import (
    ZoomRegion,
    growing_mode_momentum_factor,
    make_multi_level_ic,
    make_single_level_ic,
)
from repro.ramses import EDS, LCDM_WMAP


class TestZoomRegion:
    def test_contains_basic(self):
        region = ZoomRegion((0.5, 0.5, 0.5), 0.1)
        assert region.contains(np.array([[0.55, 0.45, 0.5]]))[0]
        assert not region.contains(np.array([[0.75, 0.5, 0.5]]))[0]

    def test_contains_periodic(self):
        region = ZoomRegion((0.02, 0.5, 0.5), 0.1)
        assert region.contains(np.array([[0.97, 0.5, 0.5]]))[0]

    def test_validation(self):
        with pytest.raises(ValueError):
            ZoomRegion((0.5, 0.5, 0.5), 0.0)


class TestSingleLevel:
    @pytest.fixture(scope="class")
    def ic(self):
        return make_single_level_ic(16, 100.0, LCDM_WMAP, a_start=0.05, seed=1)

    def test_particle_count_and_mass(self, ic):
        assert len(ic.particles) == 16 ** 3
        assert ic.particles.total_mass == pytest.approx(1.0)
        assert np.allclose(ic.particles.mass, 1.0 / 16 ** 3)

    def test_levels(self, ic):
        assert ic.levelmin == ic.levelmax == 4
        assert ic.n_levels == 1

    def test_positions_wrapped_and_valid(self, ic):
        ic.particles.validate()

    def test_displacements_small_at_early_times(self, ic):
        q = np.mod(ic.particles.x, 1.0)
        # early ICs: particles near their lattice sites
        lattice = np.mod((np.round(q * 16 - 0.5) + 0.5) / 16, 1.0)
        d = np.abs(q - lattice)
        d = np.minimum(d, 1 - d)
        assert d.max() < 1.0 / 16

    def test_momentum_growing_mode_relation(self, ic):
        """p and displacement are parallel with the growing-mode factor."""
        from repro.ramses import ParticleSet
        lattice = ParticleSet.uniform_lattice(16).x
        d = ic.particles.x - lattice
        d -= np.round(d)
        factor = growing_mode_momentum_factor(
            LCDM_WMAP, 0.05) / float(LCDM_WMAP.growth_factor(0.05))
        assert np.allclose(ic.particles.p, factor * d, rtol=1e-9, atol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            make_single_level_ic(15, 100.0, EDS)
        with pytest.raises(ValueError):
            make_single_level_ic(16, 100.0, EDS, a_start=1.5)


class TestMultiLevel:
    @pytest.fixture(scope="class")
    def zoom_ic(self):
        return make_multi_level_ic(
            n_coarse=8, boxsize_mpc_h=100.0, cosmology=LCDM_WMAP,
            center=(0.5, 0.5, 0.5), n_levels=2, region_half_size=0.25,
            a_start=0.05, seed=1)

    def test_total_mass_unity(self, zoom_ic):
        assert zoom_ic.particles.total_mass == pytest.approx(1.0, rel=1e-9)

    def test_three_species(self, zoom_ic):
        levels = np.unique(zoom_ic.particles.level)
        assert list(levels) == [0, 1, 2]

    def test_mass_hierarchy_factor_8(self, zoom_ic):
        parts = zoom_ic.particles
        masses = [parts.mass[parts.level == lv][0] for lv in (0, 1, 2)]
        assert masses[0] / masses[1] == pytest.approx(8.0)
        assert masses[1] / masses[2] == pytest.approx(8.0)

    def test_russian_doll_nesting(self, zoom_ic):
        """Finest particles sit in the innermost region; coarse particles
        keep out of it (checked in Lagrangian coordinates via masses)."""
        parts = zoom_ic.particles
        inner = zoom_ic.regions[-1]
        outer = zoom_ic.regions[0]
        finest = parts.select(parts.level == 2)
        # finest Lagrangian sites are all inside the inner region; at the
        # early start time the displacement is well under a cell
        assert inner.contains(finest.x).sum() == len(finest)
        coarse = parts.select(parts.level == 0)
        assert (~outer.contains(coarse.x)).mean() > 0.9

    def test_levels_metadata(self, zoom_ic):
        assert zoom_ic.levelmin == 3
        assert zoom_ic.levelmax == 5
        assert len(zoom_ic.regions) == 2
        assert zoom_ic.regions[1].half_size < zoom_ic.regions[0].half_size

    def test_unique_ids(self, zoom_ic):
        zoom_ic.particles.validate()

    def test_validation(self):
        with pytest.raises(ValueError):
            make_multi_level_ic(8, 100.0, EDS, (0.5, 0.5, 0.5), 0, 0.2)
        with pytest.raises(ValueError):
            make_multi_level_ic(8, 100.0, EDS, (0.5, 0.5), 1, 0.2)

    def test_center_wrapping(self):
        ic = make_multi_level_ic(8, 100.0, EDS, (1.2, -0.3, 0.5), 1, 0.1,
                                 seed=2)
        assert all(0 <= c < 1 for c in ic.regions[0].center)

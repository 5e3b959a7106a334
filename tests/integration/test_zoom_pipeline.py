"""Scientific integration: the complete zoom workflow of §3, no middleware.

Parent run -> HaloMaker -> Lagrangian region -> multi-level ICs -> zoom run
-> HaloMaker/TreeMaker/GalaxyMaker on the refined snapshots.
"""

import networkx as nx
import numpy as np
import pytest

from repro.galics import GalaxyMaker, build_merger_tree, find_halos
from repro.grafic import make_single_level_ic
from repro.ramses import (
    LCDM_WMAP,
    RamsesRun,
    RunConfig,
    ZoomSpec,
    lagrangian_region,
    resolution_gain,
    run_zoom,
)


@pytest.fixture(scope="module")
def parent():
    ic = make_single_level_ic(16, 50.0, LCDM_WMAP, a_start=0.05, seed=11)
    cfg = RunConfig(a_end=1.0, n_steps=20, output_aexp=(0.4, 0.6, 0.8, 1.0))
    result = RamsesRun(ic, cfg).run()
    catalogs = [find_halos(s.particles, s.aexp, min_particles=8)
                for s in result.snapshots]
    return ic, result, catalogs


class TestParentRun:
    def test_halos_form_and_grow(self, parent):
        _, _, catalogs = parent
        assert len(catalogs[-1]) >= 3
        assert catalogs[-1][0].mass > catalogs[1][0].mass if len(catalogs[1]) else True

    def test_merger_tree_healthy(self, parent):
        _, _, catalogs = parent
        nonempty = [c for c in catalogs if len(c)]
        tree = build_merger_tree(nonempty)
        assert nx.is_directed_acyclic_graph(tree.graph)
        # the most massive final halo has a progenitor line
        branch = tree.main_branch(tree.roots()[0])
        assert len(branch) >= 2

    def test_galaxies_form(self, parent):
        _, _, catalogs = parent
        nonempty = [c for c in catalogs if len(c)]
        tree = build_merger_tree(nonempty)
        galaxy_catalogs = GalaxyMaker(LCDM_WMAP).run(tree)
        assert galaxy_catalogs[-1].total_stellar_mass() > 0


class TestZoomResimulation:
    @pytest.fixture(scope="class")
    def zoom(self, parent):
        ic, result, catalogs = parent
        halo = catalogs[-1][0]
        region = lagrangian_region(halo.member_ids, 16)
        spec = ZoomSpec(center=tuple(region.center), n_levels=2,
                        region_half_size=region.half_size, n_coarse=16,
                        boxsize_mpc_h=50.0)
        cfg = RunConfig(a_end=1.0, n_steps=20, output_aexp=(1.0,))
        return halo, region, run_zoom(ic, spec, cfg)

    def test_mass_resolution_gain(self, parent, zoom):
        _, result, _ = parent
        halo, region, zoom_result = zoom
        gain = resolution_gain(result.final.particles,
                               zoom_result.final.particles, region)
        assert gain == pytest.approx(64.0)   # 8^2 for two levels

    def test_rezoomed_halo_found_near_parent_position(self, parent, zoom):
        halo, region, zoom_result = zoom
        snap = zoom_result.final
        catalog = find_halos(snap.particles, snap.aexp, min_particles=8)
        assert len(catalog) >= 1
        offsets = []
        for zh in catalog:
            d = np.abs(zh.center - halo.center)
            d = np.minimum(d, 1.0 - d)
            offsets.append(float(np.sqrt((d ** 2).sum())))
        # mode-matched ICs: a halo re-forms within ~2 coarse cells
        assert min(offsets) < 2.0 / 16

    def test_more_particles_in_rezoomed_halo(self, parent, zoom):
        halo, region, zoom_result = zoom
        snap = zoom_result.final
        catalog = find_halos(snap.particles, snap.aexp, min_particles=8)
        best = max(catalog, key=lambda h: h.n_particles)
        assert best.n_particles > halo.n_particles

    def test_zoom_refines_deeper(self, parent, zoom):
        ic, result, _ = parent
        _, _, zoom_result = zoom
        assert zoom_result.ic.levelmax == ic.levelmax + 2
        assert result.final.particles.level.max() == 0
        assert zoom_result.final.particles.level.max() == 2

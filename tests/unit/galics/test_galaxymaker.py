"""Unit tests for the semi-analytic galaxy model."""

import numpy as np
import pytest

from repro.galics import (
    Halo,
    HaloCatalog,
    GalaxyMaker,
    SamParams,
    build_merger_tree,
)
from repro.ramses import LCDM_WMAP


def halo(hid, ids, mass):
    ids = np.asarray(ids, dtype=np.int64)
    return Halo(halo_id=hid, center=np.array([0.5, 0.5, 0.5]), mass=mass,
                velocity=np.zeros(3), n_particles=len(ids), radius=0.01,
                member_ids=ids)


def growing_history():
    """One halo growing smoothly over four snapshots."""
    cats = []
    for i, (aexp, n) in enumerate([(0.3, 20), (0.5, 40), (0.7, 70), (1.0, 100)]):
        cats.append(HaloCatalog(aexp, [halo(0, range(n), mass=n / 1000.0)]))
    return cats


def merging_history():
    cat0 = HaloCatalog(0.4, [halo(0, range(0, 50), 0.05),
                             halo(1, range(50, 90), 0.04)])
    cat1 = HaloCatalog(1.0, [halo(0, range(0, 90), 0.09)])
    return [cat0, cat1]


class TestSamParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            SamParams(baryon_fraction=1.5)
        with pytest.raises(ValueError):
            SamParams(feedback_efficiency=-0.1)


class TestGalaxyMaker:
    def test_one_catalog_per_snapshot(self):
        tree = build_merger_tree(growing_history())
        catalogs = GalaxyMaker(LCDM_WMAP).run(tree)
        assert len(catalogs) == 4
        assert all(len(c) == 1 for c in catalogs)

    def test_stellar_mass_grows(self):
        tree = build_merger_tree(growing_history())
        catalogs = GalaxyMaker(LCDM_WMAP).run(tree)
        masses = [c.total_stellar_mass() for c in catalogs]
        assert all(m2 > m1 for m1, m2 in zip(masses[:-1], masses[1:]))

    def test_baryon_budget_respected(self):
        """Stars + gas never exceed the accreted baryon budget."""
        tree = build_merger_tree(growing_history())
        catalogs = GalaxyMaker(LCDM_WMAP).run(tree)
        final_halo_mass = tree.catalogs[-1][0].mass
        g = catalogs[-1].galaxies[0]
        budget = SamParams().baryon_fraction * final_halo_mass
        assert g.stellar_mass + g.cold_gas + g.hot_gas <= budget * (1 + 1e-9)

    def test_all_components_nonnegative(self):
        tree = build_merger_tree(merging_history())
        for cat in GalaxyMaker(LCDM_WMAP).run(tree):
            for g in cat:
                assert g.stellar_mass >= 0
                assert g.cold_gas >= 0
                assert g.hot_gas >= 0
                assert 0 <= g.bulge_fraction <= 1

    def test_major_merger_builds_bulge(self):
        """A ~1:1 merger moves the stars into the bulge."""
        tree = build_merger_tree(merging_history())
        catalogs = GalaxyMaker(LCDM_WMAP).run(tree)
        merged = catalogs[1].galaxies[0]
        assert merged.bulge_mass > 0

    def test_no_merger_no_bulge(self):
        tree = build_merger_tree(growing_history())
        catalogs = GalaxyMaker(LCDM_WMAP).run(tree)
        assert catalogs[-1].galaxies[0].bulge_mass == 0.0

    def test_merger_conserves_stars(self):
        """Stars of both progenitors survive the merger (plus new SF)."""
        tree = build_merger_tree(merging_history())
        catalogs = GalaxyMaker(LCDM_WMAP).run(tree)
        pre = catalogs[0].total_stellar_mass()
        post = catalogs[1].total_stellar_mass()
        assert post >= pre

    def test_higher_sf_efficiency_more_stars(self):
        tree = build_merger_tree(growing_history())
        low = GalaxyMaker(LCDM_WMAP, SamParams(star_formation_efficiency=0.02))
        high = GalaxyMaker(LCDM_WMAP, SamParams(star_formation_efficiency=0.4))
        m_low = low.run(tree)[-1].total_stellar_mass()
        m_high = high.run(tree)[-1].total_stellar_mass()
        assert m_high > m_low

    def test_feedback_suppresses_stars_in_small_halos(self):
        tree = build_merger_tree(growing_history())
        none = GalaxyMaker(LCDM_WMAP, SamParams(feedback_efficiency=0.0))
        strong = GalaxyMaker(LCDM_WMAP, SamParams(feedback_efficiency=1.0))
        assert (strong.run(tree)[-1].total_stellar_mass()
                < none.run(tree)[-1].total_stellar_mass())

    def test_galaxy_positions_track_halos(self):
        tree = build_merger_tree(growing_history())
        catalogs = GalaxyMaker(LCDM_WMAP).run(tree)
        g = catalogs[-1].galaxies[0]
        assert np.allclose(g.position, [0.5, 0.5, 0.5])

    def test_sfr_positive_while_growing(self):
        tree = build_merger_tree(growing_history())
        catalogs = GalaxyMaker(LCDM_WMAP).run(tree)
        assert catalogs[-1].galaxies[0].sfr > 0

"""Unit tests for halo/galaxy catalogs and their on-disk format."""

import numpy as np
import pytest

from repro.galics import (
    Galaxy,
    GalaxyCatalog,
    Halo,
    HaloCatalog,
    read_halo_catalog,
    write_halo_catalog,
)


def halo(hid, n, mass):
    return Halo(halo_id=hid, center=np.array([0.1 * hid, 0.2, 0.3]),
                mass=mass, velocity=np.array([1.0, -2.0, 0.5]),
                n_particles=n, radius=0.05,
                member_ids=np.arange(hid * 1000, hid * 1000 + n))


class TestHaloCatalog:
    def test_sorted_by_mass(self):
        cat = HaloCatalog(1.0, [halo(0, 10, 0.1), halo(1, 30, 0.3),
                                halo(2, 20, 0.2)])
        assert [h.halo_id for h in cat] == [1, 2, 0]

    def test_by_id(self):
        cat = HaloCatalog(1.0, [halo(0, 10, 0.1), halo(1, 20, 0.2)])
        assert cat.by_id(0).n_particles == 10
        with pytest.raises(KeyError):
            cat.by_id(99)

    def test_member_count_validation(self):
        with pytest.raises(ValueError):
            Halo(halo_id=0, center=np.zeros(3), mass=1.0,
                 velocity=np.zeros(3), n_particles=5, radius=0.1,
                 member_ids=np.arange(3))

    def test_masses_array(self):
        cat = HaloCatalog(1.0, [halo(0, 10, 0.1), halo(1, 30, 0.3)])
        assert np.allclose(cat.masses(), [0.3, 0.1])

    def test_mass_function_counts(self):
        cat = HaloCatalog(1.0, [halo(i, 10, 0.1 * (i + 1)) for i in range(6)])
        _, counts = cat.mass_function(n_bins=3)
        assert counts.sum() == 6

    def test_empty_mass_function(self):
        centres, counts = HaloCatalog(1.0, []).mass_function()
        assert len(centres) == 0 and len(counts) == 0


class TestHaloCatalogIO:
    def test_roundtrip(self, tmp_path):
        cat = HaloCatalog(0.5, [halo(0, 12, 0.25), halo(1, 7, 0.1)])
        path = str(tmp_path / "tree_brick.dat")
        write_halo_catalog(path, cat)
        back = read_halo_catalog(path)
        assert back.aexp == pytest.approx(0.5)
        assert len(back) == 2
        for orig, loaded in zip(cat, back):
            assert loaded.halo_id == orig.halo_id
            assert loaded.mass == pytest.approx(orig.mass)
            assert np.allclose(loaded.center, orig.center)
            assert np.allclose(loaded.velocity, orig.velocity)
            assert np.array_equal(loaded.member_ids, orig.member_ids)

    def test_empty_catalog_roundtrip(self, tmp_path):
        path = str(tmp_path / "empty.dat")
        write_halo_catalog(path, HaloCatalog(1.0, []))
        assert len(read_halo_catalog(path)) == 0


class TestGalaxyCatalog:
    def galaxy(self, gid, stellar, bulge=0.0):
        return Galaxy(galaxy_id=gid, halo_id=gid, stellar_mass=stellar,
                      cold_gas=0.01, hot_gas=0.02, bulge_mass=bulge,
                      sfr=0.001, position=np.array([0.5, 0.5, 0.5]))

    def test_totals(self):
        cat = GalaxyCatalog(1.0, [self.galaxy(0, 0.1), self.galaxy(1, 0.2)])
        assert cat.total_stellar_mass() == pytest.approx(0.3)
        assert len(cat) == 2

    def test_morphology_accessors(self):
        g = self.galaxy(0, 0.4, bulge=0.1)
        assert g.bulge_fraction == pytest.approx(0.25)

    def test_zero_mass_bulge_fraction(self):
        assert self.galaxy(0, 0.0).bulge_fraction == 0.0

    def test_empty_catalog(self):
        assert GalaxyCatalog(1.0, []).total_stellar_mass() == 0.0

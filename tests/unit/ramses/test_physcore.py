"""Compiled physics kernels vs their numpy mirrors.

The `_physcore.c` contract is *bit* compatibility, not closeness: every
kernel (CIC scatter/gather, leapfrog kick/drift, FoF) must produce
``np.array_equal`` outputs against the pure-numpy mirror, and the
bincount scatter mirror must itself stay bit-identical to the historical
8x ``np.add.at`` implementation.  Edge cases (empty sets, particles
exactly on cell boundaries and at ``1 - eps``, mixed-mass zoom sets)
run under *both* implementations via the ``impl`` fixture (conftest); the
bit-compat tests skip on boxes without a C toolchain — in CI the C
matrix leg asserts the compiled kernels actually loaded.
"""

import numpy as np
import pytest

import repro.galics.halomaker as halomaker
import repro.ramses.integrator as integrator
import repro.ramses.mesh as mesh
from repro.galics import friends_of_friends
from repro.galics.halomaker import _canonical_labels
from repro.grafic import make_single_level_ic
from repro.ramses import (
    EDS,
    GravitySolver,
    Leapfrog,
    LayzerIrvineMonitor,
    ParticleSet,
    cic_deposit,
    cic_interpolate,
    cic_weights,
)
from repro.ramses.physcore import phys_c

needs_c = pytest.mark.skipif(phys_c is None,
                             reason="no C toolchain / REPRO_PURE_PY=1")

def edge_positions(n):
    """Positions probing every CIC edge case on an n-grid."""
    eps = np.finfo(np.float64).eps
    pts = [
        [0.0, 0.0, 0.0],                          # box corner
        [0.5 / n, 0.5 / n, 0.5 / n],              # first cell centre
        [1.0 / n, 2.0 / n, 3.0 / n],              # exactly on cell boundaries
        [0.5, 0.5, 0.5],
        [1.0 - eps, 1.0 - eps, 1.0 - eps],        # x = 1 - eps wraps to 0
        [1.0 - 1.0 / n, 0.5, 1.0 - 0.5 / n],
        [0.5 - 0.5 / n, 0.5 + 0.5 / n, 0.25],
    ]
    return np.array(pts)


def legacy_add_at_deposit(x, mass, n):
    """The pre-bincount implementation: 8 ``np.add.at`` scatter passes."""
    i0, frac = cic_weights(x, n)
    grid = np.zeros((n, n, n))
    for dx in (0, 1):
        wx = (1.0 - frac[:, 0]) if dx == 0 else frac[:, 0]
        ix = (i0[:, 0] + dx) % n
        for dy in (0, 1):
            wy = (1.0 - frac[:, 1]) if dy == 0 else frac[:, 1]
            iy = (i0[:, 1] + dy) % n
            for dz in (0, 1):
                wz = (1.0 - frac[:, 2]) if dz == 0 else frac[:, 2]
                iz = (i0[:, 2] + dz) % n
                np.add.at(grid, (ix, iy, iz), mass * wx * wy * wz)
    return grid


def seeded_cloud(npart=4000, seed=11, mixed=False):
    rng = np.random.default_rng(seed)
    x = np.vstack([rng.random((npart - 7, 3)), edge_positions(8)])
    if mixed:
        # zoom-style mass mix: 8x refined mass in a corner of the box
        mass = np.where(x[:, 0] < 0.3, 1.0, 8.0) / npart
    else:
        mass = rng.random(npart) / npart
    return x, mass


class TestBincountMirror:
    """Satellite: the numpy scatter mirror vs the old add.at passes."""

    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_bit_identical_to_legacy(self, n):
        x, mass = seeded_cloud(seed=n)
        i0, frac = cic_weights(x, n)
        got = mesh._deposit_py(i0, frac, mass, n)
        assert np.array_equal(got, legacy_add_at_deposit(x, mass, n))

    def test_mixed_mass_bit_identical_to_legacy(self):
        x, mass = seeded_cloud(seed=3, mixed=True)
        i0, frac = cic_weights(x, 8)
        got = mesh._deposit_py(i0, frac, mass, 8)
        assert np.array_equal(got, legacy_add_at_deposit(x, mass, 8))


@needs_c
class TestBitCompat:
    """C kernels vs numpy mirrors: exact equality on seeded inputs."""

    @pytest.mark.parametrize("n", [4, 8, 32])
    @pytest.mark.parametrize("mixed", [False, True])
    def test_deposit(self, n, mixed):
        x, mass = seeded_cloud(seed=n, mixed=mixed)
        i0, frac = cic_weights(x, n)
        assert np.array_equal(cic_deposit(x, mass, n),
                              mesh._deposit_py(i0, frac, mass, n))

    @pytest.mark.parametrize("ncomp", [None, 3])
    def test_gather(self, ncomp):
        n = 8
        x, _ = seeded_cloud(seed=5)
        rng = np.random.default_rng(6)
        shape = (n, n, n) if ncomp is None else (n, n, n, ncomp)
        field = rng.standard_normal(shape)
        i0, frac = cic_weights(x, n)
        assert np.array_equal(
            cic_interpolate(field, x),
            mesh._interpolate_py(field, i0, frac, n, ncomp is not None))

    def test_kick_drift(self):
        rng = np.random.default_rng(9)
        n = 1000
        x = rng.random((n, 3))
        p = 5.0 * rng.standard_normal((n, 3))
        acc = rng.standard_normal((n, 3))
        coef = 0.0173
        p_c = p.copy()
        phys_c.kick(p_c, acc, coef, p_c.size)
        assert np.array_equal(p_c, p + acc * coef)
        # drift far enough that positions wrap both ways
        dx = p * coef
        x_c = x.copy()
        maxd = phys_c.drift(x_c, p, coef, x_c.size)
        assert np.array_equal(x_c, np.mod(x + dx, 1.0))
        assert maxd == float(np.abs(dx).max())
        assert np.all(x_c >= 0.0) and np.all(x_c < 1.0)

    @pytest.mark.parametrize("ll", [0.004, 0.02, 0.1])
    def test_fof(self, ll):
        rng = np.random.default_rng(21)
        x = rng.random((3000, 3))
        labels_c = friends_of_friends(x, ll)
        saved = halomaker.phys_c
        halomaker.phys_c = None
        try:
            labels_py = friends_of_friends(x, ll)
        finally:
            halomaker.phys_c = saved
        assert np.array_equal(labels_c, labels_py)

    def test_leapfrog_step_bit_identical(self):
        """A full KDK step agrees between implementations, in place."""
        ic = make_single_level_ic(16, 50.0, EDS, a_start=0.05, seed=2)
        solver = GravitySolver(EDS, 16)
        parts_c = ic.particles.copy()
        parts_py = ic.particles.copy()
        Leapfrog(EDS, solver).step(parts_c, 0.05, 0.06)
        saved = (mesh.phys_c, integrator.phys_c)
        mesh.phys_c = integrator.phys_c = None
        try:
            Leapfrog(EDS, solver).step(parts_py, 0.05, 0.06)
        finally:
            mesh.phys_c, integrator.phys_c = saved
        assert np.array_equal(parts_c.x, parts_py.x)
        assert np.array_equal(parts_c.p, parts_py.p)


class TestKernelEdgeCases:
    """Edge cases under both implementations (via the ``impl`` fixture)."""

    def test_empty_particles(self, impl):
        grid = cic_deposit(np.empty((0, 3)), np.empty(0), 4)
        assert grid.shape == (4, 4, 4) and grid.sum() == 0
        out = cic_interpolate(np.ones((4, 4, 4)), np.empty((0, 3)))
        assert out.shape == (0,)
        vout = cic_interpolate(np.ones((4, 4, 4, 3)), np.empty((0, 3)))
        assert vout.shape == (0, 3)
        assert friends_of_friends(np.empty((0, 3)), 0.1).shape == (0,)
        parts = ParticleSet.empty()
        lf = Leapfrog(EDS, GravitySolver(EDS, 4))
        assert lf.drift(parts, 0.5, 0.01) == 0.0

    def test_boundary_positions_conserve_mass(self, impl):
        n = 8
        x = edge_positions(n)
        mass = np.arange(1.0, len(x) + 1.0)
        grid = cic_deposit(x, mass, n)
        assert grid.sum() == pytest.approx(mass.sum(), rel=1e-14)
        # a particle exactly on a cell boundary splits between 8 cells
        xb = np.array([[1.0 / n, 2.0 / n, 3.0 / n]])
        gb = cic_deposit(xb, np.array([1.0]), n)
        assert np.count_nonzero(gb) == 8
        assert np.allclose(gb[gb > 0], 0.125)

    def test_one_minus_eps_wraps_cleanly(self, impl):
        eps = np.finfo(np.float64).eps
        x = np.array([[1.0 - eps, 0.5, 0.5]])
        grid = cic_deposit(x, np.array([1.0]), 8)
        assert grid.sum() == pytest.approx(1.0, rel=1e-14)
        # the deposit straddles the seam: cells 7 and 0 in x
        assert grid[7, 4, 4] > 0 and grid[0, 4, 4] > 0

    def test_mixed_mass_adjointness(self, impl):
        """sum_p m_p f(x_p) == sum_c f_c rho_c for a zoom-style mass mix."""
        rng = np.random.default_rng(17)
        n = 8
        x, mass = seeded_cloud(npart=500, seed=17, mixed=True)
        field = rng.standard_normal((n, n, n))
        lhs = np.sum(mass * cic_interpolate(field, x))
        rhs = np.sum(field * cic_deposit(x, mass, n))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_precomputed_weights_match_implicit(self, impl):
        x, mass = seeded_cloud(npart=300, seed=23)
        n = 8
        w = cic_weights(x, n)
        assert np.array_equal(cic_deposit(x, mass, n, weights=w),
                              cic_deposit(x, mass, n))
        field = np.random.default_rng(1).random((n, n, n, 3))
        assert np.array_equal(cic_interpolate(field, x, weights=w),
                              cic_interpolate(field, x))

    def test_drift_wraps_into_unit_box(self, impl):
        parts = ParticleSet.uniform_lattice(4)
        parts.p = 80.0 * np.random.default_rng(4).standard_normal(parts.p.shape)
        lf = Leapfrog(EDS, GravitySolver(EDS, 4))
        maxd = lf.drift(parts, 0.5, 0.05)
        assert maxd > 1.0          # many particles crossed the box
        parts.validate()           # in [0, 1), finite


class TestFoFDeterminism:
    def test_labels_are_first_occurrence_canonical(self, impl):
        rng = np.random.default_rng(31)
        x = rng.random((800, 3))
        labels = friends_of_friends(x, 0.03)
        seen = {}
        for lab in labels:
            if lab not in seen:
                assert lab == len(seen)   # new labels appear in order
                seen[lab] = True

    def test_label_permutation_determinism(self, impl):
        """Permuting the particles permutes the partition, not the groups."""
        rng = np.random.default_rng(33)
        x = rng.random((600, 3))
        labels = friends_of_friends(x, 0.04)
        perm = rng.permutation(len(x))
        labels_perm = friends_of_friends(x[perm], 0.04)
        # same partition: canonicalised labels of the permuted run match
        # the canonicalised permutation of the original labels
        assert np.array_equal(labels_perm, _canonical_labels(labels[perm]))

    def test_canonical_labels_helper(self):
        got = _canonical_labels(np.array([7, 7, 2, 9, 2, 7]))
        assert np.array_equal(got, [0, 0, 1, 2, 1, 0])


class TestEnergyDriftPin:
    def test_seeded_32cubed_energy_drift(self, impl):
        """Layzer-Irvine drift pin on a seeded 32^3 run (both impls)."""
        ic = make_single_level_ic(32, 100.0, EDS, a_start=0.05, seed=42)
        solver = GravitySolver(EDS, 32)
        lf = Leapfrog(EDS, solver)
        monitor = LayzerIrvineMonitor(solver)
        parts = ic.particles.copy()
        monitor.sample(0.05, parts)
        schedule = EDS.aexp_schedule(0.05, 0.4, 12)
        lf.run(parts, schedule, callback=monitor.sample)
        # linear-regime evolution: a few percent is healthy, anything
        # beyond ~10% means a kernel broke the integrator
        assert monitor.relative_drift() < 0.1
        parts.validate()

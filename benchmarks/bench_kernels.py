"""Micro-benchmarks of the numerical kernels (throughput tracking).

Not paper figures — these guard the REAL-mode hot paths (CIC scatter and
gather, FFT Poisson, the full PM force evaluation, two KDK steps, Hilbert
keys, FoF and the halo catalog build) against
performance regressions, per the hpc-parallel guide's "no optimization
without measuring".

Each compiled-kernel shape also times the pure-numpy mirror in-process
(with ``phys_c`` temporarily nulled) and records the ratio in
``extra_info`` (``speedup_vs_pure_py``), so the exported
``BENCH_kernels.json`` documents what the C kernels buy on this box.
When the compiled kernels are loaded the CIC gather and FoF shapes
assert the >= 3x floor; the CIC scatter is recorded without a floor —
its accumulation order is pinned bit-identical to the numpy mirror
(corner-major, eight ordered passes), which caps how far it can beat a
mirror paying the same memory-ordered scatter.

``REPRO_BENCH_QUICK=1`` shrinks the shapes so CI can run the module in
seconds; the committed ``BENCH_kernels.json`` baseline is a quick-mode
recording (see ``benchmarks/export.py``) so the regression gate compares
like with like.
"""

import os
import time

import numpy as np
import pytest

import repro.galics.halomaker as halomaker
import repro.ramses.mesh as mesh
from repro.galics import find_halos, friends_of_friends
from repro.ramses import (
    EDS,
    GravitySolver,
    Leapfrog,
    ParticleSet,
    cic_deposit,
    cic_interpolate,
    hilbert_encode,
    poisson_solve,
)
from repro.ramses.physcore import PHYS_IMPL

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))
N_GRID = 32 if QUICK else 64
N_PART = (64 ** 3 // 16) if QUICK else (64 ** 3 // 4)   # 16k / 65k particles
N_FOF = 5_000 if QUICK else 20_000
N_HILBERT = 20_000 if QUICK else 100_000
N_ZOOM = 5_000 if QUICK else 40_000      # zoom_real holds ~43k particles

#: Floor asserted on the gather and FoF shapes when the C kernels loaded.
SPEEDUP_FLOOR = 3.0


@pytest.fixture(scope="module")
def cloud():
    rng = np.random.default_rng(0)
    x = rng.random((N_PART, 3))
    mass = np.full(len(x), 1.0 / len(x))
    return x, mass


def _at_rest(x, mass):
    n = len(x)
    return ParticleSet(x=x, p=np.zeros((n, 3)), mass=mass,
                       ids=np.arange(n), level=np.zeros(n))


@pytest.fixture(scope="module")
def zoom_cloud():
    """A zoom-like set: a coarse background plus a fine species of 1/8 the
    mass filling a 0.3-wide region, half of it smooth and half in clumps,
    as ``make_multi_level_ic`` evolves to (most FoF groups are singletons)."""
    rng = np.random.default_rng(5)
    n_coarse = N_ZOOM // 4
    n_smooth = (N_ZOOM - n_coarse) // 2
    n_clumped = N_ZOOM - n_coarse - n_smooth
    blobs = rng.random((40, 3)) * 0.3 + 0.35
    fine = np.vstack([
        rng.random((n_smooth, 3)) * 0.3 + 0.35,
        blobs[rng.integers(0, len(blobs), n_clumped)]
        + 0.004 * rng.standard_normal((n_clumped, 3))])
    x = np.mod(np.vstack([rng.random((n_coarse, 3)), fine]), 1.0)
    mass = np.concatenate([np.full(n_coarse, 8.0),
                           np.full(N_ZOOM - n_coarse, 1.0)])
    return _at_rest(x, mass / mass.sum())


def _pure_py_min(fn, repeats=3):
    """Best-of wall time of ``fn`` with every compiled kernel disabled."""
    saved = (mesh.phys_c, halomaker.phys_c)
    mesh.phys_c = halomaker.phys_c = None
    try:
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
    finally:
        mesh.phys_c, halomaker.phys_c = saved
    return best


def _record_speedup(benchmark, pure_fn, assert_floor=False):
    pure_min = _pure_py_min(pure_fn)
    speedup = pure_min / benchmark.stats.stats.min
    benchmark.extra_info["phys_impl"] = PHYS_IMPL
    benchmark.extra_info["pure_py_min"] = pure_min
    benchmark.extra_info["speedup_vs_pure_py"] = round(speedup, 3)
    if assert_floor and PHYS_IMPL == "c":
        assert speedup >= SPEEDUP_FLOOR, (
            f"compiled kernel only {speedup:.2f}x over the numpy mirror "
            f"(floor {SPEEDUP_FLOOR}x)")


def test_bench_cic_deposit(benchmark, cloud):
    x, mass = cloud
    grid = benchmark(cic_deposit, x, mass, N_GRID)
    assert grid.sum() == pytest.approx(1.0)
    _record_speedup(benchmark, lambda: cic_deposit(x, mass, N_GRID))


def test_bench_cic_gather(benchmark, cloud):
    x, _ = cloud
    rng = np.random.default_rng(4)
    field = rng.standard_normal((N_GRID, N_GRID, N_GRID, 3))
    out = benchmark(cic_interpolate, field, x)
    assert out.shape == (len(x), 3)
    _record_speedup(benchmark, lambda: cic_interpolate(field, x),
                    assert_floor=True)


def test_bench_poisson_solve(benchmark):
    rng = np.random.default_rng(1)
    src = rng.standard_normal((N_GRID, N_GRID, N_GRID))
    phi = benchmark(poisson_solve, src)
    assert np.all(np.isfinite(phi))


def test_bench_full_force_evaluation(benchmark, cloud):
    x, mass = cloud
    solver = GravitySolver(EDS, N_GRID)
    result = benchmark(solver.accelerations, x, mass, 0.5)
    assert result.acc.shape == (len(x), 3)
    _record_speedup(benchmark, lambda: solver.accelerations(x, mass, 0.5))


def test_bench_kdk_step(benchmark, cloud):
    """Two consecutive steps: three force evaluations, not four, because
    the second step's opening kick reuses the first's closing one."""
    x, mass = cloud
    solver = GravitySolver(EDS, N_GRID)
    start = _at_rest(x, mass)

    def two_steps():
        parts = start.copy()
        leap = Leapfrog(EDS, solver)
        leap.step(parts, 0.05, 0.06)
        leap.step(parts, 0.06, 0.07)
        return parts

    before = solver.force_evaluations
    two_steps().validate()
    assert solver.force_evaluations - before == 3
    benchmark(two_steps)


def test_bench_find_halos(benchmark, zoom_cloud):
    """Catalog build on a set whose groups are mostly singletons."""
    catalog = benchmark(find_halos, zoom_cloud, 1.0, min_particles=8)
    assert len(catalog) > 0


def test_bench_hilbert_encode(benchmark):
    rng = np.random.default_rng(2)
    n = 1 << 10
    ix = rng.integers(0, n, N_HILBERT)
    iy = rng.integers(0, n, N_HILBERT)
    iz = rng.integers(0, n, N_HILBERT)
    keys = benchmark(hilbert_encode, ix, iy, iz, 10)
    assert len(np.unique(keys)) > 0.9 * N_HILBERT


def test_bench_fof(benchmark):
    rng = np.random.default_rng(3)
    x = rng.random((N_FOF, 3))
    labels = benchmark(friends_of_friends, x, 0.01)
    assert len(labels) == N_FOF
    _record_speedup(benchmark, lambda: friends_of_friends(x, 0.01),
                    assert_floor=True)

"""Brute-force oracles for the REAL pipeline's bookkeeping fast paths.

Two pieces of the zoom pipeline avoid work that the obvious
implementation does: ``find_halos`` slices out only the groups that reach
``min_particles``; ``decompose``/``rank_of_positions`` skip the Hilbert
keys for one rank.  Each is checked here against the obvious
implementation, kept in this file, on arbitrary inputs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.galics.halomaker as halomaker
from repro.galics import HaloCatalog, find_halos, friends_of_friends
from repro.galics.catalogs import Halo
from repro.galics.halomaker import periodic_center
from repro.ramses import ParticleSet, decompose, positions_to_keys
from repro.ramses.domain import _interior_cuts
from repro.ramses.physcore import phys_c

seeds = st.integers(0, 2 ** 31)


# -- find_halos vs per-label grouping -----------------------------------------------

IMPLS = ["python"] + (["c"] if phys_c is not None else [])
LINK = 0.01         # linking length used below: b=0.2 x mean separation 0.05


def naive_catalog(parts, aexp, min_particles):
    """One pass per label over all particles; no sorting tricks."""
    labels = friends_of_friends(parts.x, LINK)
    halos = []
    for label in np.unique(labels):
        members = np.flatnonzero(labels == label)
        if len(members) < min_particles:
            continue
        sub_x, sub_m = parts.x[members], parts.mass[members]
        center = periodic_center(sub_x, weights=sub_m)
        d = np.abs(sub_x - center)
        d = np.minimum(d, 1.0 - d)
        halos.append(Halo(
            halo_id=len(halos), center=center, mass=float(sub_m.sum()),
            velocity=np.average(parts.p[members] / aexp, axis=0, weights=sub_m),
            n_particles=len(members),
            radius=float(np.sqrt((d ** 2).sum(axis=1)).max()),
            member_ids=np.sort(parts.ids[members])))
    return HaloCatalog(aexp=aexp, halos=halos)


def clumps(sizes, seed):
    """Clumps of the given sizes, each far tighter than LINK, on lattice
    sites 0.125 apart (so no two clumps link), particles shuffled."""
    rng = np.random.default_rng(seed)
    sites = rng.permutation(8 ** 3)[:len(sizes)]
    centers = np.stack(np.unravel_index(sites, (8, 8, 8)), axis=1) / 8.0
    x = np.vstack([c + 1e-3 * rng.random((k, 3)) for c, k in zip(centers, sizes)])
    order = rng.permutation(len(x))
    n = len(x)
    return ParticleSet(x=np.mod(x[order], 1.0), p=rng.standard_normal((n, 3)),
                       mass=rng.uniform(0.5, 2.0, n) / n,
                       ids=rng.permutation(n) + 100, level=np.zeros(n))


@pytest.mark.parametrize("impl", IMPLS)
@given(min_particles=st.integers(2, 9),
       extra_sizes=st.lists(st.integers(1, 12), max_size=40), seed=seeds)
@settings(max_examples=40, deadline=None)
def test_find_halos_equals_naive_grouping(impl, min_particles, extra_sizes, seed):
    # always a group exactly at the threshold and one just below it
    sizes = [min_particles, min_particles - 1] + extra_sizes
    parts = clumps(sizes, seed)
    saved = halomaker.phys_c
    if impl == "python":
        halomaker.phys_c = None
    try:
        got = find_halos(parts, 0.5, min_particles=min_particles,
                         mean_separation=LINK / 0.2)
        want = naive_catalog(parts, 0.5, min_particles)
    finally:
        halomaker.phys_c = saved
    assert sorted(h.n_particles for h in got) == sorted(
        k for k in sizes if k >= min_particles)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.halo_id, g.n_particles, g.mass, g.radius) == (
            w.halo_id, w.n_particles, w.mass, w.radius)
        assert np.array_equal(g.member_ids, w.member_ids)
        assert np.array_equal(g.center, w.center)
        assert np.array_equal(g.velocity, w.velocity)


@pytest.mark.parametrize("impl", IMPLS)
def test_find_halos_all_singletons(impl, monkeypatch):
    if impl == "python":
        monkeypatch.setattr(halomaker, "phys_c", None)
    parts = clumps([1] * 60, seed=5)
    assert len(find_halos(parts, 1.0, min_particles=2,
                          mean_separation=LINK / 0.2)) == 0


# -- decompose(x, 1) vs the general cut ------------------------------------------------

@given(seed=seeds, n=st.integers(0, 300), level=st.integers(1, 9))
@settings(max_examples=50, deadline=None)
def test_single_rank_decomposition_equals_general_path(seed, n, level):
    rng = np.random.default_rng(seed)
    x = rng.random((n, 3))
    dd = decompose(x, 1, level=level)
    # the general cut, asked for one rank, has no interior boundary ...
    keys = np.sort(positions_to_keys(x, level))
    assert len(_interior_cuts(keys, 1, level)) == 0
    assert dd.bound_key.tolist() == [0, 8 ** level]
    # ... and the key search puts every particle on rank 0
    general = dd.rank_of_keys(positions_to_keys(x, level))
    ranks = dd.rank_of_positions(x)
    assert np.array_equal(ranks, general)
    assert ranks.dtype == general.dtype

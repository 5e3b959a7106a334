"""Property-based tests for the FoF finder and merger trees."""

import networkx as nx
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.galics import (
    Halo,
    HaloCatalog,
    build_merger_tree,
    find_halos,
    friends_of_friends,
    match_halos,
)
from repro.ramses import ParticleSet


@st.composite
def point_sets(draw):
    seed = draw(st.integers(0, 2 ** 31))
    n = draw(st.integers(2, 300))
    rng = np.random.default_rng(seed)
    return rng.random((n, 3))


@given(point_sets(), st.floats(min_value=0.005, max_value=0.2))
@settings(max_examples=50, deadline=None)
def test_fof_labels_partition(x, b):
    labels = friends_of_friends(x, b)
    assert labels.shape == (len(x),)
    # labels form a partition: every particle exactly one group
    assert labels.min() >= 0


@given(point_sets())
@settings(max_examples=30, deadline=None)
def test_fof_monotone_in_linking_length(x):
    """Larger linking length never increases the number of groups."""
    n_small = len(np.unique(friends_of_friends(x, 0.02)))
    n_large = len(np.unique(friends_of_friends(x, 0.08)))
    assert n_large <= n_small


@given(point_sets(), st.floats(min_value=0.01, max_value=0.1))
@settings(max_examples=30, deadline=None)
def test_fof_symmetric_under_translation(x, b):
    """Periodic FoF is translation-invariant: group sizes unchanged."""
    labels0 = friends_of_friends(x, b)
    shifted = np.mod(x + np.array([0.37, 0.81, 0.13]), 1.0)
    labels1 = friends_of_friends(shifted, b)
    sizes0 = sorted(np.bincount(labels0))
    sizes1 = sorted(np.bincount(labels1))
    assert sizes0 == sizes1


@given(point_sets())
@settings(max_examples=30, deadline=None)
def test_halo_members_disjoint_and_mass_bounded(x):
    n = len(x)
    parts = ParticleSet(x, np.zeros_like(x), np.full(n, 1.0 / n),
                        np.arange(n, dtype=np.int64),
                        np.zeros(n, dtype=np.int16))
    catalog = find_halos(parts, aexp=1.0, min_particles=2)
    seen = set()
    total = 0.0
    for halo in catalog:
        ids = set(halo.member_ids.tolist())
        assert not (ids & seen)      # membership is disjoint
        seen |= ids
        total += halo.mass
    assert total <= 1.0 + 1e-9       # halos contain at most all the mass


@st.composite
def halo_histories(draw):
    """Random but structurally valid 3-snapshot halo histories."""
    seed = draw(st.integers(0, 2 ** 31))
    rng = np.random.default_rng(seed)
    n_particles = 200
    catalogs = []
    for snap, aexp in enumerate((0.3, 0.6, 1.0)):
        n_halos = int(rng.integers(1, 5))
        # random disjoint member sets
        perm = rng.permutation(n_particles)
        cuts = np.sort(rng.choice(np.arange(10, n_particles - 10),
                                  size=n_halos - 1, replace=False)) \
            if n_halos > 1 else np.array([], dtype=int)
        groups = np.split(perm, cuts)
        halos = []
        for hid, members in enumerate(groups):
            if len(members) == 0:
                continue
            halos.append(Halo(
                halo_id=hid, center=rng.random(3),
                mass=len(members) / n_particles,
                velocity=np.zeros(3), n_particles=len(members),
                radius=0.05, member_ids=np.sort(members.astype(np.int64))))
        catalogs.append(HaloCatalog(aexp, halos))
    return catalogs


@given(halo_histories())
@settings(max_examples=40, deadline=None)
def test_merger_tree_structure_invariants(catalogs):
    tree = build_merger_tree(catalogs, min_shared_fraction=0.0)
    graph = tree.graph
    assert nx.is_directed_acyclic_graph(graph)
    for node in graph.nodes:
        # time flows forward along edges, one descendant max
        assert graph.out_degree(node) <= 1
        for succ in graph.successors(node):
            assert succ.snapshot == node.snapshot + 1


@given(halo_histories())
@settings(max_examples=40, deadline=None)
def test_match_fractions_bounded(catalogs):
    for earlier, later in zip(catalogs[:-1], catalogs[1:]):
        for src, dst, frac in match_halos(earlier, later):
            assert 0.0 < frac <= 1.0 + 1e-12


@given(halo_histories())
@settings(max_examples=30, deadline=None)
def test_main_branch_terminates(catalogs):
    tree = build_merger_tree(catalogs)
    for root in tree.roots():
        branch = tree.main_branch(root)
        assert 1 <= len(branch) <= len(catalogs)
        snaps = [n.snapshot for n in branch]
        assert snaps == sorted(snaps, reverse=True)

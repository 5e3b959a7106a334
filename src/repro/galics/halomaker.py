"""HaloMaker: friends-of-friends halo finder.

§3: "HaloMaker detects dark matter halos present in RAMSES output files,
and creates a catalog of halos."  We implement the standard
friends-of-friends algorithm (Davis et al. 1985): particles closer than
``b`` times the mean interparticle separation belong to the same group.

The grouping runs on the compiled cell-grid + union-find kernel of
``_physcore.c`` when a C toolchain is available; the numpy mirror uses
scipy's periodic cKDTree and a sparse-graph connected-components pass —
no Python-level loops over particles, per the hpc-parallel guide.  Both
label in first-occurrence order (the group containing the lowest
particle index gets label 0), so the two implementations agree exactly,
not just up to permutation.  Halo centres are periodic-aware (circular
mean); groups below ``min_particles`` are discarded as noise.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..ramses.particles import ParticleSet
from ..ramses.physcore import phys_c
from .catalogs import Halo, HaloCatalog

__all__ = ["friends_of_friends", "find_halos", "periodic_center"]


def _canonical_labels(labels: np.ndarray) -> np.ndarray:
    """Relabel groups in first-occurrence order (deterministic under any
    permutation of the input labelling)."""
    _, first, inverse = np.unique(labels, return_index=True,
                                  return_inverse=True)
    rank = np.argsort(np.argsort(first, kind="stable"), kind="stable")
    return rank[inverse].astype(np.int64)


def periodic_center(x: np.ndarray, weights: Optional[np.ndarray] = None) -> np.ndarray:
    """Weighted mean of points on the periodic unit torus (circular mean)."""
    x = np.asarray(x, dtype=np.float64)
    if len(x) == 0:
        raise ValueError("empty point set")
    w = np.ones(len(x)) if weights is None else np.asarray(weights, dtype=float)
    ang = 2.0 * np.pi * x
    s = np.average(np.sin(ang), axis=0, weights=w)
    c = np.average(np.cos(ang), axis=0, weights=w)
    return np.mod(np.arctan2(s, c) / (2.0 * np.pi), 1.0)


def friends_of_friends(x: np.ndarray, linking_length: float) -> np.ndarray:
    """Group labels (0..n_groups-1) for periodic FoF at ``linking_length``.

    ``linking_length`` is in box units.  Isolated particles get their own
    singleton label; the labelling is otherwise arbitrary but deterministic.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != 3:
        raise ValueError("x must be (N, 3)")
    if not 0 < linking_length < 0.5:
        raise ValueError("linking_length must be in (0, 0.5) box units")
    n = len(x)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    xm = np.ascontiguousarray(np.mod(x, 1.0))
    if phys_c is not None:
        labels = np.empty(n, dtype=np.int64)
        phys_c.fof(xm, float(linking_length), labels, n)
        return labels
    from scipy import sparse
    from scipy.spatial import cKDTree
    tree = cKDTree(xm, boxsize=1.0)
    pairs = tree.query_pairs(linking_length, output_type="ndarray")
    if len(pairs) == 0:
        return np.arange(n, dtype=np.int64)
    graph = sparse.coo_matrix(
        (np.ones(len(pairs), dtype=np.int8), (pairs[:, 0], pairs[:, 1])),
        shape=(n, n))
    _n_comp, labels = sparse.csgraph.connected_components(graph, directed=False)
    return _canonical_labels(labels)


def find_halos(parts: ParticleSet, aexp: float,
               min_particles: int = 10,
               mean_separation: Optional[float] = None) -> HaloCatalog:
    """Run FoF and build the halo catalog.

    The linking length is ``0.2 * mean_separation`` (the canonical
    dimensionless linking parameter ``b = 0.2``), where the mean
    separation defaults to ``n_effective^{-1/3}`` with ``n_effective``
    derived from the *smallest* particle mass (so zoom runs link at the
    refined resolution).
    """
    if len(parts) == 0:
        return HaloCatalog(aexp=aexp, halos=[])
    if min_particles < 2:
        raise ValueError("min_particles must be >= 2")
    if mean_separation is None:
        n_eff = parts.total_mass / parts.mass.min()
        mean_separation = n_eff ** (-1.0 / 3.0)
    labels = friends_of_friends(parts.x, 0.2 * mean_separation)

    order = np.argsort(labels, kind="stable")
    sorted_labels = labels[order]
    # Groups are runs of equal labels in ``order``.  Nearly all are
    # singletons, so size them from the run boundaries and slice out only
    # those that make a halo.
    starts = np.concatenate(([0], np.flatnonzero(np.diff(sorted_labels)) + 1))
    ends = np.append(starts[1:], len(order))

    halos = []
    halo_id = 0
    for g in np.flatnonzero(ends - starts >= min_particles):
        members = order[starts[g]:ends[g]]
        sub_x = parts.x[members]
        sub_m = parts.mass[members]
        center = periodic_center(sub_x, weights=sub_m)
        d = np.abs(sub_x - center)
        d = np.minimum(d, 1.0 - d)
        radius = float(np.sqrt((d ** 2).sum(axis=1)).max())
        vel = np.average(parts.p[members] / aexp, axis=0, weights=sub_m)
        halos.append(Halo(
            halo_id=halo_id, center=center, mass=float(sub_m.sum()),
            velocity=vel, n_particles=len(members), radius=radius,
            member_ids=np.sort(parts.ids[members])))
        halo_id += 1
    return HaloCatalog(aexp=aexp, halos=halos)

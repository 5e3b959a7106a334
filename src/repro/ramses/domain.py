"""Domain decomposition along the Peano-Hilbert curve.

Implements RAMSES' partitioning strategy: sort cells (here: particles by
their cell) along the Hilbert curve and cut the curve into ``ncpu``
contiguous segments of equal particle count.  The decomposition is
described by ``ncpu + 1`` key boundaries, exactly like RAMSES'
``bound_key`` array, so a particle's owner is a ``searchsorted`` away.

The module also quantifies what the decomposition buys: surface-to-volume
style communication metrics used by the parallel harness's cost model and
compared against a naive slab decomposition in the ablation benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .hilbert import check_level, positions_to_keys

__all__ = ["DomainDecomposition", "decompose", "slab_ranks", "exchange_matrix"]


@dataclass
class DomainDecomposition:
    """A Hilbert-curve decomposition of the unit box over ``ncpu`` ranks."""

    ncpu: int
    level: int
    bound_key: np.ndarray      # (ncpu + 1,) int64, ascending

    def __post_init__(self):
        if self.ncpu < 1:
            raise ValueError("ncpu must be >= 1")
        if len(self.bound_key) != self.ncpu + 1:
            raise ValueError("bound_key must have ncpu + 1 entries")
        if np.any(np.diff(self.bound_key) < 0):
            raise ValueError("bound_key must be non-decreasing")

    def rank_of_keys(self, keys: np.ndarray) -> np.ndarray:
        """Owning rank of each Hilbert key."""
        ranks = np.searchsorted(self.bound_key, keys, side="right") - 1
        return np.clip(ranks, 0, self.ncpu - 1)

    def rank_of_positions(self, x: np.ndarray) -> np.ndarray:
        if self.ncpu == 1:
            # One rank owns the whole curve: no keys to compute.
            return np.zeros(len(_as_positions(x)), dtype=np.int64)
        return self.rank_of_keys(positions_to_keys(x, self.level))

    def counts(self, x: np.ndarray) -> np.ndarray:
        """Particles per rank."""
        return np.bincount(self.rank_of_positions(x), minlength=self.ncpu)


def _as_positions(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != 3:
        raise ValueError("x must be (N, 3)")
    return x


def decompose(x: np.ndarray, ncpu: int, level: int = 7) -> DomainDecomposition:
    """Equal-count cut of the Hilbert curve for the given particle set."""
    x = _as_positions(x)
    if ncpu < 1:
        raise ValueError("ncpu must be >= 1")
    check_level(level)
    # One rank has no interior cut, and needs no keys.
    sorted_keys = np.sort(positions_to_keys(x, level)) if ncpu > 1 else None
    return _cut(sorted_keys, ncpu, level)


def _cut(sorted_keys: Optional[np.ndarray], ncpu: int,
         level: int) -> DomainDecomposition:
    """The decomposition of particles whose keys, ascending, are
    ``sorted_keys`` (None for one rank, which needs none)."""
    bound = np.empty(ncpu + 1, dtype=np.int64)
    bound[0] = 0
    bound[ncpu] = np.int64(1) << np.int64(3 * level)
    if ncpu > 1:
        bound[1:ncpu] = _interior_cuts(sorted_keys, ncpu, level)
    return DomainDecomposition(ncpu=ncpu, level=level, bound_key=bound)


def _interior_cuts(sorted_keys: np.ndarray, ncpu: int,
                   level: int) -> np.ndarray:
    """The ``ncpu - 1`` keys at which the sorted curve is cut."""
    cum = np.arange(1.0, len(sorted_keys) + 1.0)     # particles up to each key
    total = float(len(sorted_keys))
    n_keys = np.int64(1) << np.int64(3 * level)
    cuts = np.empty(ncpu - 1, dtype=np.int64)
    for r in range(1, ncpu):
        target = total * r / ncpu
        idx = int(np.searchsorted(cum, target))
        if idx >= len(sorted_keys):
            cuts[r - 1] = n_keys
        else:
            # cut *after* the current key block to keep cells atomic
            cuts[r - 1] = sorted_keys[idx] + 1
    return np.maximum.accumulate(cuts)


def slab_ranks(x: np.ndarray, ncpu: int) -> np.ndarray:
    """Naive slab decomposition along x-axis (the ablation baseline)."""
    x = np.asarray(x, dtype=np.float64)
    return np.minimum((x[:, 0] * ncpu).astype(np.int64), ncpu - 1)


def exchange_matrix(ranks: np.ndarray, x: np.ndarray, ncpu: int,
                    level: int = 5) -> np.ndarray:
    """Communication proxy: ghost-cell traffic between ranks.

    Counts, for every pair of face-adjacent Hilbert cells owned by different
    ranks, the smaller of the two cell populations — an estimate of the
    boundary data rank pairs must exchange each step.  Returns an
    (ncpu, ncpu) symmetric matrix; its total is the locality figure of
    merit (lower is better).
    """
    n_side = 1 << level
    cells = np.clip((np.asarray(x) * n_side).astype(np.int64), 0, n_side - 1)
    flat = (cells[:, 0] * n_side + cells[:, 1]) * n_side + cells[:, 2]
    # per-cell owner = majority rank of its particles (cells are atomic in
    # both decompositions studied, so any particle's rank is the owner)
    order = np.argsort(flat, kind="stable")
    flat_sorted = flat[order]
    first = np.searchsorted(flat_sorted, np.arange(n_side ** 3))
    counts3 = np.bincount(flat, minlength=n_side ** 3)
    owner = np.full(n_side ** 3, -1, dtype=np.int64)
    occupied = counts3 > 0
    owner[occupied] = ranks[order][first[occupied]]

    owner3 = owner.reshape(n_side, n_side, n_side)
    counts3 = counts3.reshape(n_side, n_side, n_side)
    mat = np.zeros((ncpu, ncpu), dtype=np.int64)
    for axis in range(3):
        nb_owner = np.roll(owner3, -1, axis=axis)
        nb_counts = np.roll(counts3, -1, axis=axis)
        mask = (owner3 >= 0) & (nb_owner >= 0) & (owner3 != nb_owner)
        a = owner3[mask]
        b = nb_owner[mask]
        wgt = np.minimum(counts3[mask], nb_counts[mask])
        np.add.at(mat, (a, b), wgt)
        np.add.at(mat, (b, a), wgt)
    return mat

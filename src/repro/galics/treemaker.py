"""TreeMaker: merger trees from a time series of halo catalogs.

§3: "given the catalog of halos, TreeMaker builds a merger tree: it follows
the position, the mass, the velocity of the different particules present in
the halos through cosmic time."

Progenitor links are established by shared particle identifiers: halo P at
snapshot i is a progenitor of halo D at snapshot i+1 when they share
particles; the link weight is the shared-mass fraction of P.  The *main*
progenitor of D is the one contributing most mass.  The tree is a
:class:`networkx.DiGraph` (edges point forward in time), which tests check
is acyclic and respects mass bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .catalogs import Halo, HaloCatalog

__all__ = ["TreeNode", "MergerTree", "build_merger_tree", "match_halos"]


@dataclass(frozen=True)
class TreeNode:
    """Identifies one halo at one snapshot."""

    snapshot: int
    halo_id: int


@dataclass
class MergerTree:
    """The full merger forest plus convenient accessors."""

    graph: "networkx.DiGraph"
    catalogs: List[HaloCatalog]

    def halo(self, node: TreeNode) -> Halo:
        return self.catalogs[node.snapshot].by_id(node.halo_id)

    def progenitors(self, node: TreeNode) -> List[TreeNode]:
        return sorted(self.graph.predecessors(node),
                      key=lambda n: -self.graph[n][node]["shared_mass"])

    def descendant(self, node: TreeNode) -> Optional[TreeNode]:
        succ = list(self.graph.successors(node))
        if not succ:
            return None
        # a halo has at most one descendant: the one receiving most mass
        return max(succ, key=lambda n: self.graph[node][n]["shared_mass"])

    def main_progenitor(self, node: TreeNode) -> Optional[TreeNode]:
        progs = self.progenitors(node)
        return progs[0] if progs else None

    def main_branch(self, node: TreeNode) -> List[TreeNode]:
        """The main-progenitor branch, walked backwards in time."""
        branch = [node]
        current = node
        while True:
            prog = self.main_progenitor(current)
            if prog is None:
                break
            branch.append(prog)
            current = prog
        return branch

    def roots(self) -> List[TreeNode]:
        """Final-snapshot halos (tree roots in the astronomer convention)."""
        last = len(self.catalogs) - 1
        return [TreeNode(last, h.halo_id) for h in self.catalogs[last]]

    def n_mergers(self, node: TreeNode) -> int:
        """Mergers experienced along the whole history of ``node``."""
        total = 0
        stack = [node]
        seen = set()
        while stack:
            cur = stack.pop()
            if cur in seen:
                continue
            seen.add(cur)
            progs = self.progenitors(cur)
            if len(progs) > 1:
                total += len(progs) - 1
            stack.extend(progs)
        return total


def match_halos(earlier: HaloCatalog, later: HaloCatalog
                ) -> List[Tuple[int, int, float]]:
    """(earlier_id, later_id, shared_mass_fraction_of_earlier) links.

    Vectorized over particle ids: build id -> later-halo lookup once, then
    intersect each earlier halo's members against it.
    """
    if len(later) == 0 or len(earlier) == 0:
        return []
    later_ids = np.concatenate([h.member_ids for h in later])
    later_halo = np.concatenate([
        np.full(h.n_particles, h.halo_id, dtype=np.int64) for h in later])
    order = np.argsort(later_ids, kind="stable")
    later_ids = later_ids[order]
    later_halo = later_halo[order]

    links: List[Tuple[int, int, float]] = []
    for h in earlier:
        pos = np.searchsorted(later_ids, h.member_ids)
        pos = np.clip(pos, 0, len(later_ids) - 1)
        found = later_ids[pos] == h.member_ids
        if not found.any():
            continue
        dests = later_halo[pos[found]]
        counts = np.bincount(dests)
        for dest in np.flatnonzero(counts):
            links.append((h.halo_id, int(dest),
                          counts[dest] / h.n_particles))
    return links


def build_merger_tree(catalogs: Sequence[HaloCatalog],
                      min_shared_fraction: float = 0.05) -> MergerTree:
    """Link consecutive catalogs into a merger forest.

    Links transferring less than ``min_shared_fraction`` of the progenitor's
    particles are dropped (tidal-stripping noise).  Each halo keeps at most
    one outgoing edge — the descendant that received the most of its mass —
    so the graph is a forest of in-trees, which is what the SAM walks.
    """
    catalogs = list(catalogs)
    if len(catalogs) < 1:
        raise ValueError("need at least one catalog")
    aexps = [c.aexp for c in catalogs]
    if any(b <= a for a, b in zip(aexps[:-1], aexps[1:])):
        raise ValueError("catalogs must be ordered by increasing aexp")

    import networkx as nx
    graph = nx.DiGraph()
    for snap, cat in enumerate(catalogs):
        for h in cat:
            graph.add_node(TreeNode(snap, h.halo_id), mass=h.mass,
                           aexp=cat.aexp)
    for snap in range(len(catalogs) - 1):
        earlier, later = catalogs[snap], catalogs[snap + 1]
        best: Dict[int, Tuple[int, float]] = {}
        for src, dst, frac in match_halos(earlier, later):
            if frac < min_shared_fraction:
                continue
            prev = best.get(src)
            if prev is None or frac > prev[1]:
                best[src] = (dst, frac)
        for src, (dst, frac) in best.items():
            src_halo = earlier.by_id(src)
            graph.add_edge(TreeNode(snap, src), TreeNode(snap + 1, dst),
                           shared_mass=frac * src_halo.mass,
                           shared_fraction=frac)
    return MergerTree(graph=graph, catalogs=catalogs)

"""Unit tests for the merger-tree builder."""

import networkx as nx
import numpy as np
import pytest

from repro.galics import Halo, HaloCatalog, TreeNode, build_merger_tree, match_halos


def halo(hid, ids, mass=None):
    ids = np.asarray(ids, dtype=np.int64)
    return Halo(halo_id=hid, center=np.array([0.5, 0.5, 0.5]),
                mass=mass if mass is not None else len(ids) / 100.0,
                velocity=np.zeros(3), n_particles=len(ids),
                radius=0.01, member_ids=ids)


class TestMatchHalos:
    def test_full_overlap(self):
        earlier = HaloCatalog(0.5, [halo(0, range(10))])
        later = HaloCatalog(1.0, [halo(0, range(10))])
        links = match_halos(earlier, later)
        assert links == [(0, 0, 1.0)]

    def test_split_overlap(self):
        earlier = HaloCatalog(0.5, [halo(0, range(10))])
        later = HaloCatalog(1.0, [halo(0, range(6)), halo(1, range(6, 10))])
        links = sorted(match_halos(earlier, later))
        assert links == [(0, 0, 0.6), (0, 1, 0.4)]

    def test_no_overlap(self):
        earlier = HaloCatalog(0.5, [halo(0, range(10))])
        later = HaloCatalog(1.0, [halo(0, range(100, 110))])
        assert match_halos(earlier, later) == []

    def test_empty_catalogs(self):
        assert match_halos(HaloCatalog(0.5, []), HaloCatalog(1.0, [])) == []


class TestBuildTree:
    def three_snapshot_history(self):
        """Two halos at a=0.3 merge into one by a=0.6, which grows to a=1."""
        cat0 = HaloCatalog(0.3, [halo(0, range(0, 30), mass=0.3),
                                 halo(1, range(30, 50), mass=0.2)])
        cat1 = HaloCatalog(0.6, [halo(0, range(0, 50), mass=0.5)])
        cat2 = HaloCatalog(1.0, [halo(0, range(0, 60), mass=0.6)])
        return [cat0, cat1, cat2]

    def test_acyclic_forward_edges(self):
        tree = build_merger_tree(self.three_snapshot_history())
        assert nx.is_directed_acyclic_graph(tree.graph)
        for u, v in tree.graph.edges:
            assert v.snapshot == u.snapshot + 1

    def test_merger_detected(self):
        tree = build_merger_tree(self.three_snapshot_history())
        node = TreeNode(1, 0)
        progs = tree.progenitors(node)
        assert len(progs) == 2
        # main progenitor contributes the most mass
        assert progs[0].halo_id == 0

    def test_main_branch(self):
        tree = build_merger_tree(self.three_snapshot_history())
        branch = tree.main_branch(TreeNode(2, 0))
        assert [n.snapshot for n in branch] == [2, 1, 0]
        assert branch[-1].halo_id == 0

    def test_descendant_unique(self):
        tree = build_merger_tree(self.three_snapshot_history())
        assert list(tree.graph.successors(TreeNode(0, 1))) == [TreeNode(1, 0)]
        assert list(tree.graph.successors(TreeNode(2, 0))) == []
        # at most one outgoing edge per halo
        for node in tree.graph.nodes:
            assert tree.graph.out_degree(node) <= 1

    def test_n_mergers(self):
        tree = build_merger_tree(self.three_snapshot_history())
        assert tree.n_mergers(TreeNode(2, 0)) == 1
        assert tree.n_mergers(TreeNode(0, 0)) == 0

    def test_roots_are_final_halos(self):
        tree = build_merger_tree(self.three_snapshot_history())
        assert tree.roots() == [TreeNode(2, 0)]

    def test_min_shared_fraction_prunes_noise(self):
        cat0 = HaloCatalog(0.5, [halo(0, range(100))])
        # only 2 of 100 particles end up in the later halo: noise
        cat1 = HaloCatalog(1.0, [halo(0, list(range(500, 560)) + [0, 1])])
        tree = build_merger_tree([cat0, cat1], min_shared_fraction=0.05)
        assert tree.graph.number_of_edges() == 0

    def test_catalog_order_validated(self):
        cats = self.three_snapshot_history()
        with pytest.raises(ValueError):
            build_merger_tree(list(reversed(cats)))

    def test_halo_accessor(self):
        tree = build_merger_tree(self.three_snapshot_history())
        assert tree.halo(TreeNode(0, 1)).mass == pytest.approx(0.2)

"""Unit tests for the hierarchical replica catalog."""

from repro.data import CatalogNode, Replica


def rep(data_id, sed, host=None, nbytes=100, volume=""):
    return Replica(
        data_id=data_id,
        sed_name=sed,
        host_name=host or f"host-{sed}",
        nbytes=nbytes,
        volume=volume,
    )


class TestRegistration:
    def test_register_bubbles_to_root(self):
        root = CatalogNode("MA")
        la = CatalogNode("LA-a", parent=root)
        la.register(rep("d1", "sed-a"))
        assert "d1" in la
        assert "d1" in root
        assert root.locate("d1")[0].sed_name == "sed-a"

    def test_sibling_subtree_does_not_see_it(self):
        root = CatalogNode("MA")
        la_a = CatalogNode("LA-a", parent=root)
        la_b = CatalogNode("LA-b", parent=root)
        la_a.register(rep("d1", "sed-a"))
        assert "d1" not in la_b
        assert la_b.locate("d1") == []

    def test_unregister_bubbles_too(self):
        root = CatalogNode("MA")
        la = CatalogNode("LA-a", parent=root)
        la.register(rep("d1", "sed-a"))
        la.unregister("d1", "sed-a")
        assert "d1" not in la
        assert "d1" not in root

    def test_reregister_same_sed_replaces(self):
        root = CatalogNode("MA")
        root.register(rep("d1", "sed-a", nbytes=10))
        root.register(rep("d1", "sed-a", nbytes=99))
        located = root.locate("d1")
        assert len(located) == 1
        assert located[0].nbytes == 99


class TestLocate:
    def test_replicas_sorted_by_sed_name(self):
        root = CatalogNode("MA")
        for sed in ("sed-c", "sed-a", "sed-b"):
            root.register(rep("d1", sed))
        assert [r.sed_name for r in root.locate("d1")] == ["sed-a", "sed-b", "sed-c"]

    def test_unknown_id_is_empty(self):
        assert CatalogNode("MA").locate("ghost") == []

    def test_len_counts_data_ids(self):
        root = CatalogNode("MA")
        root.register(rep("d1", "sed-a"))
        root.register(rep("d1", "sed-b"))
        root.register(rep("d2", "sed-a"))
        assert len(root) == 2


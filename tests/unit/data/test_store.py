"""Unit tests for the per-SeD content-addressed data store."""

import numpy as np
import pytest

from repro.data import (
    CostAwareEviction,
    DataStore,
    LRUEviction,
    StoreFullError,
    content_digest,
    make_eviction,
)


class TestContentDigest:
    def test_arrays_hash_by_content(self):
        a = np.arange(10, dtype=float)
        b = np.arange(10, dtype=float)
        assert content_digest(a) == content_digest(b)
        assert content_digest(a) != content_digest(a + 1)

    def test_scalars_hash_by_repr(self):
        assert content_digest(42) == content_digest(42)
        assert content_digest(42) != content_digest(43)


class TestBasicStore:
    def test_put_get_roundtrip(self):
        store = DataStore()
        store.put("a", [1, 2], 16, now=0.0)
        assert "a" in store
        entry = store.entry("a")
        assert (entry.value, entry.nbytes) == ([1, 2], 16)
        assert len(store) == 1
        assert store.used_bytes == 16

    def test_overwrite_replaces_bytes(self):
        store = DataStore()
        store.put("a", "x", 100, now=0.0)
        store.put("a", "y", 30, now=1.0)
        assert store.used_bytes == 30
        assert store.entry("a").value == "y"

    def test_remove_and_clear(self):
        store = DataStore()
        store.put("a", "x", 10, now=0.0)
        store.put("b", "y", 20, now=0.0)
        assert store.remove("a").data_id == "a"
        assert store.remove("ghost") is None
        store.clear()
        assert len(store) == 0
        assert store.used_bytes == 0

    def test_digest_index(self):
        store = DataStore()
        d = content_digest("payload")
        store.put("a", "payload", 10, now=0.0, digest=d)
        assert store.find_digest(d) == "a"
        store.remove("a")
        assert store.find_digest(d) is None

    def test_entry_seq_is_per_store(self):
        """Two identically driven stores hold equal entries whichever was
        built first: ``seq`` counts insertions into *this* store."""

        def drive():
            store = DataStore(capacity_bytes=100)
            store.put("a", "x", 60, now=0.0)
            store.put("b", "y", 60, now=1.0)  # evicts "a"
            store.put("c", "z", 10, now=2.0)
            return store.entries()

        first, second = drive(), drive()
        assert first == second
        assert [e.seq for e in first] == [1, 2]

    def test_negative_size_rejected(self):
        from repro.core import DataError
        with pytest.raises(DataError):
            DataStore().put("a", "x", -1, now=0.0)

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            DataStore(capacity_bytes=0)


class TestEviction:
    def test_lru_evicts_least_recently_used(self):
        store = DataStore(capacity_bytes=100)
        store.put("old", "x", 40, now=0.0)
        store.put("new", "y", 40, now=1.0)
        store.entry("old").last_used = 2.0  # touch: old is now fresher
        evicted = store.put("big", "z", 40, now=3.0)
        assert [e.data_id for e in evicted] == ["new"]
        assert "old" in store and "big" in store

    def test_eviction_cascades_until_it_fits(self):
        store = DataStore(capacity_bytes=100)
        store.put("a", "x", 40, now=0.0)
        store.put("b", "y", 40, now=1.0)
        evicted = store.put("big", "z", 90, now=2.0)
        assert [e.data_id for e in evicted] == ["a", "b"]

    def test_pinned_entries_survive_pressure(self):
        store = DataStore(capacity_bytes=100)
        store.put("sticky", "x", 60, now=0.0, pinned=True)
        store.put("loose", "y", 30, now=1.0)
        evicted = store.put("new", "z", 40, now=2.0)
        assert [e.data_id for e in evicted] == ["loose"]
        assert "sticky" in store
        assert store.pinned_bytes == 60

    def test_all_pinned_raises_store_full(self):
        store = DataStore(capacity_bytes=100)
        store.put("s1", "x", 50, now=0.0, pinned=True)
        store.put("s2", "y", 50, now=0.0, pinned=True)
        with pytest.raises(StoreFullError):
            store.put("new", "z", 10, now=1.0)

    def test_oversized_value_rejected_outright(self):
        store = DataStore(capacity_bytes=100)
        with pytest.raises(StoreFullError):
            store.put("huge", "x", 101, now=0.0)

    def test_cost_aware_keeps_expensive_entries(self):
        store = DataStore(capacity_bytes=100, eviction=CostAwareEviction())
        store.put("cheap", "x", 40, now=0.0, cost=0.001)
        store.put("dear", "y", 40, now=1.0, cost=900.0)
        # LRU would pick "cheap" too here, so age the dear entry to prove
        # the cost term dominates recency.
        store.entry("dear").last_used = 0.0
        store.entry("cheap").last_used = 5.0
        evicted = store.put("new", "z", 40, now=6.0)
        assert [e.data_id for e in evicted] == ["cheap"]
        assert "dear" in store


class TestPolicyRegistry:
    def test_make_eviction(self):
        assert isinstance(make_eviction("lru"), LRUEviction)
        assert isinstance(make_eviction("cost"), CostAwareEviction)

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError, match="unknown eviction policy"):
            make_eviction("fifo")

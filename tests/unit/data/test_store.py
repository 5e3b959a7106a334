"""Unit tests for the per-SeD content-addressed data store."""

import numpy as np
import pytest

from repro.data import DataStore, content_digest


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
        store.put("a", [1, 2], 16)
        assert "a" in store
        entry = store.entry("a")
        assert (entry.value, entry.nbytes) == ([1, 2], 16)
        assert len(store) == 1

    def test_overwrite_replaces_bytes(self):
        store = DataStore()
        store.put("a", "x", 100)
        store.put("a", "y", 30)
        assert len(store) == 1
        assert (store.entry("a").value, store.entry("a").nbytes) == ("y", 30)

    def test_remove_and_clear(self):
        store = DataStore()
        store.put("a", "x", 10)
        store.put("b", "y", 20)
        assert store.remove("a").data_id == "a"
        assert store.remove("ghost") is None
        store.clear()
        assert len(store) == 0
        assert store.entry("b") is None

    def test_digest_index(self):
        store = DataStore()
        d = content_digest("payload")
        store.put("a", "payload", 10, digest=d)
        assert store.find_digest(d) == "a"
        store.remove("a")
        assert store.find_digest(d) is None

    def test_negative_size_rejected(self):
        from repro.core import DataError
        with pytest.raises(DataError):
            DataStore().put("a", "x", -1)

"""Unit tests for grid-wide result memoization (repro.data.memo).

Descriptor canonicalization (what makes two requests "the same
computation"), the MemoIndex hit/miss/invalidation bookkeeping, and the
obs counter mirroring.
"""

import numpy as np

from repro.core import (
    BaseType,
    DataHandle,
    PersistenceMode,
    ProfileDesc,
    scalar_desc,
)
from repro.core.data import FileRef, file_desc, vector_desc
from repro.core.requests import MemoHit
from repro.data.memo import MemoIndex, descriptor_digest, request_descriptor


def _desc(name="svc", out_mode=PersistenceMode.PERSISTENT_RETURN):
    desc = ProfileDesc(name, 0, 0, 1)
    desc.set_arg(0, scalar_desc(BaseType.INT))
    desc.set_arg(1, scalar_desc(BaseType.INT, out_mode))
    return desc


def _profile(value=7, name="svc", out_mode=PersistenceMode.PERSISTENT_RETURN):
    profile = _desc(name, out_mode).instantiate()
    profile.parameter(0).set(value)
    profile.parameter(1).set(None)
    return profile


class TestDescriptor:
    def test_same_request_same_digest(self):
        assert descriptor_digest(_profile(7)) == descriptor_digest(_profile(7))

    def test_input_value_fragments_key(self):
        assert descriptor_digest(_profile(7)) != descriptor_digest(_profile(8))

    def test_service_name_fragments_key(self):
        a = descriptor_digest(_profile(7, name="a"))
        b = descriptor_digest(_profile(7, name="b"))
        assert a != b

    def test_persistence_mode_fragments_key(self):
        persistent = descriptor_digest(
            _profile(7, out_mode=PersistenceMode.PERSISTENT_RETURN)
        )
        sticky = descriptor_digest(
            _profile(7, out_mode=PersistenceMode.STICKY_RETURN)
        )
        assert persistent != sticky

    def test_out_value_excluded_from_key(self):
        # OUT slots are client-side placeholders: a profile reused from a
        # previous call (OUT already set) must map to the same key.
        fresh = _profile(7)
        reused = _profile(7)
        reused.parameter(1).set(14)
        assert descriptor_digest(fresh) == descriptor_digest(reused)

    def test_ndarray_hashes_by_content_not_identity(self):
        desc = ProfileDesc("vec", 0, 0, 1)
        desc.set_arg(0, vector_desc(BaseType.DOUBLE))
        desc.set_arg(1, scalar_desc(BaseType.INT))

        def prof(arr):
            p = desc.instantiate()
            p.parameter(0).set(arr)
            p.parameter(1).set(None)
            return p

        base = np.arange(16, dtype=float)
        same = descriptor_digest(prof(base.copy()))
        assert descriptor_digest(prof(base)) == same
        # A Fortran-ordered copy of the same values still matches.
        square = np.arange(16, dtype=float).reshape(4, 4)
        fortran = np.asfortranarray(square.copy())
        assert descriptor_digest(prof(square)) == descriptor_digest(
            prof(fortran)
        )
        assert descriptor_digest(prof(base + 1)) != same

    def test_fileref_hashes_by_path_and_content(self):
        desc = ProfileDesc("file", 0, 0, 1)
        desc.set_arg(0, file_desc())
        desc.set_arg(1, scalar_desc(BaseType.INT))

        def prof(ref):
            p = desc.instantiate()
            p.parameter(0).set(ref)
            p.parameter(1).set(None)
            return p

        a = descriptor_digest(prof(FileRef("nml", 64, content="levelmax=9")))
        b = descriptor_digest(prof(FileRef("nml", 64, content="levelmax=9")))
        c = descriptor_digest(prof(FileRef("nml", 64, content="levelmax=11")))
        assert a == b
        assert a != c

    def test_handle_hashes_by_identity_triple(self):
        desc = ProfileDesc("byref", 0, 0, 1)
        desc.set_arg(0, scalar_desc(BaseType.INT, PersistenceMode.PERSISTENT))
        desc.set_arg(1, scalar_desc(BaseType.INT))

        def prof(handle):
            p = desc.instantiate()
            p.parameter(0).set(handle)
            p.parameter(1).set(None)
            return p

        h = DataHandle("sha:abc", "SeD0", 512)
        assert descriptor_digest(prof(h)) == descriptor_digest(
            prof(DataHandle("sha:abc", "SeD0", 512))
        )
        assert descriptor_digest(prof(h)) != descriptor_digest(
            prof(DataHandle("sha:def", "SeD0", 512))
        )

    def test_descriptor_covers_every_argument(self):
        descriptor = request_descriptor(_profile(7))
        assert descriptor[0] == "diet-request"
        assert descriptor[1] == "svc"
        assert len(descriptor[2]) == 2


def _hit(key="k", owner="SeD0", data_id="sha:1"):
    return MemoHit(
        key=key,
        owner=owner,
        out_values={1: DataHandle(data_id, owner, 8)},
    )


class TestMemoIndex:
    def test_miss_then_populate_then_hit(self):
        memo = MemoIndex()
        assert memo.lookup("k") is None
        assert memo.put(_hit())
        found = memo.lookup("k")
        assert found is not None and found.owner == "SeD0"
        assert memo.stats.as_dict() == {
            "hits": 1,
            "misses": 1,
            "invalidations": 0,
            "populated": 1,
        }
        assert memo.stats.hit_rate == 0.5

    def test_first_writer_wins(self):
        memo = MemoIndex()
        assert memo.put(_hit(owner="SeD0"))
        assert not memo.put(_hit(owner="SeD1"))
        assert memo.peek("k").owner == "SeD0"
        assert memo.stats.populated == 1

    def test_peek_does_not_count(self):
        memo = MemoIndex()
        memo.put(_hit())
        assert memo.peek("k") is not None
        assert memo.peek("missing") is None
        assert memo.stats.hits == 0 and memo.stats.misses == 0

    def test_invalidate_owner_drops_only_its_entries(self):
        memo = MemoIndex()
        memo.put(_hit("k1", "SeD0", "sha:1"))
        memo.put(_hit("k2", "SeD0", "sha:2"))
        memo.put(_hit("k3", "SeD1", "sha:3"))
        assert memo.invalidate_owner("SeD0") == 2
        assert memo.invalidate_owner("SeD0") == 0  # idempotent
        assert "k3" in memo and len(memo) == 1
        assert memo.stats.invalidations == 2

    def test_repopulate_after_invalidation(self):
        memo = MemoIndex()
        memo.put(_hit())
        memo.invalidate_owner("SeD0")
        assert memo.lookup("k") is None
        assert memo.put(_hit(owner="SeD1"))
        assert memo.lookup("k").owner == "SeD1"

    def test_stats_count_every_lookup_and_invalidation(self):
        memo = MemoIndex()
        memo.lookup("k")
        memo.put(_hit())
        memo.lookup("k")
        memo.invalidate_owner("SeD0")
        assert memo.stats.as_dict() == {
            "hits": 1,
            "misses": 1,
            "invalidations": 1,
            "populated": 1,
        }

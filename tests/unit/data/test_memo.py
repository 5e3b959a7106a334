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


class TestDigestPins:
    """Memo keys are the grid's shared vocabulary: a refactor of how the
    descriptor is built must not move one bit of them (hex values recorded
    before descriptions cached their memo shapes)."""

    #: E13's mix, (interactive, analysis, survey) x (memo off, memo on).
    E13 = [
        "f961e8c3c76a0c3cef4856ac11fbd7281a2fc7a771768e3a635894d0d09cb04d",
        "2ac51a0b3c0dc0ad68bdac807a8a4c48415cf436aeeda482bf9c507ae189e8f7",
        "bc130caf08272fdd2d8e27eda20f76e646c66dc4209c60eece93931407724f40",
        "52fd10293ab5290a319db9d513c94d3025627700ce90cbf0c65601a26779768f",
        "2f9faefff710b1302d83667afee17941d74c9911144461f5a0fd435e20020804",
        "399c222cdf03230223eb7dcbc4df1a35e8d3fffce84f75d428cd99e413238c49",
    ]
    #: ramsesZoom2 with the default, PERSISTENT and STICKY_RETURN results.
    ZOOM2 = [
        "e808dfea8b77d2f008064e491fac8ca06a88bcac35f348e579afbd3b4eb3a915",
        "ca7995bd81da985ff525212a37af767f71e325dc92def8436d51cefb4a378d3a",
        "e0b7939d4fca0b9ca873dab38d5cf2762eb76cdb2f8a63cab773aa7e5064aabb",
    ]

    def test_e13_mix(self):
        from repro.experiments.load_federation import _service_desc
        from repro.sim.traffic import DEFAULT_MIX

        cases = [(cls.name, memo) for cls in DEFAULT_MIX for memo in (False, True)]
        for (name, memo), digest in zip(cases, self.E13, strict=True):
            profile = _service_desc(name, memo).instantiate()
            profile.parameter(0).set(4242)
            profile.parameter(1).set(None)
            assert descriptor_digest(profile) == digest, (name, memo)

    def test_zoom2(self):
        from repro.services.ramses_client import (
            build_zoom2_profile,
            default_namelist_text,
        )

        modes = [None, PersistenceMode.PERSISTENT, PersistenceMode.STICKY_RETURN]
        for mode, digest in zip(modes, self.ZOOM2, strict=True):
            # twice: the second profile shares the first one's description
            for _ in range(2):
                profile = build_zoom2_profile(
                    default_namelist_text(64, 100), 64, 100, (0.25, 0.5, 0.75), 2, mode
                )
                assert descriptor_digest(profile) == digest, mode


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

"""Unit tests for profile descriptions and the service table."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BaseType,
    Direction,
    FileRef,
    PersistenceMode,
    ProfileDesc,
    ProfileError,
    ServiceNotFoundError,
    ServiceTable,
    file_desc,
    scalar_desc,
)
from repro.core.data import HANDLE_WIRE_BYTES, ArgDesc, CompositeType


def ramses_zoom2_desc():
    """The paper's diet_profile_desc_alloc("ramsesZoom2", 6, 6, 8)."""
    desc = ProfileDesc("ramsesZoom2", 6, 6, 8)
    desc.set_arg(0, file_desc())
    for i in range(1, 7):
        desc.set_arg(i, scalar_desc(BaseType.INT))
    desc.set_arg(7, file_desc())
    desc.set_arg(8, scalar_desc(BaseType.INT))
    return desc


class TestProfileDesc:
    def test_paper_profile_layout(self):
        desc = ramses_zoom2_desc()
        assert desc.n_args == 9
        assert [desc.direction(i) for i in range(7)] == [Direction.IN] * 7
        assert desc.direction(7) is Direction.OUT
        assert desc.direction(8) is Direction.OUT

    def test_inout_region(self):
        desc = ProfileDesc("svc", 0, 2, 4)
        assert desc.direction(0) is Direction.IN
        assert desc.direction(1) is Direction.INOUT
        assert desc.direction(2) is Direction.INOUT
        assert desc.direction(3) is Direction.OUT

    def test_no_in_arguments(self):
        desc = ProfileDesc("pure-out", -1, -1, 0)
        assert desc.direction(0) is Direction.OUT

    def test_bad_indices_rejected(self):
        with pytest.raises(ProfileError):
            ProfileDesc("bad", 3, 2, 5)   # last_inout < last_in
        with pytest.raises(ProfileError):
            ProfileDesc("bad", -2, -1, 0)

    def test_empty_path_rejected(self):
        with pytest.raises(ProfileError):
            ProfileDesc("", 0, 0, 0)

    def test_arg_index_bounds(self):
        desc = ProfileDesc("svc", 0, 0, 1)
        with pytest.raises(ProfileError):
            desc.set_arg(2, scalar_desc())
        with pytest.raises(ProfileError):
            desc.direction(-1)

    def test_matching(self):
        assert ramses_zoom2_desc().matches(ramses_zoom2_desc())

    def test_mismatch_on_type(self):
        a = ramses_zoom2_desc()
        b = ramses_zoom2_desc()
        b.set_arg(1, scalar_desc(BaseType.DOUBLE))
        assert not a.matches(b)

    def test_mismatch_on_name(self):
        a = ramses_zoom2_desc()
        b = ramses_zoom2_desc()
        b.path = "ramsesZoom1"
        assert not a.matches(b)

    def test_signature_renders(self):
        sig = ramses_zoom2_desc().signature()
        assert sig.startswith("ramsesZoom2(")
        assert "IN:DIET_FILE" in sig and "OUT:DIET_SCALAR" in sig


_arg_descs = st.builds(ArgDesc, st.sampled_from(list(CompositeType)),
                       st.sampled_from(list(BaseType)),
                       st.sampled_from(list(PersistenceMode)))


@st.composite
def _descs(draw, n_args=None):
    n = n_args if n_args is not None else draw(st.integers(1, 4))
    cuts = sorted(draw(st.lists(st.integers(-1, n - 1), min_size=2,
                                max_size=2)))
    return ProfileDesc(draw(st.sampled_from(("svc", "other"))),
                       cuts[0], cuts[1], n - 1,
                       [draw(_arg_descs) for _ in range(n)])


def _structural_match(a, b):
    """The matching rule spelled out: name, arity, directions, types."""
    return (a.path == b.path and a.last_in == b.last_in
            and a.last_inout == b.last_inout and a.last_out == b.last_out
            and all(x.composite is y.composite and x.base is y.base
                    for x, y in zip(a.args, b.args)))


class TestDescriptionFacts:
    """A description's derived facts are cached; the cache never answers
    differently from the definition."""

    @settings(max_examples=300, deadline=None)
    @given(a=_descs(n_args=3), other=_descs(n_args=3), data=st.data())
    def test_matches_is_structural_across_set_arg(self, a, other, data):
        b = other if data.draw(st.booleans()) else ProfileDesc(
            a.path, a.last_in, a.last_inout, a.last_out, list(a.args))
        assert a.matches(b) == b.matches(a) == _structural_match(a, b)
        # a set_arg on a description whose key is already cached
        for desc in data.draw(st.permutations([a, b])):
            desc.set_arg(data.draw(st.integers(0, 2)), data.draw(_arg_descs))
            assert a.matches(b) == _structural_match(a, b)
        twin = ProfileDesc(a.path, a.last_in, a.last_inout, a.last_out,
                           list(a.args))
        assert a.matches(twin) and a.key == twin.key

    @settings(max_examples=100, deadline=None)
    @given(desc=_descs(), data=st.data())
    def test_slots_and_shapes_follow_set_arg(self, desc, data):
        desc.slots, desc.memo_shapes  # cache them
        desc.set_arg(data.draw(st.integers(0, desc.n_args - 1)),
                     data.draw(_arg_descs))
        assert desc.slots == tuple((arg, desc.direction(i))
                                   for i, arg in enumerate(desc.args))
        assert desc.memo_shapes == tuple(
            (desc.direction(i).value, arg.composite.value, arg.base.cname,
             arg.persistence.value) for i, arg in enumerate(desc.args))
        profile = desc.instantiate()
        assert [(a.desc, a.direction) for a in profile] == list(desc.slots)

    def test_set_arg_resets_the_cached_facts(self):
        a, b = ramses_zoom2_desc(), ramses_zoom2_desc()
        assert a.matches(b) and len(b.slots) == 9
        b.set_arg(1, scalar_desc(BaseType.DOUBLE))
        assert not a.matches(b)
        assert b.slots[1] == (scalar_desc(BaseType.DOUBLE), Direction.IN)

    def test_key_ignores_persistence(self):
        a, b = ramses_zoom2_desc(), ramses_zoom2_desc()
        b.set_arg(7, file_desc(PersistenceMode.PERSISTENT))
        assert a.key == b.key and a.memo_shapes != b.memo_shapes

    def test_arg_desc_is_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            scalar_desc().base = BaseType.DOUBLE


class TestProfile:
    def test_instantiate_allocates_all_slots(self):
        profile = ramses_zoom2_desc().instantiate()
        assert len(profile.arguments) == 9
        assert profile.parameter(7).direction is Direction.OUT

    def test_parameter_bounds(self):
        profile = ramses_zoom2_desc().instantiate()
        with pytest.raises(ProfileError):
            profile.parameter(9)

    def test_request_and_response_sizes(self):
        profile = ramses_zoom2_desc().instantiate()
        profile.parameter(0).set(FileRef("nml", nbytes=2000))
        for i in range(1, 7):
            profile.parameter(i).set(i)
        profile.parameter(7).set(None)
        profile.parameter(8).set(None)
        assert profile.request_nbytes() == 2000 + 6 * 4
        assert profile.response_nbytes() == 0
        # after the solve fills the OUTs:
        profile.parameter(7).set(FileRef("results.tgz", nbytes=5_000_000))
        profile.parameter(8).set(0)
        assert profile.response_nbytes() == 5_000_000 + 4

    def test_persistent_out_returns_only_the_handle(self):
        desc = ProfileDesc("svc", -1, -1, 0)
        desc.set_arg(0, ArgDesc(persistence=PersistenceMode.PERSISTENT))
        profile = desc.instantiate()
        # Declared but unset: nothing on the wire yet.
        assert profile.response_nbytes() == 0
        # Produced: the value stays on the SeD, the reply carries exactly
        # one fixed-size reference — never the value's bytes.
        profile.parameter(0).set(5)
        assert profile.response_nbytes() == HANDLE_WIRE_BYTES

    def test_validate_for_submit_reports_argument_index(self):
        profile = ramses_zoom2_desc().instantiate()
        profile.parameter(0).set(FileRef("nml", nbytes=10))
        with pytest.raises(ProfileError, match="argument 1"):
            profile.validate_for_submit()

    def test_direction_filters(self):
        profile = ramses_zoom2_desc().instantiate()
        assert len(profile.in_args()) == 7
        assert len(profile.inout_args()) == 0
        assert len(profile.out_args()) == 2


class TestServiceTable:
    def solve(self, profile, ctx):
        yield
        return 0

    def test_add_and_lookup(self):
        table = ServiceTable()
        desc = ramses_zoom2_desc()
        table.add(desc, None, self.solve)
        found_desc, func, predictor = table.lookup("ramsesZoom2")
        assert found_desc is desc and func == self.solve
        assert predictor is None

    def test_lookup_missing_raises(self):
        with pytest.raises(ServiceNotFoundError):
            ServiceTable().lookup("nope")

    def test_duplicate_rejected(self):
        table = ServiceTable()
        table.add(ramses_zoom2_desc(), None, self.solve)
        with pytest.raises(ProfileError, match="already registered"):
            table.add(ramses_zoom2_desc(), None, self.solve)

    def test_capacity(self):
        table = ServiceTable(max_size=1)
        table.add(ramses_zoom2_desc(), None, self.solve)
        with pytest.raises(ProfileError, match="full"):
            table.add(ProfileDesc("other", 0, 0, 0), None, self.solve)

    def test_can_solve_checks_structure(self):
        table = ServiceTable()
        table.add(ramses_zoom2_desc(), None, self.solve)
        assert table.can_solve(ramses_zoom2_desc())
        different = ramses_zoom2_desc()
        different.set_arg(1, scalar_desc(BaseType.DOUBLE))
        assert not table.can_solve(different)

    def test_non_callable_solve_rejected(self):
        with pytest.raises(ProfileError):
            ServiceTable().add(ramses_zoom2_desc(), None, "not-callable")

    def test_rows_iterate_in_registration_order(self):
        table = ServiceTable()
        for path in ("zeta", "alpha", "mid"):
            table.add(ProfileDesc(path, 0, 0, 0), None, self.solve)
        assert [desc.path for desc, _, _ in table] == ["zeta", "alpha", "mid"]
        assert table.paths() == ["alpha", "mid", "zeta"]

    def test_print_table(self):
        table = ServiceTable()
        table.add(ramses_zoom2_desc(), None, self.solve)
        text = table.print_table()
        assert "ramsesZoom2" in text and "1/64" in text

"""Property-based tests for profiles, schedulers, the transport counters
and the namelist parser."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    DefaultPolicy,
    EstimationVector,
    MCTPolicy,
    ProfileDesc,
    ProfileError,
    SchedulingContext,
    TransportFabric,
    TransportParams,
)
from repro.ramses import format_namelist, parse_namelist
from repro.ramses.namelist import Namelist
from repro.sim import Engine, Host, Link, Network


# -- profile indices --------------------------------------------------------------

@given(st.integers(-3, 8), st.integers(-3, 8), st.integers(-3, 8))
@settings(max_examples=100, deadline=None)
def test_profile_desc_index_contract(last_in, last_inout, last_out):
    """ProfileDesc accepts exactly -1 <= in <= inout <= out."""
    valid = -1 <= last_in <= last_inout <= last_out
    if valid:
        desc = ProfileDesc("svc", last_in, last_inout, last_out)
        assert desc.n_args == last_out + 1
        dirs = [desc.direction(i).value for i in range(desc.n_args)]
        assert dirs == sorted(dirs, key=["IN", "INOUT", "OUT"].index)
    else:
        with pytest.raises(ProfileError):
            ProfileDesc("svc", last_in, last_inout, last_out)


# -- scheduler work conservation ----------------------------------------------------

@given(st.integers(min_value=1, max_value=20),
       st.integers(min_value=0, max_value=300))
@settings(max_examples=50, deadline=None)
def test_default_policy_work_conservation(n_seds, n_requests):
    """Every request is placed, and counts differ by at most one."""
    policy = DefaultPolicy()
    ctx = SchedulingContext()
    cands = [EstimationVector(f"s{i:02d}", "h", 0, 1.0, float("inf"))
             for i in range(n_seds)]
    for _ in range(n_requests):
        chosen = policy.choose(cands, ctx)
        assert chosen is not None
        ctx.note_dispatch(chosen.sed_name)
    counts = [ctx.dispatched.get(f"s{i:02d}", 0) for i in range(n_seds)]
    assert sum(counts) == n_requests
    assert max(counts) - min(counts) <= 1


@given(st.lists(st.floats(min_value=1.0, max_value=100.0),
                min_size=2, max_size=12),
       st.integers(min_value=10, max_value=150))
@settings(max_examples=40, deadline=None)
def test_mct_distributes_inversely_to_job_time(times, n_requests):
    """MCT gives each SeD a share ~ proportional to its speed."""
    policy = MCTPolicy()
    ctx = SchedulingContext()
    cands = [EstimationVector(f"s{i:02d}", "h", 0, 1.0, t)
             for i, t in enumerate(times)]
    for _ in range(n_requests):
        chosen = policy.choose(cands, ctx)
        ctx.note_dispatch(chosen.sed_name)
    # completion times of the greedy schedule are balanced within one job
    finish = []
    for i, t in enumerate(times):
        n_i = ctx.dispatched.get(f"s{i:02d}", 0)
        finish.append(n_i * t)
    assert max(finish) - min(finish) <= max(times) + 1e-9


# -- transport counter invariants ---------------------------------------------------


def _fabric():
    engine = Engine()
    net = Network(engine)
    for name in ("alpha", "beta"):
        net.add_host(Host(engine, name))
    net.connect("alpha", "beta", Link("wire", 0.010, 1e6))
    fabric = TransportFabric(engine, net,
                             TransportParams(marshal_fixed=1e-3,
                                             marshal_per_byte=0.0,
                                             dispatch_fixed=1e-3))
    return engine, fabric


REPLY_NBYTES = 16


@given(st.lists(st.tuples(st.sampled_from(["ping", "pong", "poke"]),
                          st.integers(min_value=1, max_value=10 ** 6),
                          st.booleans()),
                max_size=25))
@settings(max_examples=25, deadline=None)
def test_accounting_counts_every_wire_crossing(calls):
    """messages_sent/bytes_sent/messages_by_op are exact for any mix of
    one-way sends and round-trip RPCs."""
    engine, fabric = _fabric()
    server = fabric.endpoint("server", "beta")

    def ack(msg):
        yield engine.timeout(0.0)
        return ("ok", REPLY_NBYTES)

    for op in ("ping", "pong", "poke"):
        server.on(op, ack)
    client = fabric.endpoint("client", "alpha")

    def session():
        for op, nbytes, roundtrip in calls:
            if roundtrip:
                yield from client.rpc("server", op, nbytes=nbytes)
            else:
                yield from client.send("server", op, None, nbytes=nbytes)

    engine.run_process(session())
    engine.run()
    n_rpc = sum(1 for _, _, rt in calls if rt)
    assert fabric.messages_sent == len(calls) + n_rpc
    assert fabric.bytes_sent == (sum(nb for _, nb, _ in calls)
                                 + n_rpc * REPLY_NBYTES)
    by_op = {}
    for op, _, rt in calls:
        by_op[op] = by_op.get(op, 0) + (2 if rt else 1)
    assert fabric.accounting.messages_by_op == by_op
    assert fabric.accounting.dead_letters == 0
    assert fabric.accounting.messages_dropped == 0


# -- namelist round-trip ---------------------------------------------------------------

names = st.text(alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=12)
scalars = st.one_of(
    st.booleans(),
    st.integers(min_value=-10 ** 9, max_value=10 ** 9),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False,
              allow_infinity=False).map(lambda v: float(repr(v))),
    st.text(alphabet=st.characters(
        whitelist_categories=("Ll", "Lu", "Nd"),
        whitelist_characters=" _-."), max_size=20),
)
values = st.one_of(scalars, st.lists(st.integers(-1000, 1000),
                                     min_size=2, max_size=6))


@given(st.dictionaries(names, st.dictionaries(names, values, max_size=6),
                       min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_namelist_roundtrip(data):
    nml = Namelist()
    for group, params in data.items():
        for key, value in params.items():
            nml.group(group)[key] = value
    text = format_namelist(nml)
    back = parse_namelist(text)
    for group, params in data.items():
        for key, value in params.items():
            got = back.get_param(group, key)
            if isinstance(value, float):
                assert got == pytest.approx(value)
            else:
                assert got == value

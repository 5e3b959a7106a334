"""Property-based tests for routing and the transfer-time contract.

Covers the guarantees the middleware layers lean on:

- ``route(a, b)`` is the exact reverse of ``route(b, a)`` (symmetric cache);
- routing is deterministic: rebuilding an identical topology yields
  identical routes for every pair (ties broken stably);
- ``connect()`` invalidates the route cache — a better link added after a
  lookup is picked up by the next lookup;
- on every route, the duration charged by ``wire_time`` agrees *exactly*
  (``==``, not approx) with ``transfer_time`` — the estimate SeDs
  advertise is the time the wire then charges.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Engine, Host, Link, Network

# -- topology specs ------------------------------------------------------------------
#
# A spec is pure data so the same spec can be built twice into two
# independent engines: (parent links of a random tree, extra edges,
# per-edge latencies).  Connectivity is guaranteed by the tree part.

LATENCIES = st.floats(min_value=1e-3, max_value=5e-2,
                      allow_nan=False, allow_infinity=False)


@st.composite
def topology_specs(draw):
    n = draw(st.integers(min_value=3, max_value=8))
    parents = [draw(st.integers(min_value=0, max_value=i - 1))
               for i in range(1, n)]
    n_extra = draw(st.integers(min_value=0, max_value=4))
    extras = [(draw(st.integers(min_value=0, max_value=n - 1)),
               draw(st.integers(min_value=0, max_value=n - 1)))
              for _ in range(n_extra)]
    extras = [(a, b) for a, b in extras if a != b]
    lats = [draw(LATENCIES) for _ in range(len(parents) + len(extras))]
    return n, parents, extras, lats


def build(spec):
    n, parents, extras, lats = spec
    engine = Engine()
    net = Network(engine)
    for i in range(n):
        net.add_host(Host(engine, f"h{i}"))
    it = iter(lats)
    edges = [(i + 1, p) for i, p in enumerate(parents)] + list(extras)
    for k, (a, b) in enumerate(edges):
        # Parallel edges between one pair are fine: connect() keeps both
        # and routing picks the cheaper one deterministically.
        net.connect(f"h{a}", f"h{b}",
                    Link(f"l{k}", next(it), 1e6))
    return engine, net


@given(topology_specs(), st.data())
@settings(max_examples=60, deadline=None)
def test_route_symmetric(spec, data):
    _, net = build(spec)
    n = spec[0]
    a = data.draw(st.integers(min_value=0, max_value=n - 1), label="src")
    b = data.draw(st.integers(min_value=0, max_value=n - 1), label="dst")
    fwd = net.route(f"h{a}", f"h{b}")
    back = net.route(f"h{b}", f"h{a}")
    assert [l.name for l in back] == [l.name for l in reversed(fwd)]


@given(topology_specs())
@settings(max_examples=40, deadline=None)
def test_route_deterministic_across_rebuilds(spec):
    _, net1 = build(spec)
    _, net2 = build(spec)
    n = spec[0]
    for a in range(n):
        for b in range(n):
            r1 = [l.name for l in net1.route(f"h{a}", f"h{b}")]
            r2 = [l.name for l in net2.route(f"h{a}", f"h{b}")]
            assert r1 == r2


@given(topology_specs(), st.data())
@settings(max_examples=40, deadline=None)
def test_connect_invalidates_route_cache(spec, data):
    engine, net = build(spec)
    n = spec[0]
    a = data.draw(st.integers(min_value=0, max_value=n - 1), label="src")
    b = data.draw(st.integers(min_value=0, max_value=n - 1), label="dst")
    if a == b:
        return
    net.route(f"h{a}", f"h{b}")  # prime the cache
    # A direct link cheaper than any existing path (every drawn latency is
    # >= 1e-3) must win the very next lookup, both ways round.
    net.connect(f"h{a}", f"h{b}", Link("shortcut", 1e-6, 1e6))
    assert [l.name for l in net.route(f"h{a}", f"h{b}")] == ["shortcut"]
    assert [l.name for l in net.route(f"h{b}", f"h{a}")] == ["shortcut"]


@given(topology_specs(), st.data(),
       st.integers(min_value=0, max_value=10_000_000))
@settings(max_examples=60, deadline=None)
def test_transfer_matches_transfer_time_uncontended(spec, data, nbytes):
    _, net = build(spec)
    n = spec[0]
    a = data.draw(st.integers(min_value=0, max_value=n - 1), label="src")
    b = data.draw(st.integers(min_value=0, max_value=n - 1), label="dst")
    predicted = net.transfer_time(f"h{a}", f"h{b}", nbytes)
    charged = net.wire_time(f"h{a}", f"h{b}", nbytes)
    assert charged == predicted  # exact, not approx: same arithmetic
    # Every byte on the wire is counted; the self-route has no wire.
    assert net.bytes_total == (0 if a == b else nbytes)

"""Unit tests for hosts, links, routing and transfers."""

import pytest

from repro.core import TransportFabric, TransportParams
from repro.sim import Engine, Host, Link, Network, NetworkError


@pytest.fixture
def engine():
    return Engine()


def star(engine, n_leaves=3, latency=0.01, bw=1e6):
    """hub <-> leaf-i topology."""
    net = Network(engine)
    net.add_host(Host(engine, "hub"))
    for i in range(n_leaves):
        net.add_host(Host(engine, f"leaf{i}"))
        net.connect("hub", f"leaf{i}", Link(f"l{i}", latency, bw))
    return net


class TestHost:
    def test_speed_validation(self, engine):
        with pytest.raises(ValueError):
            Host(engine, "bad", speed=0)

    def test_compute_time_scales_with_speed(self, engine):
        fast = Host(engine, "fast", speed=4.0)
        slow = Host(engine, "slow", speed=1.0)
        assert fast.compute_time(8.0) == 2.0
        assert slow.compute_time(8.0) == 8.0

    def test_negative_work_raises(self, engine):
        with pytest.raises(ValueError):
            Host(engine, "h").compute_time(-1)

    def test_concurrent_executes_do_not_queue(self, engine):
        """The host bounds no compute: the SeD's job slot is the one limit."""
        host = Host(engine, "h", speed=2.0)
        done = []

        def job(tag, work):
            yield from host.execute(work)
            done.append((tag, engine.now))

        engine.process(job("a", 4.0))
        engine.process(job("b", 4.0))
        engine.process(job("c", 6.0))
        engine.run()
        assert done == [("a", 2.0), ("b", 2.0), ("c", 3.0)]


class TestTopology:
    def test_duplicate_host_rejected(self, engine):
        net = Network(engine)
        net.add_host(Host(engine, "a"))
        with pytest.raises(NetworkError):
            net.add_host(Host(engine, "a"))

    def test_unknown_host_lookup(self, engine):
        net = Network(engine)
        with pytest.raises(NetworkError):
            net.host("ghost")

    def test_connect_unknown_host(self, engine):
        net = Network(engine)
        net.add_host(Host(engine, "a"))
        with pytest.raises(NetworkError):
            net.connect("a", "ghost", Link("l", 0.01, 1e6))

    def test_link_validation(self, engine):
        with pytest.raises(ValueError):
            Link("l", -0.1, 1e6)
        with pytest.raises(ValueError):
            Link("l", 0.1, 0)


class TestRouting:
    def test_self_route_empty(self, engine):
        net = star(engine)
        assert net.route("hub", "hub") == []
        assert net.transfer_time("hub", "hub", 10**9) == 0.0
        assert net.wire_time("hub", "hub", 10**9) == 0.0
        assert net.bytes_total == 0

    def test_leaf_to_leaf_via_hub(self, engine):
        net = star(engine)
        route = net.route("leaf0", "leaf1")
        assert len(route) == 2

    def test_shortest_path_by_latency(self, engine):
        net = Network(engine)
        for name in "abcd":
            net.add_host(Host(engine, name))
        # a-b-d is lower latency than direct a-d
        net.connect("a", "b", Link("ab", 0.001, 1e6))
        net.connect("b", "d", Link("bd", 0.001, 1e6))
        net.connect("a", "d", Link("ad", 0.010, 1e6))
        assert [l.name for l in net.route("a", "d")] == ["ab", "bd"]

    def test_unreachable_raises(self, engine):
        net = Network(engine)
        net.add_host(Host(engine, "a"))
        net.add_host(Host(engine, "b"))
        with pytest.raises(NetworkError):
            net.route("a", "b")

    def test_route_cache_symmetric(self, engine):
        net = star(engine)
        fwd = net.route("leaf0", "leaf2")
        back = net.route("leaf2", "leaf0")
        assert [l.name for l in back] == [l.name for l in reversed(fwd)]


class TestRouteCache:
    """The all-pairs expansion behind route() and the derived metrics."""

    def test_expansion_fills_whole_component(self, engine):
        net = star(engine, n_leaves=3)
        net.route("leaf0", "leaf1")
        # One miss ran a full Dijkstra from leaf0: every pair touching
        # leaf0 is now cached, including the symmetric reverses.
        for other in ("hub", "leaf1", "leaf2"):
            assert ("leaf0", other) in net._route_cache
            assert (other, "leaf0") in net._route_cache

    def test_symmetric_entry_is_the_reverse_path(self, engine):
        net = star(engine)
        net.route("leaf0", "leaf1")
        fwd = net._route_cache[("leaf0", "leaf1")]
        back = net._route_cache[("leaf1", "leaf0")]
        assert back == list(reversed(fwd))

    def test_symmetric_entry_not_overwritten(self, engine):
        # First write wins: a later expansion from the far end must not
        # replace the reverse entry the first expansion seeded (on latency
        # ties the two could legitimately pick different equal-cost paths,
        # and swapping mid-run would change transfer event orderings).
        net = star(engine)
        net.route("leaf0", "leaf1")
        seeded = net._route_cache[("leaf1", "leaf0")]
        net.route("leaf1", "leaf2")   # expands from leaf1
        assert net._route_cache[("leaf1", "leaf0")] is seeded

    def test_connect_invalidates_caches(self, engine):
        net = star(engine)
        assert net.transfer_time("leaf0", "leaf1", 1000) == pytest.approx(
            0.02 + 1000 / 1e6)
        assert net._route_info
        # A new direct link makes the old cached route stale.
        net.connect("leaf0", "leaf1", Link("direct", 0.001, 1e6))
        assert not net._route_cache and not net._route_info
        assert net.transfer_time("leaf0", "leaf1", 1000) == pytest.approx(
            0.001 + 1000 / 1e6)

    def test_route_metrics_match_route(self, engine):
        net = star(engine, latency=0.01, bw=1e6)
        latency, bottleneck, wan = net._route_metrics("leaf0", "leaf2")
        route = net.route("leaf0", "leaf2")
        assert latency == pytest.approx(sum(l.latency for l in route))
        assert bottleneck == min(l.bandwidth for l in route)
        assert wan is False              # no link was marked wan=True

    def test_self_route_metrics_sentinel(self, engine):
        net = star(engine)
        assert net._route_metrics("hub", "hub") == (0.0, 0.0, False)


class TestTransfers:
    def test_latency_plus_bandwidth(self, engine):
        net = star(engine, latency=0.01, bw=1e6)
        t = net.transfer_time("leaf0", "leaf1", 500_000)
        assert t == pytest.approx(0.02 + 0.5)

    def test_bottleneck_bandwidth(self, engine):
        net = Network(engine)
        for name in "abc":
            net.add_host(Host(engine, name))
        net.connect("a", "b", Link("fat", 0.0, 10e6))
        net.connect("b", "c", Link("thin", 0.0, 1e6))
        assert net.transfer_time("a", "c", 1_000_000) == pytest.approx(1.0)

    def test_negative_size_raises(self, engine):
        net = star(engine)
        with pytest.raises(ValueError):
            net.transfer_time("leaf0", "leaf1", -5)

    def test_unshared_link_concurrent(self, engine):
        """Two one-way messages posted together over one link do not queue
        behind each other: both arrive at marshal + wire."""
        net = star(engine, latency=0.0, bw=1e6)
        marshal = 1e-3
        fabric = TransportFabric(engine, net, TransportParams(
            marshal_fixed=marshal, marshal_per_byte=0.0, dispatch_fixed=0.0))
        server = fabric.endpoint("server", "leaf1")
        seen = []

        def note(msg):
            yield engine.timeout(0.0)
            seen.append(msg.src)

        server.on("note", note)
        ends = []

        def sender(name):
            client = fabric.endpoint(name, "leaf0")
            yield from client.send("server", "note", nbytes=1_000_000)
            ends.append(engine.now)

        engine.process(sender("c0"))
        engine.process(sender("c1"))
        engine.run()
        wire = net.transfer_time("leaf0", "leaf1", 1_000_000)
        assert ends == [marshal + wire, marshal + wire]
        assert sorted(seen) == ["c0", "c1"]

"""Unit tests for hosts, links, routing and transfers."""

import pytest

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
        net.connect("hub", f"leaf{i}", Link(engine, f"l{i}", latency, bw))
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

    def test_execute_serializes_on_one_core(self, engine):
        host = Host(engine, "h", speed=1.0, cores=1)
        done = []

        def job(tag):
            yield from host.execute(2.0)
            done.append((tag, engine.now))

        engine.process(job("a"))
        engine.process(job("b"))
        engine.run()
        assert done == [("a", 2.0), ("b", 4.0)]

    def test_execute_parallel_on_two_cores(self, engine):
        host = Host(engine, "h", speed=1.0, cores=2)
        done = []

        def job(tag):
            yield from host.execute(2.0)
            done.append((tag, engine.now))

        engine.process(job("a"))
        engine.process(job("b"))
        engine.run()
        assert [t for _, t in done] == [2.0, 2.0]


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
            net.connect("a", "ghost", Link(engine, "l", 0.01, 1e6))

    def test_link_validation(self, engine):
        with pytest.raises(ValueError):
            Link(engine, "l", -0.1, 1e6)
        with pytest.raises(ValueError):
            Link(engine, "l", 0.1, 0)


class TestRouting:
    def test_self_route_empty(self, engine):
        net = star(engine)
        assert net.route("hub", "hub") == []
        assert net.transfer_time("hub", "hub", 10**9) == 0.0

    def test_leaf_to_leaf_via_hub(self, engine):
        net = star(engine)
        route = net.route("leaf0", "leaf1")
        assert len(route) == 2

    def test_shortest_path_by_latency(self, engine):
        net = Network(engine)
        for name in "abcd":
            net.add_host(Host(engine, name))
        # a-b-d is lower latency than direct a-d
        net.connect("a", "b", Link(engine, "ab", 0.001, 1e6))
        net.connect("b", "d", Link(engine, "bd", 0.001, 1e6))
        net.connect("a", "d", Link(engine, "ad", 0.010, 1e6))
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
        net.connect("leaf0", "leaf1", Link(engine, "direct", 0.001, 1e6))
        assert not net._route_cache and not net._route_info
        assert net.transfer_time("leaf0", "leaf1", 1000) == pytest.approx(
            0.001 + 1000 / 1e6)

    def test_route_metrics_match_route(self, engine):
        net = star(engine, latency=0.01, bw=1e6)
        latency, bottleneck, shared, wan = net._route_metrics("leaf0", "leaf2")
        route = net.route("leaf0", "leaf2")
        assert latency == pytest.approx(sum(l.latency for l in route))
        assert bottleneck == min(l.bandwidth for l in route)
        assert shared == ()              # star links are not shared
        assert wan is False              # no link was marked wan=True

    def test_route_metrics_shared_links_in_lock_order(self, engine):
        net = Network(engine)
        for name in "abc":
            net.add_host(Host(engine, name))
        # Create the far link first so path order (ab, bc) differs from
        # creation (= lock) order (bc, ab).
        bc = Link(engine, "bc", 0.001, 1e6, shared=True)
        ab = Link(engine, "ab", 0.001, 1e6, shared=True)
        net.connect("b", "c", bc)
        net.connect("a", "b", ab)
        _, _, shared, _ = net._route_metrics("a", "c")
        assert [l.name for l in shared] == ["bc", "ab"]
        assert [l._uid for l in shared] == sorted(l._uid for l in shared)

    def test_self_route_metrics_sentinel(self, engine):
        net = star(engine)
        assert net._route_metrics("hub", "hub") == (0.0, 0.0, (), False)


class TestTransfers:
    def test_latency_plus_bandwidth(self, engine):
        net = star(engine, latency=0.01, bw=1e6)
        t = net.transfer_time("leaf0", "leaf1", 500_000)
        assert t == pytest.approx(0.02 + 0.5)

    def test_bottleneck_bandwidth(self, engine):
        net = Network(engine)
        for name in "abc":
            net.add_host(Host(engine, name))
        net.connect("a", "b", Link(engine, "fat", 0.0, 10e6))
        net.connect("b", "c", Link(engine, "thin", 0.0, 1e6))
        assert net.transfer_time("a", "c", 1_000_000) == pytest.approx(1.0)

    def test_timed_transfer_process(self, engine):
        net = star(engine, latency=0.005, bw=2e6)

        def xfer():
            duration = yield from net.transfer("leaf0", "leaf1", 1_000_000)
            return duration

        assert engine.run_process(xfer()) == pytest.approx(0.01 + 0.5)

    def test_negative_size_raises(self, engine):
        net = star(engine)
        with pytest.raises(ValueError):
            net.transfer_time("leaf0", "leaf1", -5)

    def test_shared_link_serializes(self, engine):
        net = Network(engine)
        net.add_host(Host(engine, "a"))
        net.add_host(Host(engine, "b"))
        net.connect("a", "b",
                    Link(engine, "serial", 0.0, 1e6, shared=True))
        ends = []

        def xfer():
            yield from net.transfer("a", "b", 1_000_000)
            ends.append(engine.now)

        engine.process(xfer())
        engine.process(xfer())
        engine.run()
        assert ends == [pytest.approx(1.0), pytest.approx(2.0)]

    def test_unshared_link_concurrent(self, engine):
        net = star(engine, latency=0.0, bw=1e6)
        ends = []

        def xfer():
            yield from net.transfer("leaf0", "leaf1", 1_000_000)
            ends.append(engine.now)

        engine.process(xfer())
        engine.process(xfer())
        engine.run()
        assert ends == [pytest.approx(1.0), pytest.approx(1.0)]


class TestCrossingTransfers:
    """Regression: two transfers traversing the same shared links in
    opposite directions used to deadlock (each held one link's slot while
    waiting for the other's).  Slots are now claimed in a deterministic
    global link order, so crossing transfers serialize instead."""

    def _line(self, engine):
        """a -- L1 -- m -- L2 -- b, both links shared (capacity 1)."""
        net = Network(engine)
        for name in ("a", "m", "b"):
            net.add_host(Host(engine, name))
        net.connect("a", "m", Link(engine, "L1", 0.0, 1e6, shared=True))
        net.connect("m", "b", Link(engine, "L2", 0.0, 1e6, shared=True))
        return net

    def test_opposite_directions_complete(self, engine):
        net = self._line(engine)
        ends = []

        def xfer(src, dst):
            yield from net.transfer(src, dst, 1_000_000)
            ends.append((src, dst, engine.now))

        engine.process(xfer("a", "b"))
        engine.process(xfer("b", "a"))
        engine.run(until=100.0)
        # Pre-fix this deadlocked: the queue drained with both transfers
        # parked on each other's link and ends stayed empty.
        assert [(s, d) for s, d, _ in ends] == [("a", "b"), ("b", "a")]
        assert [t for _, _, t in ends] == [pytest.approx(1.0),
                                           pytest.approx(2.0)]

    def test_many_crossing_transfers_drain(self, engine):
        net = self._line(engine)
        done = []

        def xfer(src, dst, tag):
            yield from net.transfer(src, dst, 100_000)
            done.append(tag)

        for i in range(4):
            engine.process(xfer("a", "b", f"fwd{i}"))
            engine.process(xfer("b", "a", f"rev{i}"))
        engine.run(until=100.0)
        assert len(done) == 8

    def test_partially_overlapping_routes_complete(self, engine):
        """Crossing transfers whose routes share only a middle link must
        also drain: w -- e1 -- a -- L1 -- m -- L2 -- b -- e2 -- x with the
        two long routes traversing L1/L2 in opposite directions."""
        net = self._line(engine)
        net.add_host(Host(engine, "w"))
        net.add_host(Host(engine, "x"))
        net.connect("w", "a", Link(engine, "e1", 0.0, 1e6, shared=True))
        net.connect("b", "x", Link(engine, "e2", 0.0, 1e6, shared=True))
        done = []

        def xfer(src, dst):
            yield from net.transfer(src, dst, 500_000)
            done.append((src, dst))

        engine.process(xfer("w", "x"))
        engine.process(xfer("x", "w"))
        engine.process(xfer("b", "a"))
        engine.run(until=100.0)
        assert sorted(done) == [("b", "a"), ("w", "x"), ("x", "w")]

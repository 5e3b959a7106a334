"""Unit tests for the CORBA-substitute transport fabric."""

import pytest

from repro.core import CommunicationError, TransportFabric, TransportParams
from repro.sim import Engine, Host, Link, Network


@pytest.fixture
def stack():
    engine = Engine()
    net = Network(engine)
    for name in ("alpha", "beta"):
        net.add_host(Host(engine, name))
    net.connect("alpha", "beta", Link("wire", 0.010, 1e6))
    fabric = TransportFabric(engine, net,
                             TransportParams(marshal_fixed=1e-3,
                                             marshal_per_byte=0.0,
                                             dispatch_fixed=1e-3))
    return engine, net, fabric


class TestNaming:
    def test_endpoint_registration_and_resolve(self, stack):
        _, _, fabric = stack
        ep = fabric.endpoint("svc", "alpha")
        assert fabric.resolve("svc") is ep

    def test_duplicate_name_rejected(self, stack):
        _, _, fabric = stack
        fabric.endpoint("svc", "alpha")
        with pytest.raises(CommunicationError):
            fabric.endpoint("svc", "beta")

    def test_resolve_unknown_raises(self, stack):
        _, _, fabric = stack
        with pytest.raises(CommunicationError):
            fabric.resolve("ghost")

    def test_endpoint_requires_existing_host(self, stack):
        _, _, fabric = stack
        with pytest.raises(Exception):
            fabric.endpoint("svc", "nonexistent-host")

    def test_unbind(self, stack):
        _, _, fabric = stack
        fabric.endpoint("svc", "alpha")
        fabric.unbind("svc")
        with pytest.raises(CommunicationError):
            fabric.resolve("svc")


class TestRpc:
    def test_request_reply_roundtrip(self, stack):
        engine, _, fabric = stack
        server = fabric.endpoint("server", "beta")
        client = fabric.endpoint("client", "alpha")

        def double(msg):
            yield engine.timeout(0.0)
            return (msg.payload * 2, 64)

        server.on("double", double)

        def call():
            result = yield from client.rpc("server", "double", 21)
            return result, engine.now

        value, elapsed = engine.run_process(call())
        assert value == 42
        # 2 network hops (10ms each) + marshalling/dispatch costs
        assert elapsed > 0.020

    def test_handler_exception_propagates_to_caller(self, stack):
        engine, _, fabric = stack
        server = fabric.endpoint("server", "beta")
        client = fabric.endpoint("client", "alpha")

        def boom(msg):
            yield engine.timeout(0.0)
            raise ValueError("server-side failure")

        server.on("boom", boom)

        def call():
            try:
                yield from client.rpc("server", "boom", None)
            except ValueError as exc:
                return str(exc)

        assert engine.run_process(call()) == "server-side failure"

    def test_unknown_operation_fails_rpc(self, stack):
        engine, _, fabric = stack
        server = fabric.endpoint("server", "beta")
        client = fabric.endpoint("client", "alpha")

        def call():
            try:
                yield from client.rpc("server", "nosuch", None)
            except CommunicationError as exc:
                return "no handler" in str(exc)

        assert engine.run_process(call()) is True

    def test_one_way_send_no_reply(self, stack):
        engine, _, fabric = stack
        server = fabric.endpoint("server", "beta")
        client = fabric.endpoint("client", "alpha")
        seen = []

        def note(msg):
            yield engine.timeout(0.0)
            seen.append(msg.payload)

        server.on("note", note)

        def send():
            yield from client.send("server", "note", "fire-and-forget")

        engine.run_process(send())
        engine.run()
        assert seen == ["fire-and-forget"]

    def test_one_way_send_to_unknown_operation_is_a_dead_letter(self, stack):
        """Nobody can be told, so the loss is at least counted."""
        engine, _, fabric = stack
        server = fabric.endpoint("server", "beta")
        client = fabric.endpoint("client", "alpha")

        def caller():
            yield from client.send("server", "nosuch", "lost")

        engine.run_process(caller())
        engine.run()
        assert fabric.accounting.dead_letters == 1
        assert fabric.messages_sent == 1      # it did cross the wire

    def test_payload_size_charges_transfer_time(self, stack):
        engine, _, fabric = stack
        server = fabric.endpoint("server", "beta")
        client = fabric.endpoint("client", "alpha")

        def ack(msg):
            yield engine.timeout(0.0)
            return ("ok", 64)

        server.on("op", ack)

        def call(nbytes):
            t0 = engine.now
            yield from client.rpc("server", "op", None, nbytes=nbytes)
            return engine.now - t0

        small = engine.run_process(call(100))
        engine2, _, fabric2 = Engine(), None, None  # fresh run for big
        # reuse same engine: sequential calls are fine
        big_proc = engine.process(call(2_000_000))
        engine.run()
        big = big_proc.value
        assert big > small + 1.5   # 2MB at 1MB/s

    def test_counters(self, stack):
        engine, _, fabric = stack
        server = fabric.endpoint("server", "beta")
        client = fabric.endpoint("client", "alpha")

        def ack(msg):
            yield engine.timeout(0.0)
            return ("ok", 10)

        server.on("op", ack)

        def call():
            yield from client.rpc("server", "op", None, nbytes=500)

        engine.run_process(call())
        assert fabric.messages_sent == 2
        assert fabric.bytes_sent == 510

    def test_concurrent_handlers_do_not_block_mailbox(self, stack):
        """A slow solve must not delay estimate replies (the SeD pattern)."""
        engine, _, fabric = stack
        server = fabric.endpoint("server", "beta")
        client = fabric.endpoint("client", "alpha")

        def slow(msg):
            yield engine.timeout(100.0)
            return ("slow-done", 8)

        def fast(msg):
            yield engine.timeout(0.001)
            return ("fast-done", 8)

        server.on("slow", slow)
        server.on("fast", fast)

        results = []

        def caller(op):
            value = yield from client.rpc("server", op, None)
            results.append((op, engine.now))
            return value

        engine.process(caller("slow"))
        engine.process(caller("fast"))
        engine.run()
        assert results[0][0] == "fast"
        assert results[0][1] < 1.0

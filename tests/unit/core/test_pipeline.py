"""Unit tests for the message path of :mod:`repro.core.transport` and the
semantics it guarantees: error propagation, shutdown/unbind dead-lettering,
counter invariants, deadlines/retries and fault injection."""

import pytest

from repro.core import (
    CommunicationError,
    DeadlineExceededError,
    FaultInjector,
    RpcPolicy,
    TransportFabric,
    TransportParams,
)
from repro.sim import Engine, Host, Link, Network
from repro.sim.rng import RandomStreams

MARSHAL = 1e-3
DISPATCH = 1e-3
HOP = 0.010
# marshal + hop + serialization of the default 256 B control payload
XMIT = MARSHAL + HOP + 256 / 1e6


def build_stack(shared=False):
    engine = Engine()
    net = Network(engine)
    for name in ("alpha", "beta"):
        net.add_host(Host(engine, name))
    net.connect("alpha", "beta", Link(engine, "wire", HOP, 1e6, shared=shared))
    fabric = TransportFabric(engine, net,
                             TransportParams(marshal_fixed=MARSHAL,
                                             marshal_per_byte=0.0,
                                             dispatch_fixed=DISPATCH))
    return engine, net, fabric


@pytest.fixture
def stack():
    return build_stack()


def echo_server(engine, fabric, name="server", host="beta"):
    server = fabric.endpoint(name, host)

    def echo(msg):
        yield engine.timeout(0.0)
        return (msg.payload, 64)

    server.on("echo", echo)
    server.start()
    return server


class TestErrorPropagation:
    def test_handler_exception_reaches_caller(self, stack):
        engine, _, fabric = stack
        server = fabric.endpoint("server", "beta")
        client = fabric.endpoint("client", "alpha")

        def boom(msg):
            yield engine.timeout(0.0)
            raise ValueError("kaboom")

        server.on("boom", boom)
        server.start()

        def call():
            with pytest.raises(ValueError, match="kaboom"):
                yield from client.rpc("server", "boom")
            return True

        assert engine.run_process(call())

    def test_missing_handler_replies_communication_error(self, stack):
        engine, _, fabric = stack
        echo_server(engine, fabric)
        client = fabric.endpoint("client", "alpha")

        def call():
            with pytest.raises(CommunicationError, match="no handler"):
                yield from client.rpc("server", "nosuch")
            return True

        assert engine.run_process(call())

    def test_missing_handler_reply_is_counted(self, stack):
        engine, _, fabric = stack
        echo_server(engine, fabric)
        client = fabric.endpoint("client", "alpha")

        def call():
            try:
                yield from client.rpc("server", "nosuch", nbytes=100)
            except CommunicationError:
                pass

        engine.run_process(call())
        # request (100 B) + error reply (128 B) both crossed the wire
        assert fabric.messages_sent == 2
        assert fabric.bytes_sent == 228


class TestShutdownSemantics:
    def test_stop_dead_letters_queued_requests(self, stack):
        """A request that reached a never-started endpoint must fail its
        caller on stop(), not strand it forever."""
        engine, _, fabric = stack
        server = fabric.endpoint("server", "beta")   # never started
        server.on("echo", lambda msg: iter(()))
        client = fabric.endpoint("client", "alpha")
        outcome = {}

        def call():
            try:
                outcome["value"] = yield from client.rpc("server", "echo", 1)
            except CommunicationError as exc:
                outcome["error"] = str(exc)

        caller = engine.process(call())
        engine.run()                      # request delivered, caller parked
        assert outcome == {} and caller.is_alive
        assert fabric.messages_sent == 1 and engine.peek() == float("inf")
        server.stop()
        engine.run()
        assert "stopped" in outcome["error"]
        assert fabric.accounting.dead_letters == 1

    def test_start_serves_the_backlog_in_arrival_order(self, stack):
        """Same parked callers, but the endpoint starts instead of stopping:
        every request that arrived early is handled, first come first."""
        engine, _, fabric = stack
        server = fabric.endpoint("server", "beta")   # not started yet
        handled = []

        def echo(msg):
            handled.append((engine.now, msg.payload))
            yield engine.timeout(0.0)
            return (msg.payload, 64)

        server.on("echo", echo)
        client = fabric.endpoint("client", "alpha")
        values = []

        def call(i):
            yield engine.timeout(0.1 * i)
            values.append((yield from client.rpc("server", "echo", i)))

        for i in (2, 0, 1):
            engine.process(call(i))
        engine.run()
        assert handled == [] and values == []
        assert engine.now == pytest.approx(0.2 + XMIT)
        server.start()
        engine.run()
        at = engine.now - XMIT + 256 / 1e6 - 64 / 1e6   # reply is 64 B
        assert handled == [(pytest.approx(at), i) for i in (0, 1, 2)]
        assert sorted(values) == [0, 1, 2]
        assert fabric.accounting.dead_letters == 0

    def test_duplicated_request_both_handlers_die_with_the_endpoint(self, stack):
        """A duplicated request runs two handlers under one message id;
        stop() must interrupt both, and each must clear only its own entry
        (keyed by id, the second overwrote the first: one handler finished
        at t = 10 on a stopped endpoint)."""

        class AlwaysDup:
            def random(self):
                return 0.0

        engine, _, fabric = stack
        server = fabric.endpoint("server", "beta")
        client = fabric.endpoint("client", "alpha")
        client.faults = FaultInjector(
            rng=AlwaysDup(), duplicate=1.0, points=("send",))
        journal = []

        def slow(msg):
            journal.append(("started", engine.now))
            try:
                yield engine.timeout(10.0)
            except BaseException as exc:
                journal.append((type(exc).__name__, engine.now))
                raise
            journal.append(("finished", engine.now))
            return ("done", 8)

        server.on("slow", slow)
        server.start()
        errors = []

        def call():
            try:
                yield from client.rpc("server", "slow")
            except CommunicationError as exc:
                errors.append((str(exc), engine.now))

        def killer():
            yield engine.timeout(1.0)
            assert len(server._inflight) == 2
            server.stop()

        engine.process(call())
        engine.process(killer())
        engine.run()
        assert [kind for kind, _ in journal] == [
            "started", "started", "Interrupt", "Interrupt"]
        assert [at for _, at in journal[2:]] == [1.0, 1.0]
        assert len(errors) == 1 and errors[0][1] == 1.0
        assert "stopped while handling" in errors[0][0]
        assert server._inflight == {}

    def test_stop_during_the_reply_hooks_dead_letters(self, stack):
        """The replier dies while its reply is still being marshalled: the
        caller gets a CommunicationError when marshalling ends."""
        engine, _, fabric = stack
        server = echo_server(engine, fabric)
        client = fabric.endpoint("client", "alpha")
        handled_at = XMIT + DISPATCH
        outcome = {}

        def call():
            try:
                outcome["value"] = yield from client.rpc("server", "echo", 1)
            except CommunicationError as exc:
                outcome["error"] = (str(exc), engine.now)

        def killer():
            yield engine.timeout(handled_at + MARSHAL / 2)
            assert server._inflight == {}      # handler done, reply leg on
            server.stop()

        engine.process(call())
        engine.process(killer())
        engine.run()
        reason, at = outcome["error"]
        assert "stopped before its 'echo' reply was sent" in reason
        assert at == pytest.approx(handled_at + MARSHAL)
        assert fabric.accounting.dead_letters == 1
        assert fabric.messages_sent == 2       # accounted when marshalled

    def test_stop_during_the_reply_wire_time_still_delivers(self, stack):
        """Once the reply is on the wire the replier's death cannot call it
        back: it arrives when it would have."""
        engine, _, fabric = stack
        server = echo_server(engine, fabric)
        client = fabric.endpoint("client", "alpha")
        handled_at = XMIT + DISPATCH
        outcome = {}

        def call():
            outcome["value"] = yield from client.rpc("server", "echo", 1)
            outcome["at"] = engine.now

        def killer():
            yield engine.timeout(handled_at + MARSHAL + HOP / 2)
            server.stop()

        engine.process(call())
        engine.process(killer())
        engine.run()
        assert outcome["value"] == 1
        assert outcome["at"] == pytest.approx(
            handled_at + MARSHAL + HOP + 64 / 1e6)
        assert fabric.accounting.dead_letters == 0

    def test_unbind_fails_rpc_in_server_handler(self, stack):
        """Unbinding the server while it is solving must resume the caller
        with CommunicationError — and must not crash the engine."""
        engine, _, fabric = stack
        server = fabric.endpoint("server", "beta")
        client = fabric.endpoint("client", "alpha")

        def slow(msg):
            yield engine.timeout(1.0)
            return ("done", 8)

        server.on("slow", slow)
        server.start()
        outcome = {}

        def call():
            try:
                outcome["value"] = yield from client.rpc("server", "slow")
            except CommunicationError as exc:
                outcome["error"] = str(exc)

        def killer():
            yield engine.timeout(0.5)
            fabric.unbind("server")

        engine.process(call())
        engine.process(killer())
        engine.run()
        assert "stopped" in outcome["error"]

    def test_unbind_mid_transfer_raises_in_sender(self, stack):
        """Destination vanishing while the message is on the wire surfaces
        as CommunicationError in the sender."""
        engine, _, fabric = stack
        echo_server(engine, fabric)
        client = fabric.endpoint("client", "alpha")
        outcome = {}

        def call():
            try:
                yield from client.rpc("server", "echo", 1)
            except CommunicationError as exc:
                outcome["error"] = str(exc)

        def killer():
            # after marshalling (1 ms), during the 10 ms network hop
            yield engine.timeout(MARSHAL + HOP / 2)
            fabric.unbind("server")

        engine.process(call())
        engine.process(killer())
        engine.run()
        assert "server" in outcome["error"]

    def test_caller_unbound_before_reply_does_not_crash(self, stack):
        """The reply path must tolerate the *caller* having been unbound
        (the old code resolved it and crashed the engine)."""
        engine, _, fabric = stack
        server = fabric.endpoint("server", "beta")
        client = fabric.endpoint("client", "alpha")

        def slow(msg):
            yield engine.timeout(1.0)
            return ("done", 8)

        server.on("slow", slow)
        server.start()
        outcome = {}

        def call():
            try:
                outcome["value"] = yield from client.rpc("server", "slow")
            except CommunicationError as exc:
                outcome["error"] = str(exc)

        def killer():
            yield engine.timeout(0.5)
            fabric.unbind("client")

        engine.process(call())
        engine.process(killer())
        engine.run()   # must not raise
        assert "unbound" in outcome["error"]
        assert fabric.accounting.dead_letters == 1

    def test_send_to_stopped_endpoint_raises(self, stack):
        engine, _, fabric = stack
        server = echo_server(engine, fabric)
        client = fabric.endpoint("client", "alpha")
        server.stop()

        def send():
            with pytest.raises(CommunicationError):
                yield from client.send("server", "echo", 1)
            return True

        assert engine.run_process(send())


class TestCounters:
    def test_messages_and_bytes_by_op(self, stack):
        engine, _, fabric = stack
        server = fabric.endpoint("server", "beta")
        client = fabric.endpoint("client", "alpha")

        def ack(msg):
            yield engine.timeout(0.0)
            return ("ok", 10)

        server.on("op", ack)
        server.on("other", ack)
        server.start()

        def call():
            for _ in range(3):
                yield from client.rpc("server", "op", None, nbytes=500)
            yield from client.send("server", "other", None, nbytes=7)

        engine.run_process(call())
        engine.run()
        acc = fabric.accounting
        # 3 requests + 3 replies + 1 one-way
        assert fabric.messages_sent == 7
        assert fabric.bytes_sent == 3 * (500 + 10) + 7
        assert acc.messages_by_op == {"op": 6, "other": 1}
        assert acc.dead_letters == 0
        assert acc.messages_dropped == 0
        assert acc.replies_suppressed == 0

    def test_dropped_message_not_counted_on_wire(self, stack):
        engine, _, fabric = stack
        echo_server(engine, fabric)
        client = fabric.endpoint("client", "alpha")
        fault = client.faults = FaultInjector(points=("send",))
        fault.drop_next(1)

        def send():
            yield from client.send("server", "echo", 1, nbytes=1000)

        engine.run_process(send())
        engine.run()
        # the send point sits before marshalling and accounting
        assert fabric.messages_sent == 0
        assert fabric.bytes_sent == 0
        assert fabric.accounting.messages_dropped == 1
        assert fault.dropped == 1


class TestDeadlines:
    def test_deadline_exceeded_raises(self, stack):
        engine, _, fabric = stack
        server = fabric.endpoint("server", "beta")
        client = fabric.endpoint("client", "alpha")
        client.set_deadline(("stall",), 0.5)

        def stall(msg):
            yield engine.timeout(1e9)
            return ("late", 8)

        server.on("stall", stall)
        server.start()

        def call():
            with pytest.raises(DeadlineExceededError):
                yield from client.rpc("server", "stall")
            return engine.now

        # the deadline clock starts once the request is on the wire
        assert engine.run_process(call(), until=1e8) == pytest.approx(0.5 + XMIT)

    def test_ops_filter_limits_policy(self, stack):
        engine, _, fabric = stack
        echo_server(engine, fabric)
        client = fabric.endpoint("client", "alpha")
        client.set_deadline(("other",), 0.5)

        assert client.deadlines == {"other": RpcPolicy(0.5)}

        def call():
            return (yield from client.rpc("server", "echo", 42))

        assert engine.run_process(call()) == 42

    def test_a_later_grpc_set_deadline_replaces_the_earlier_one(self):
        """The deadline is a per-op fact of the endpoint: the last call wins
        (the first grant used to, silently, so 0.5 s here meant 5 s)."""
        from repro.core import DietClient
        from repro.core.gridrpc import grpc_set_deadline

        engine, net, fabric = build_stack()
        server = fabric.endpoint("MA", "beta")

        def silent(msg):
            yield engine.timeout(1e9)

        server.on("submit", silent)
        server.start()
        client = DietClient(fabric, net.host("alpha"))
        assert grpc_set_deadline(client, 5.0) is None
        grpc_set_deadline(client, 0.5, ops=("submit",))
        assert client.endpoint.deadlines == {
            "submit": RpcPolicy(0.5), "solve": RpcPolicy(5.0)}

        def call():
            with pytest.raises(DeadlineExceededError):
                yield from client.endpoint.rpc("MA", "submit")
            return engine.now

        assert engine.run_process(call(), until=1e8) == pytest.approx(0.5 + XMIT)

    def test_retry_recovers_dropped_request(self, stack):
        """Fault injection drops the first request; the deadline's retry
        re-sends it and the RPC still succeeds."""
        engine, _, fabric = stack
        server = echo_server(engine, fabric)
        fault = server.faults = FaultInjector(ops=("echo",),
                                              points=("deliver",))
        fault.drop_next(1)
        client = fabric.endpoint("client", "alpha")
        client.set_deadline(("echo",), 0.5, retries=1)

        def call():
            value = yield from client.rpc("server", "echo", 42)
            return value, engine.now

        value, elapsed = engine.run_process(call(), until=1e8)
        assert value == 42
        assert fault.dropped == 1
        assert elapsed > 0.5              # one full deadline was spent

    def test_late_reply_crosses_the_wire_and_is_not_a_duplicate(self):
        """The handler answers after the attempt's deadline: the reply is
        marshalled, accounted and carried over the (shared) link like any
        other, finds nobody waiting and is *not* counted as a suppressed
        duplicate."""
        engine, net, fabric = build_stack(shared=True)
        (link,) = net.route("alpha", "beta")
        server = fabric.endpoint("server", "beta")
        client = fabric.endpoint("client", "alpha")
        client.set_deadline(("slow",), 0.5)

        def slow(msg):
            yield engine.timeout(1.0)
            return ("late", 4000)

        server.on("slow", slow)
        server.start()

        def call():
            with pytest.raises(DeadlineExceededError):
                yield from client.rpc("server", "slow")
            return engine.now

        on_the_wire = XMIT + DISPATCH + 1.0 + MARSHAL
        slots = []

        def probe():
            yield engine.timeout(on_the_wire + HOP / 2)
            slots.append(link._slot.count)

        caller = engine.process(call())
        engine.process(probe())
        engine.run()
        assert caller.value == pytest.approx(0.5 + XMIT)
        assert fabric.messages_sent == 2 and fabric.bytes_sent == 256 + 4000
        assert net.bytes_total == 256 + 4000
        assert slots == [1]
        assert engine.now == pytest.approx(on_the_wire + HOP + 4000 / 1e6)
        assert fabric.accounting.replies_suppressed == 0
        assert fabric.accounting.dead_letters == 0

    def test_retry_reply_settles_only_its_own_attempt(self, stack):
        """Attempt 0 is answered too late, attempt 1 in time: the caller gets
        attempt 1's value, and attempt 0's late reply — which arrives while
        the caller is still waiting for attempt 1 — neither completes the RPC
        nor counts as a duplicate."""
        engine, _, fabric = stack
        server = fabric.endpoint("server", "beta")
        client = fabric.endpoint("client", "alpha")
        client.set_deadline(("uneven",), 0.5, retries=1)
        served = []

        def uneven(msg):
            served.append(msg.msg_id)
            # first copy: 0.7 s (late for attempt 0, lands mid attempt 1)
            yield engine.timeout(0.7 if len(served) == 1 else 0.4)
            return (f"attempt-{len(served) - 1}-of-{msg.msg_id}", 8)

        server.on("uneven", uneven)
        server.start()

        def call():
            value = yield from client.rpc("server", "uneven")
            return value, engine.now

        value, at = engine.run_process(call())
        assert len(served) == 2 and served[0] != served[1]
        assert value == f"attempt-1-of-{served[1]}"
        reply = MARSHAL + HOP + 8 / 1e6
        assert at == pytest.approx(
            (0.5 + XMIT) + XMIT + DISPATCH + 0.4 + reply)
        assert fabric.messages_sent == 4           # 2 requests, 2 replies
        assert fabric.accounting.replies_suppressed == 0

    def test_retries_exhausted_raises(self, stack):
        engine, _, fabric = stack
        server = echo_server(engine, fabric)
        fault = server.faults = FaultInjector(points=("deliver",))
        fault.drop_next(10)
        client = fabric.endpoint("client", "alpha")
        client.set_deadline(("echo",), 0.25, retries=2, backoff=0.1)

        def call():
            with pytest.raises(DeadlineExceededError, match="3 attempt"):
                yield from client.rpc("server", "echo", 1)
            return engine.now

        # 3 (transmit + deadline) rounds + backoff 0.1 * 1 + 0.1 * 2
        elapsed = engine.run_process(call(), until=1e8)
        assert elapsed == pytest.approx(3 * (0.25 + XMIT) + 0.1 + 0.2)
        assert fault.dropped == 3


class TestFaultInjection:
    def test_validates_arguments(self):
        rng = RandomStreams(7).get("faults")
        with pytest.raises(ValueError):
            FaultInjector(points=("teleport",))
        with pytest.raises(ValueError):
            FaultInjector(points=("reply",))     # went with the framework
        with pytest.raises(ValueError):
            FaultInjector(rng, drop=1.5)
        # a probability that could never fire is an error, not a no-op
        with pytest.raises(ValueError, match="rng"):
            FaultInjector(drop=0.5)
        with pytest.raises(ValueError, match="'send'"):
            FaultInjector(rng, duplicate=0.5, points=("deliver",))
        with pytest.raises(ValueError):
            RpcPolicy(0.0)
        with pytest.raises(ValueError):
            RpcPolicy(1.0, retries=-1)
        engine, _, fabric = build_stack()
        with pytest.raises(ValueError):
            fabric.endpoint("client", "alpha").set_deadline(("echo",), 0.0)

    def test_delay_slows_delivery(self, stack):
        engine, _, fabric = stack
        server = echo_server(engine, fabric)
        server.faults = FaultInjector(delay=5.0, points=("deliver",))
        client = fabric.endpoint("client", "alpha")

        def call():
            value = yield from client.rpc("server", "echo", 7)
            return value, engine.now

        value, elapsed = engine.run_process(call())
        assert value == 7
        assert elapsed > 5.0

    def test_fault_points_relative_to_the_charges(self, stack):
        """The two fault points relative to the path's own charges, event by
        event: the sender's strikes before the marshalling charge, the
        receiver's after the dispatch charge.  Each delay is one ``Timeout``
        in the process the point runs in; the path itself is seven events per
        deadline-less RPC and spends none on the hand-off to the endpoint,
        the reply leg (the handler's process runs it) or a process finishing
        with nobody waiting on it."""
        engine, _, fabric = stack
        engine.event_log = []
        echo_server(engine, fabric).faults = FaultInjector(
            delay=0.003, points=("deliver",))
        client = fabric.endpoint("client", "alpha")
        client.faults = FaultInjector(delay=0.002, points=("send",))

        def call():
            return (yield from client.rpc("server", "echo", "hi"))

        assert engine.run_process(call()) == "hi"
        assert engine.event_log == [
            (0.0, 0, 0, "Timeout", None),             # boot call
            (0.002, 1, 1, "Timeout", None),           # client send fault
            (0.003, 1, 2, "Timeout", None),           # marshalling
            (0.013256, 1, 3, "Timeout", None),        # wire
            (0.013256, 0, 4, "Timeout", None),        # boot server:echo#1
            (0.014256000000000001, 1, 5, "Timeout", None),  # dispatch
            (0.017256, 1, 6, "Timeout", None),        # server deliver fault
            (0.017256, 1, 7, "Timeout", None),        # handler's timeout(0)
            (0.018256, 1, 8, "Timeout", None),        # reply marshalling
            (0.02832, 1, 9, "Timeout", None),         # wire
            (0.02832, 1, 10, "Event", None),          # reply token
        ]

    def test_duplicate_reply_suppressed(self, stack):
        """A duplicated request produces two replies; at-most-once delivery
        suppresses the second instead of double-triggering the event."""

        class AlwaysDup:
            def random(self):
                return 0.0   # every probabilistic draw fires

        engine, _, fabric = stack
        server = echo_server(engine, fabric)
        client = fabric.endpoint("client", "alpha")
        client.faults = FaultInjector(
            rng=AlwaysDup(), duplicate=1.0, points=("send",))
        results = []

        def call():
            value = yield from client.rpc("server", "echo", 5)
            results.append(value)

        engine.run_process(call())
        engine.run()
        assert results == [5]
        # the duplicate's reply, to an attempt already *answered*, is marked
        assert fabric.accounting.replies_suppressed == 1

    def test_probabilistic_drop_uses_rng_stream(self, stack):
        engine, _, fabric = stack
        server = echo_server(engine, fabric)
        fault = server.faults = FaultInjector(
            rng=RandomStreams(7).get("faults"), drop=0.5, points=("deliver",))
        client = fabric.endpoint("client", "alpha")
        client.set_deadline(("echo",), 0.1, retries=5)
        ok = []

        def call(i):
            try:
                ok.append((yield from client.rpc("server", "echo", i)))
            except DeadlineExceededError:
                pass

        for i in range(20):
            engine.process(call(i))
        engine.run()
        assert fault.dropped > 0
        assert len(ok) == 20          # retries recovered every drop

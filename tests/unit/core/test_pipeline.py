"""Unit tests for the message path of :mod:`repro.core.transport` and the
semantics it guarantees: error propagation, shutdown/unbind dead-lettering,
counter invariants, deadlines and fault injection."""

import pytest

from repro.core import (
    CommunicationError,
    DeadlineExceededError,
    FaultInjector,
    TransportFabric,
    TransportParams,
)
from repro.sim import Engine, Host, Interrupt, Link, Network
from repro.sim.rng import RandomStreams

MARSHAL = 1e-3
DISPATCH = 1e-3
HOP = 0.010
# marshal + hop + serialization of the default 256 B control payload
XMIT = MARSHAL + HOP + 256 / 1e6


def build_stack():
    engine = Engine()
    net = Network(engine)
    for name in ("alpha", "beta"):
        net.add_host(Host(engine, name))
    net.connect("alpha", "beta", Link("wire", HOP, 1e6))
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

    def test_stop_during_the_dispatch_charge_dead_letters(self, stack):
        """The server stops while the request pays its dispatch charge,
        before its handler has started: the handler still boots at its
        dispatch end, where the caller gets a CommunicationError, and
        nothing escapes the engine."""
        engine, _, fabric = stack
        server = echo_server(engine, fabric)
        client = fabric.endpoint("client", "alpha")
        stop_at = XMIT + DISPATCH / 2
        outcome = {}

        def call():
            try:
                outcome["value"] = yield from client.rpc("server", "echo", 1)
            except CommunicationError as exc:
                outcome["error"] = (str(exc), engine.now)

        def killer():
            yield engine.timeout(stop_at)
            server.stop()

        engine.process(call())
        engine.process(killer())
        engine.run()
        reason, at = outcome["error"]
        assert reason == "endpoint 'server' stopped while handling 'echo'"
        assert at == pytest.approx(XMIT + DISPATCH)
        assert fabric.accounting.dead_letters == 1
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


#: Cancel instants of the submit: (seconds after the post, whether the
#: cancel's timer is dispatched before the message's at a shared instant).
CANCEL_INSTANTS = {
    "marshalling": (MARSHAL / 2, False),
    "marshal-end": (MARSHAL, False),
    "cancel-first": (MARSHAL, True),   # at the marshal end too
    "wire": (MARSHAL + HOP / 2, False),
}
#: The MA's host per route: across the WAN uplink, or the client's own.
MA_HOSTS = {"wan": "beta", "self": "alpha"}


class TestSenderInterrupt:
    """``grpc_cancel`` while the submit is on its way to the MA, over a WAN
    link or the self route (the MA on the client's host, ``"alpha"``): the
    caller stops waiting, and the message is not taken back — it is counted
    once, delivered and served, and its reply finds nobody waiting."""

    @pytest.mark.parametrize("instant, route", [
        (instant, route) for route in MA_HOSTS for instant in CANCEL_INSTANTS
        # The self route has no wire: by then the reply has arrived.
        if (instant, route) != ("wire", "self")])
    def test_cancelled_submit_arrives(self, instant, route):
        from repro.core import BaseType, DietClient, ProfileDesc, scalar_desc
        from repro.core.gridrpc import grpc_call_async, grpc_cancel

        at, cancel_first = CANCEL_INSTANTS[instant]
        ma_host = MA_HOSTS[route]
        engine = Engine()
        net = Network(engine)
        for name in ("alpha", "beta"):
            net.add_host(Host(engine, name))
        net.connect("alpha", "beta", Link("uplink", HOP, 1e6, wan=True))
        fabric = TransportFabric(engine, net, TransportParams(
            marshal_fixed=MARSHAL, marshal_per_byte=0.0,
            dispatch_fixed=DISPATCH))
        ma = fabric.endpoint("MA", ma_host)
        served = []

        def submit(msg):
            served.append(msg.op)
            yield engine.timeout(0.0)

        ma.on("submit", submit)
        client = DietClient(fabric, net.host("alpha"))
        client.initialize({"MA_name": "MA"})
        desc = ProfileDesc("echo", 0, 0, 1)
        desc.set_arg(0, scalar_desc(BaseType.INT))
        desc.set_arg(1, scalar_desc(BaseType.INT))
        profile = desc.instantiate()
        profile.parameter(0).set(1)
        profile.parameter(1).set(None)
        request = None

        def cancel():
            yield engine.timeout(at)
            assert grpc_cancel(request)

        if cancel_first:
            engine.process(cancel())
        request = grpc_call_async(client, client.function_handle("echo"),
                                  profile)
        if not cancel_first:
            engine.process(cancel())
        engine.run()
        assert request.status() == DietClient.STATUS_CANCELLED
        assert served == ["submit"] and not ma._inflight
        acct = fabric.accounting
        # The submit and its reply, each counted once; only the WAN route
        # puts them on the network.
        wire_bytes = 2 * 256 if route == "wan" else 0
        assert (acct.messages_sent, acct.bytes_sent, acct.messages_by_op,
                net.bytes_total, net.bytes_wan) == (
            2, 2 * 256, {"submit": 2}, wire_bytes, wire_bytes)
        assert acct.dead_letters == acct.replies_suppressed == 0

    def test_an_interrupted_one_way_send_still_delivers(self, stack):
        """The sender dies with its one-way message on the wire: the
        message arrives at its wire end and is served all the same."""
        engine, net, fabric = stack
        server = fabric.endpoint("server", "beta")
        client = fabric.endpoint("client", "alpha")
        served = []

        def note(msg):
            served.append((msg.payload, engine.now))
            yield engine.timeout(0.0)

        server.on("note", note)
        outcome = {}

        def sender():
            try:
                yield from client.send("server", "note", 7)
            except Interrupt:
                outcome["interrupted"] = engine.now

        proc = engine.process(sender())

        def killer():
            yield engine.timeout(MARSHAL + HOP / 2)
            proc.interrupt()

        engine.process(killer())
        engine.run()
        assert outcome == {"interrupted": MARSHAL + HOP / 2}
        assert served == [(7, pytest.approx(XMIT + DISPATCH))]
        assert fabric.messages_sent == 1 and net.bytes_total == 256
        assert fabric.accounting.dead_letters == 0

    def test_a_cancelled_rpc_leaves_no_deadline_behind(self, stack):
        """An RPC with a deadline is interrupted while its request is on the
        wire: the request still arrives, but starts no deadline, since
        nobody waits on its reply token — every deadline queue is empty
        with no timer armed just after the arrival, and nothing raises
        when the reply nobody waits for comes back."""
        engine, _, fabric = stack
        server = echo_server(engine, fabric)
        client = fabric.endpoint("client", "alpha")
        client.set_deadline(("echo",), 0.5)
        outcome = {}

        def call():
            try:
                yield from client.rpc("server", "echo", 1)
            except Interrupt:
                outcome["interrupted"] = engine.now

        proc = engine.process(call())

        def killer():
            yield engine.timeout(MARSHAL + HOP / 2)
            proc.interrupt()

        engine.process(killer())

        def no_deadline_pending():
            assert fabric._deadline_queues
            for queue in fabric._deadline_queues.values():
                assert not queue._pending and queue._timer is None

        # Past the request's arrival (XMIT), before its handler boots.
        engine.run(until=XMIT + DISPATCH / 2)
        assert outcome == {"interrupted": MARSHAL + HOP / 2}
        assert fabric.messages_sent == 1 and len(server._inflight) == 1
        no_deadline_pending()
        engine.run()
        no_deadline_pending()
        assert fabric.messages_sent == 2
        acct = fabric.accounting
        assert acct.dead_letters == acct.replies_suppressed == 0

    def test_a_cancelled_gather_leaves_no_deadline_behind(self):
        """An agent's estimate gather is interrupted while its two requests
        are on the wire: both still arrive, but start no deadline, since
        the gather's join no longer waits on their reply tokens."""
        from repro.core import BaseType, ProfileDesc, scalar_desc
        from repro.core.agent import AgentParams, LocalAgent
        from repro.core.requests import EstimateRequest

        engine, net, fabric = build_stack()
        agent = LocalAgent(fabric, net.host("alpha"), "LA",
                           params=AgentParams(child_timeout=5.0))
        arrivals = []

        def estimate(msg):
            arrivals.append(engine.now)
            yield engine.timeout(0.0)
            return ([], 128)

        for name in ("sed0", "sed1"):
            net.add_host(Host(engine, name))
            net.connect("alpha", name, Link(f"to-{name}", HOP, 1e6))
            child = fabric.endpoint(name, name)
            child.on("estimate", estimate)
            agent.add_child(name)
        agent.launch()
        desc = ProfileDesc("echo", 0, 0, 1)
        desc.set_arg(0, scalar_desc(BaseType.INT))
        desc.set_arg(1, scalar_desc(BaseType.INT))
        outcome = {}

        def gather():
            try:
                yield from agent._gather(EstimateRequest(0, desc))
            except Interrupt:
                outcome["interrupted"] = engine.now

        proc = engine.process(gather())
        on_wire = agent.params.processing_time + MARSHAL

        def killer():
            yield engine.timeout(on_wire + HOP / 2)
            proc.interrupt()

        engine.process(killer())

        def no_deadline_pending():
            assert fabric._deadline_queues
            for queue in fabric._deadline_queues.values():
                assert not queue._pending and queue._timer is None

        # Past both arrivals, with both replies still on the wire.
        engine.run(until=on_wire + 1.5 * HOP)
        assert outcome == {"interrupted": pytest.approx(on_wire + HOP / 2)}
        assert len(arrivals) == 2 and fabric.messages_sent == 4
        no_deadline_pending()
        engine.run()
        no_deadline_pending()
        acct = fabric.accounting
        assert acct.dead_letters == acct.replies_suppressed == 0


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

        assert client.deadlines == {"other": 0.5}

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
        client = DietClient(fabric, net.host("alpha"))
        assert grpc_set_deadline(client, 5.0) is None
        grpc_set_deadline(client, 0.5, ops=("submit",))
        assert client.endpoint.deadlines == {"submit": 0.5, "solve": 5.0}

        def call():
            with pytest.raises(DeadlineExceededError):
                yield from client.endpoint.rpc("MA", "submit")
            return engine.now

        assert engine.run_process(call(), until=1e8) == pytest.approx(0.5 + XMIT)

    def test_late_reply_crosses_the_wire_and_is_not_a_duplicate(self):
        """The handler answers after the RPC's deadline: the reply is
        marshalled, accounted and carried over the link like any other,
        finds nobody waiting and is *not* counted as a suppressed
        duplicate."""
        engine, net, fabric = build_stack()
        server = fabric.endpoint("server", "beta")
        client = fabric.endpoint("client", "alpha")
        client.set_deadline(("slow",), 0.5)

        def slow(msg):
            yield engine.timeout(1.0)
            return ("late", 4000)

        server.on("slow", slow)

        def call():
            with pytest.raises(DeadlineExceededError):
                yield from client.rpc("server", "slow")
            return engine.now

        on_the_wire = XMIT + DISPATCH + 1.0 + MARSHAL
        caller = engine.process(call())
        engine.run()
        assert caller.value == pytest.approx(0.5 + XMIT)
        assert fabric.messages_sent == 2 and fabric.bytes_sent == 256 + 4000
        assert net.bytes_total == 256 + 4000
        assert engine.now == pytest.approx(on_the_wire + HOP + 4000 / 1e6)
        assert fabric.accounting.replies_suppressed == 0
        assert fabric.accounting.dead_letters == 0


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
        client = build_stack()[2].endpoint("client", "alpha")
        for deadline in (0.0, -1.0):
            with pytest.raises(ValueError, match="positive"):
                client.set_deadline(("echo",), deadline)
        assert client.deadlines == {}

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
        receiver's after the dispatch charge.  The sender's delay is part of
        the request's one timer, at ``((now + delay) + marshal) + wire``;
        the receiver's is one ``Timeout`` in the handler's process.  The
        path itself is five events per RPC and spends none on the hand-off
        to the endpoint, the dispatch charge (the handler boots at its
        end), the reply leg (the handler's process runs it) or a process
        finishing with nobody waiting on it.  Derived from the parent's ten
        rows by dropping its send-fault row, (0.002, 1, 1), whose delay the
        request's timer now reaches at the same 0.013256, and its handler
        boot row, (0.013256, 0, 3): the boot is the dispatch row."""
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
            (0.013256, 1, 1, "Timeout", None),        # fault + marshal + wire
            (0.014256000000000001, 1, 2, "Timeout", None),  # dispatch, boot
            (0.017256, 1, 3, "Timeout", None),        # server deliver fault
            (0.017256, 1, 4, "Timeout", None),        # handler's timeout(0)
            (0.018256, 1, 5, "Timeout", None),        # reply marshalling
            (0.02832, 1, 6, "Timeout", None),         # wire
            (0.02832, 1, 7, "Event", None),           # reply token
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
        client.set_deadline(("echo",), 0.1)
        ok, missed = [], []

        def call(i):
            try:
                ok.append((yield from client.rpc("server", "echo", i)))
            except DeadlineExceededError:
                missed.append(i)

        for i in range(20):
            engine.process(call(i))
        engine.run()
        assert 0 < fault.dropped < 20
        # Every dropped request is one missed deadline, and nothing else is.
        assert len(missed) == fault.dropped and len(ok) + len(missed) == 20

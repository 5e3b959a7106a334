"""The compiled message path and its pure-Python mirror, branch by branch.

Each scenario runs twice in one session: on the session's
``repro.core.transport`` and on the ``pure_transport`` fixture's.  Both runs
must give the caller the same outcome, leave the same ``Accounting``
counters, network byte counts and deadline queues, and dispatch the same
kernel events (``Engine.event_log``: instant, priority, sequence number,
kind and name).
"""

import pytest

from repro.core import CommunicationError, DeadlineExceededError
from repro.sim import Host, Link, Network

MARSHAL = 1e-3
DISPATCH = 1e-3


class Harness:
    """One two-host stack on one transport module."""

    def __init__(self, transport):
        self.t = transport
        self.engine = engine = transport.Engine()
        engine.event_log = []
        self.net = Network(engine)
        for name in ("alpha", "beta"):
            self.net.add_host(Host(engine, name))
        self.net.connect("alpha", "beta", Link("wire", 0.010, 1e6, wan=True))
        self.fabric = transport.TransportFabric(
            engine, self.net, transport.TransportParams(
                marshal_fixed=MARSHAL, marshal_per_byte=1e-7,
                dispatch_fixed=DISPATCH))
        self.server = self.fabric.endpoint("server", "beta")
        self.client = self.fabric.endpoint("client", "alpha")
        self.outcome = []

    def at(self, delay, action):
        """Run ``action()`` ``delay`` seconds from now."""
        def later():
            yield self.engine.timeout(delay)
            action()
        self.engine.process(later())

    def call(self, op, payload=None):
        """An RPC whose outcome is recorded with its instant."""
        def caller():
            try:
                value = yield from self.client.rpc("server", op, payload)
            except Exception as exc:
                self.outcome.append((type(exc).__name__, str(exc),
                                     self.engine.now))
            else:
                self.outcome.append(("ok", value, self.engine.now))
        self.engine.process(caller())

    def gather(self, ops):
        """A fan-out over ``ops``: one ``request`` each, joined, as an
        agent's gather; an interrupt detaches the join."""
        def gatherer():
            tokens = [self.client.request("server", op) for op in ops]
            join = self.engine.all_of(tokens)
            try:
                yield join
            except self.t.Interrupt as intr:
                join._detach()
                self.outcome.append(("interrupted", intr.cause,
                                     self.engine.now))
                return
            self.outcome.append(("joined", [token.value for token in tokens],
                                 self.engine.now))
        return self.engine.process(gatherer())

    def queues(self):
        """Attempts pending and timers armed, over the deadline queues."""
        queues = self.fabric._deadline_queues.values()
        return (sum(len(queue._pending) for queue in queues),
                sum(queue._timer is not None for queue in queues))

    def send(self, op, payload=None):
        def sender():
            try:
                yield from self.client.send("server", op, payload)
            except CommunicationError as exc:
                self.outcome.append(("lost", str(exc), self.engine.now))
            else:
                self.outcome.append(("sent", self.engine.now))
        self.engine.process(sender())

    def run(self):
        try:
            self.engine.run()
        except Exception as exc:
            self.outcome.append(("escalated", type(exc).__name__, str(exc)))
        acct = self.fabric.accounting
        counts = {key: getattr(acct, key) for key in (
            "messages_sent", "bytes_sent", "messages_by_op",
            "messages_dropped", "dead_letters", "replies_suppressed")}
        counts.update(bytes_total=self.net.bytes_total,
                      bytes_wan=self.net.bytes_wan,
                      inflight=len(self.server._inflight),
                      queues=self.queues())
        return self.outcome, counts, self.engine.event_log


def both(pure_transport, scenario):
    """Run ``scenario(harness)`` on both legs; return the session leg's
    (outcome, counters, event log) once it is shown equal to the mirror's."""
    import repro.core.transport as session_transport

    results = []
    for transport in (session_transport, pure_transport):
        harness = Harness(transport)
        scenario(harness)
        results.append(harness.run())
    assert results[0][0] == results[1][0]
    assert results[0][1] == results[1][1]
    assert results[0][2] == results[1][2]
    assert results[0][2], "the scenario dispatched no events"
    return results[0]


def echo(h, delay=0.2, nbytes=64):
    def handler(msg):
        yield h.engine.timeout(delay)
        return msg.payload, nbytes
    return handler


def test_the_session_leg_is_the_compiled_one_unless_forced_pure():
    import repro.core.transport as transport
    from repro.sim.simcore import HEAP_IMPL

    compiled = HEAP_IMPL == "c"
    assert (transport.Message.__module__ == "_simcore") == compiled
    assert (transport._Leg.__module__ == "_simcore") == compiled


def test_a_reply(pure_transport):
    def scenario(h):
        h.server.on("echo", echo(h))
        h.call("echo", 7)

    outcome, counts, log = both(pure_transport, scenario)
    assert outcome == [("ok", 7, pytest.approx(0.2 + 0.022, abs=2e-3))]
    assert counts["messages_by_op"] == {"echo": 2}
    assert counts["bytes_sent"] == 256 + 64 == counts["bytes_wan"]
    assert ("Process" not in {kind for _, _, _, kind, _ in log})


def test_no_handler_for_an_rpc(pure_transport):
    def scenario(h):
        h.call("nothing")

    outcome, counts, _ = both(pure_transport, scenario)
    assert outcome[0][:2] == (
        "CommunicationError",
        "endpoint 'server' has no handler for 'nothing'")
    assert counts["bytes_sent"] == 256 + 128


def test_no_handler_for_a_one_way_message(pure_transport):
    def scenario(h):
        h.send("nothing")

    outcome, counts, _ = both(pure_transport, scenario)
    assert [kind for kind, *_ in outcome] == ["sent"]
    assert counts["dead_letters"] == 1 and counts["messages_sent"] == 1


def test_deliver_point_drop(pure_transport):
    def scenario(h):
        h.server.faults = h.t.FaultInjector(points=("deliver",))
        h.server.faults.drop_next(1)
        h.client.set_deadline(["echo"], 0.5)
        h.server.on("echo", echo(h))
        h.call("echo", 1)

    outcome, counts, _ = both(pure_transport, scenario)
    assert outcome[0][0] == "DeadlineExceededError"
    assert counts["messages_dropped"] == 1 and counts["messages_sent"] == 1


def test_stop_during_a_deliver_point_delay(pure_transport):
    def scenario(h):
        h.server.faults = h.t.FaultInjector(delay=0.5, points=("deliver",))
        h.server.on("echo", echo(h))
        h.call("echo", 1)

        def stop():
            h.outcome.append(("booted", [proc.booted for proc in
                                         h.server._inflight.values()]))
            h.server.stop()
        h.at(0.2, stop)

    outcome, counts, _ = both(pure_transport, scenario)
    assert outcome[0] == ("booted", [True])
    assert outcome[1][:2] == ("CommunicationError",
                              "endpoint 'server' stopped while handling 'echo'")
    assert outcome[1][2] == pytest.approx(0.2)
    assert counts["dead_letters"] == 1 and counts["inflight"] == 0


def test_stop_during_the_dispatch_charge(pure_transport):
    def scenario(h):
        h.server.on("echo", echo(h))
        h.call("echo", 1)

        def stop():
            h.outcome.append(("booted", [proc.booted for proc in
                                         h.server._inflight.values()]))
            h.server.stop()
        h.at(0.0115, stop)   # wire end 0.011256, dispatch end 0.012256

    outcome, counts, _ = both(pure_transport, scenario)
    assert outcome[0] == ("booted", [False])
    assert outcome[1][1] == "endpoint 'server' stopped while handling 'echo'"
    assert counts["dead_letters"] == 1 and counts["inflight"] == 0


def test_handler_raises(pure_transport):
    def scenario(h):
        def boom(msg):
            yield h.engine.timeout(0.1)
            raise ValueError(f"bad {msg.payload}")
        h.server.on("boom", boom)
        h.call("boom", 3)

    outcome, counts, _ = both(pure_transport, scenario)
    assert outcome[0][:2] == ("ValueError", "bad 3")
    assert counts["bytes_sent"] == 256 + 128


def test_one_way_handler_raises_and_escalates(pure_transport):
    def scenario(h):
        def boom(msg):
            yield h.engine.timeout(0.1)
            raise ValueError("one-way")
        h.server.on("boom", boom)
        h.send("boom")

    outcome, counts, log = both(pure_transport, scenario)
    assert outcome[-1] == ("escalated", "ValueError", "one-way")
    assert log[-1][3:] == ("Process", "server:boom#1")
    assert counts["inflight"] == 0


def test_interrupt_in_the_middle_of_a_handler(pure_transport):
    def scenario(h):
        journal = []

        def slow(msg):
            try:
                yield h.engine.timeout(1.0)
            except h.t.Interrupt as exc:
                journal.append(str(exc.cause))
                raise
            return "done"
        h.server.on("slow", slow)
        h.call("slow")
        h.at(0.5, h.server.stop)
        h.at(0.6, lambda: h.outcome.append(("journal", journal)))

    outcome, counts, _ = both(pure_transport, scenario)
    assert outcome[0][:2] == ("CommunicationError",
                              "endpoint 'server' stopped while handling 'slow'")
    assert outcome[1] == ("journal", ["endpoint 'server' stopped"])
    assert counts["dead_letters"] == 1 and counts["inflight"] == 0


class AlwaysDuplicate:
    def random(self):
        return 0.0


def test_send_point_duplicate(pure_transport):
    def scenario(h):
        h.client.faults = h.t.FaultInjector(
            rng=AlwaysDuplicate(), duplicate=1.0, points=("send",))
        h.server.on("echo", echo(h))
        h.call("echo", 5)

    outcome, counts, _ = both(pure_transport, scenario)
    assert [kind for kind, *_ in outcome] == ["ok"]
    # Both replies cross the wire; the second finds the token answered.
    assert counts["messages_by_op"] == {"echo": 3}
    assert counts["replies_suppressed"] == 1


def test_duplicate_reply_suppressed_before_its_marshal(pure_transport):
    def scenario(h):
        h.client.faults = h.t.FaultInjector(
            rng=AlwaysDuplicate(), duplicate=1.0, points=("send",))
        runs = []

        def once_slow(msg):
            runs.append(msg.msg_id)
            yield h.engine.timeout(0.1 if len(runs) == 1 else 1.0)
            return msg.payload
        h.server.on("echo", once_slow)
        h.call("echo", 5)

    outcome, counts, _ = both(pure_transport, scenario)
    assert [kind for kind, *_ in outcome] == ["ok"]
    assert counts["messages_by_op"] == {"echo": 2}
    assert counts["replies_suppressed"] == 1


def test_replier_stopped_before_its_marshal_end(pure_transport):
    def scenario(h):
        h.server.on("echo", echo(h, delay=0.1))
        h.call("echo", 1)
        h.at(0.1 + 0.0123 + MARSHAL / 2, h.server.stop)

    outcome, counts, _ = both(pure_transport, scenario)
    assert outcome[0][1] == ("endpoint 'server' stopped before its 'echo' "
                             "reply was sent")
    assert counts["dead_letters"] == 1 and counts["messages_sent"] == 2


def test_caller_unbound_before_the_reply(pure_transport):
    def scenario(h):
        h.server.on("echo", echo(h, delay=0.1))
        h.call("echo", 1)
        h.at(0.05, lambda: h.fabric.unbind("client"))

    outcome, counts, _ = both(pure_transport, scenario)
    assert outcome[0][1] == "caller 'client' unbound before its 'echo' " \
                            "reply arrived"
    assert counts["dead_letters"] == 1


def test_late_reply_after_the_deadline_expired(pure_transport):
    def scenario(h):
        h.client.set_deadline(["echo"], 0.05)
        h.server.on("echo", echo(h, delay=0.5))
        h.call("echo", 1)

    outcome, counts, _ = both(pure_transport, scenario)
    assert outcome[0][0] == DeadlineExceededError.__name__
    # The late reply crosses the wire and finds nobody: no duplicate.
    assert counts["messages_sent"] == 2 and counts["replies_suppressed"] == 0


#: A request's arrival: its marshal, then its wire, for a 256-byte message.
ARRIVAL = (MARSHAL + 256e-7) + (0.010 + 256 / 1e6)
#: An echo reply's marshal and wire, for 64 bytes.
REPLY = (MARSHAL + 64e-7) + (0.010 + 64 / 1e6)


def test_expiry_at_arrival_plus_the_deadline(pure_transport):
    def scenario(h):
        h.server.faults = h.t.FaultInjector(points=("deliver",))
        h.server.faults.drop_next(1)
        h.client.set_deadline(["echo"], 0.05)
        h.server.on("echo", echo(h))
        h.call("echo", 1)

    outcome, counts, log = both(pure_transport, scenario)
    assert outcome == [("DeadlineExceededError",
                        "rpc 'echo' to 'server' exceeded 0.05s deadline",
                        ARRIVAL + 0.05)]
    assert counts["queues"] == (0, 0) and counts["messages_dropped"] == 1
    # Request, dispatch charge, the deadline's one timer, the token.
    assert [kind for *_, kind, _ in log] == [
        "Timeout", "Timeout", "Timeout", "Timeout", "Event"]


def test_two_expiries_at_one_instant_in_send_order(pure_transport):
    def scenario(h):
        h.server.faults = h.t.FaultInjector(points=("deliver",))
        h.server.faults.drop_next(2)
        h.client.set_deadline(["b", "a"], 0.05)
        for op in ("b", "a"):
            h.server.on(op, echo(h))
        h.call("b")
        h.call("a")

    outcome, counts, log = both(pure_transport, scenario)
    assert [(text.split()[1], at) for _, text, at in outcome] == [
        ("'b'", ARRIVAL + 0.05), ("'a'", ARRIVAL + 0.05)]
    # One timer expires both attempts.
    assert [row[3] for row in log if row[0] == ARRIVAL + 0.05] == [
        "Timeout", "Event", "Event"]
    assert counts["queues"] == (0, 0)


def test_the_timer_re_arms_after_its_head_was_answered(pure_transport):
    def scenario(h):
        h.server.faults = h.t.FaultInjector(points=("deliver",), ops=["lost"])
        h.server.faults.drop_next(1)
        h.client.set_deadline(["quick", "lost"], 0.05)
        h.server.on("quick", echo(h, delay=0.001))
        h.server.on("lost", echo(h))
        h.call("quick")
        h.at(0.005, lambda: h.call("lost"))
        h.at(0.02, lambda: h.outcome.append(("queues", h.queues())))
        h.at(0.03, lambda: h.outcome.append(("queues", h.queues())))

    outcome, counts, log = both(pure_transport, scenario)
    # The head was answered; the timer still waits at its expiry, for the
    # one attempt left.
    answered = ARRIVAL + DISPATCH + 0.001 + REPLY
    assert outcome[:3] == [("queues", (2, 1)),
                           ("ok", None, pytest.approx(answered)),
                           ("queues", (1, 1))]
    assert outcome[3][0] == "DeadlineExceededError"
    assert outcome[3][2] == pytest.approx(0.005 + ARRIVAL + 0.05)
    # It fired at the head's expiry and re-armed at the new head's.
    timers = [row[0] for row in log if row[3] == "Timeout"]
    assert ARRIVAL + 0.05 in timers and outcome[3][2] in timers
    assert counts["queues"] == (0, 0)


def test_an_interrupted_gather_leaves_every_queue_empty(pure_transport):
    def scenario(h):
        h.client.set_deadline(["echo"], 0.05)
        h.server.on("echo", echo(h, delay=0.01))
        proc = h.gather(["echo", "echo", "echo"])
        h.at(ARRIVAL / 2, lambda: proc.interrupt("cancelled"))
        # Just after the three requests arrived, to nobody waiting.
        h.at(ARRIVAL + 1e-4, lambda: h.outcome.append(("queues", h.queues())))

    outcome, counts, _ = both(pure_transport, scenario)
    assert outcome == [("interrupted", "cancelled", ARRIVAL / 2),
                       ("queues", (0, 0))]
    # The requests went on and their replies found nobody waiting.
    assert counts["messages_sent"] == 6 and counts["replies_suppressed"] == 0
    assert counts["queues"] == (0, 0) and counts["inflight"] == 0


def test_a_gather_joins_every_reply(pure_transport):
    def scenario(h):
        h.client.set_deadline(["echo"], 0.05)
        h.server.on("echo", echo(h, delay=0.01))
        h.gather(["echo", "echo"])

    outcome, counts, log = both(pure_transport, scenario)
    assert outcome[0][:2] == ("joined", [("ok", None), ("ok", None)])
    assert log[-1][3] == "AllOf" and counts["queues"] == (0, 0)

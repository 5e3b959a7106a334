"""RPC deadlines as one queue per length, against one ``Timeout`` per RPC.

``Endpoint.rpc`` keeps the pending deadlines of a fabric's RPCs in a FIFO per
deadline length, expired by one armed timer.  The oracle is the semantics it
replaced, written out here: every RPC arms its own ``Timeout`` at
``t_send + deadline`` that settles the reply token unless the reply came
first.  One client endpoint with two deadline lengths calls a server at
random send times; every RPC is answered in time, lost, or answered late.
Both runs must see the same outcomes at the same instants, and the queue
run must hold:

* every unanswered RPC expires at exactly ``t_send + deadline``;
* an answered RPC never expires;
* at most one deadline timer per (fabric, length) is on the heap, and no
  RPC stays queued once its reply was dispatched, after every event;
* at quiescence the queues are empty with no timer armed, and no handler is
  in flight.
"""

import gc

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DeadlineExceededError, TransportFabric, TransportParams
from repro.core import transport
from repro.sim import Engine, Host, Link, Network
from repro.sim.simcore import PyEventHeap

#: The two deadline lengths on the one client endpoint.
LENGTHS = (0.5, 0.8)
ANSWER, LOST, LATE = "answer", "lost", "late"


class OneTimeoutPerRpc:
    """An RPC's deadline as it was: its own ``Timeout``, armed where
    ``Endpoint.rpc`` starts the deadline (when the request arrives), that
    settles the reply token unless the reply came first."""

    def __init__(self, engine, deadline):
        self.engine = engine
        self.deadline = deadline

    def add(self, reply):
        def expire(_, reply=reply):
            if not reply.triggered:
                reply.succeed(transport._EXPIRED)

        self.engine.timeout(self.deadline).callbacks.append(expire)


def oracle_rpc(endpoint, dst, op):
    """``Endpoint.rpc`` as it was: one :meth:`Endpoint.request` whose
    deadline is a :class:`OneTimeoutPerRpc` (see :func:`run`)."""
    result = yield endpoint.request(dst, op)
    if result is transport._EXPIRED:
        raise DeadlineExceededError(op)
    return result[1]


class _ScriptedLoss:
    """The server's fault seam: loses the requests the script says to, and
    records when each request reached it (its arrival + the dispatch
    charge)."""

    points = ("deliver",)

    def __init__(self, engine, fates):
        self.engine = engine
        self.fates = fates
        self.struck = []

    def strike(self, point, op):
        self.struck.append(self.engine.now)
        return None if self.fates[op][0] == LOST else (0.0, 0)


def heap_items(queue):
    if isinstance(queue, PyEventHeap):
        return [entry[3] for entry in queue._entries]
    return gc.get_referents(queue)  # the C heap's traverse visits its items


def deadline_timers(queue):
    """The heap's deadline timers, by the queue that armed each one."""
    owners = []
    for item in heap_items(queue):
        for cb in getattr(item, "callbacks", None) or ():
            owner = getattr(cb, "__self__", None)
            if isinstance(owner, transport._DeadlineQueue):
                owners.append(owner)
    return owners


def run(calls, oracle):
    """One simulation of ``calls``; returns what the client and the server
    saw, plus (for the queue run) the per-RPC deadline record."""
    engine = Engine()
    net = Network(engine)
    for name in ("alpha", "beta"):
        net.add_host(Host(engine, name))
    net.connect("alpha", "beta", Link("wire", 0.01, 1e6))
    fabric = TransportFabric(engine, net, TransportParams(
        marshal_fixed=1e-3, marshal_per_byte=0.0, dispatch_fixed=1e-3))
    server = fabric.endpoint("server", "beta")
    client = fabric.endpoint("client", "alpha")
    if oracle:
        # The oracle's requests start their deadlines as timers of their own:
        # both legs take a length's queue from the fabric's table first.
        fabric._deadline_queues.update(
            (length, OneTimeoutPerRpc(engine, length))
            for length in LENGTHS)
    fates = {f"c{i}": call[2] for i, call in enumerate(calls)}
    server.faults = _ScriptedLoss(engine, fates)
    arrivals = {}

    def handler(msg):
        arrivals[msg.op] = engine.now
        fate, extra = fates[msg.op]
        deadline = client.deadlines[msg.op]
        yield engine.timeout(extra if fate == ANSWER else deadline + extra)
        return (msg.op, 8)

    for i, (_, length, _) in enumerate(calls):
        op = f"c{i}"
        server.on(op, handler)
        client.set_deadline((op,), LENGTHS[length])
    outcomes = {}

    def call(i, at):
        yield engine.timeout(at)
        op = f"c{i}"
        try:
            value = yield from (oracle_rpc(client, "server", op) if oracle
                                else client.rpc("server", op))
        except DeadlineExceededError:
            value = "deadline"
        outcomes[op] = (value, engine.now)

    for i, (at, _, _) in enumerate(calls):
        engine.process(call(i, at))

    started, expired = {}, {}
    if oracle:
        engine.run()
        # No request made a queue of its own: every deadline was a stand-in.
        assert all(type(queue) is OneTimeoutPerRpc
                   for queue in fabric._deadline_queues.values())
    else:
        # Watched from outside, step by step, so that the compiled queue is
        # held to the same record: an RPC starts its deadline in the
        # step that queues it, and expires in the step that settles its
        # token with _EXPIRED.
        while engine._queue:
            engine.step()
            for queue in fabric._deadline_queues.values():
                for reply in queue._pending:
                    started.setdefault(reply, (engine.now, queue.deadline))
            for reply in started:
                if (reply not in expired and reply.triggered
                        and reply._value is transport._EXPIRED):
                    expired[reply] = engine.now
            owners = deadline_timers(engine._queue)
            assert len(owners) == len(set(map(id, owners))) <= len(LENGTHS)
            # An RPC leaves its queue when its reply is dispatched.
            for queue in fabric._deadline_queues.values():
                assert not any(r.processed for r in queue._pending)
        for queue in fabric._deadline_queues.values():
            assert not queue._pending and queue._timer is None
        # Each deadline started when its request arrived, as the seam saw
        # on its own: one dispatch charge before the seam struck it.
        dispatch = fabric.params.dispatch_fixed
        assert (sorted(t + dispatch for t, _ in started.values())
                == sorted(server.faults.struck))
        assert not server._inflight and not client._inflight
    acct = fabric.accounting
    counts = (acct.messages_sent, acct.bytes_sent, acct.replies_suppressed,
              acct.dead_letters, acct.messages_dropped)
    return outcomes, arrivals, counts, started, expired


_fate = st.tuples(st.sampled_from((ANSWER, LOST, LATE)),
                  st.sampled_from((0.0, 0.05, 0.2, 0.45)))
_call = st.tuples(st.sampled_from((0.0, 0.01, 0.1, 0.3, 0.5, 0.9)),
                  st.sampled_from((0, 1)), _fate)


@settings(max_examples=60, deadline=None)
@given(calls=st.lists(_call, min_size=1, max_size=8))
def test_deadline_queue_matches_one_timeout_per_attempt(calls):
    outcomes, arrivals, counts, started, expired = run(calls, oracle=False)
    assert (outcomes, arrivals, counts) == run(calls, oracle=True)[:3]
    assert len(outcomes) == len(calls)
    for reply, at in expired.items():
        t_send, deadline = started[reply]
        assert at == t_send + deadline
    for reply in started:
        assert reply.triggered
        # One outcome per token: an answered RPC never expired.
        assert (reply in expired) == (reply._value is transport._EXPIRED)

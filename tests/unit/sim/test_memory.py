"""Kernel objects die by reference count.

A campaign spawns one short process per handler, reply and fan-out leg
(~75 000 a run).  If a finished process were part of a reference cycle,
each of them — with its generator, message, context and reply event —
would wait for the cyclic collector.  These tests switch the collector off
and require a weak reference to go dead the moment the last name is
dropped; they run on the compiled and the ``REPRO_PURE_PY=1`` legs.
"""

import gc
import weakref

import pytest

from repro.sim import Engine, Interrupt, Resource


@pytest.fixture
def engine():
    return Engine()


@pytest.fixture(autouse=True)
def collector_off():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _dead_once_dropped(holder):
    """``holder`` is a one-item list: drop its item, report if it died."""
    ref = weakref.ref(holder.pop())
    return ref() is None


class TestFinishedProcess:
    def test_normal_return(self, engine):
        def worker():
            yield engine.timeout(1.0)
            return "done"

        holder = [engine.process(worker())]
        engine.run()
        assert holder[0].value == "done"
        assert _dead_once_dropped(holder)

    def test_waited_on_by_another_process(self, engine):
        def child():
            yield engine.timeout(1.0)
            return 7

        def parent():
            return (yield engine.process(child())) + 1

        holder = [engine.process(parent())]
        engine.run()
        assert holder[0].value == 8
        assert _dead_once_dropped(holder)

    def test_failure(self, engine):
        def worker():
            yield engine.timeout(1.0)
            raise ValueError("boom")

        holder = [engine.process(worker())]
        engine.defuse(holder[0])
        engine.run()
        assert not holder[0].ok
        assert _dead_once_dropped(holder)

    def test_interrupted_and_handled(self, engine):
        def sleeper():
            try:
                yield engine.timeout(100.0)
            except Interrupt as intr:
                return intr.cause

        holder = [engine.process(sleeper())]
        engine.run(until=1.0)
        holder[0].interrupt("wake")
        engine.run()
        assert holder[0].value == "wake"
        assert _dead_once_dropped(holder)

    def test_interrupted_and_unhandled(self, engine):
        def sleeper():
            yield engine.timeout(100.0)

        holder = [engine.process(sleeper())]
        engine.defuse(holder[0])
        engine.run(until=1.0)
        holder[0].interrupt("crash")
        engine.run()
        assert not holder[0].ok
        assert _dead_once_dropped(holder)


class TestReleasedRequest:
    def test_granted_at_once(self, engine):
        resource = Resource(engine, capacity=1)
        holder = [resource.request()]
        engine.run()
        assert holder[0].value is None
        resource.release(holder[0])
        assert _dead_once_dropped(holder)

    def test_granted_from_the_wait_queue(self, engine):
        resource = Resource(engine, capacity=1)
        first = resource.request()
        holder = [resource.request()]
        engine.run()
        assert not holder[0].triggered
        resource.release(first)
        engine.run()
        assert holder[0].triggered and holder[0].value is None
        resource.release(holder[0])
        assert _dead_once_dropped(holder)

    def test_acquired_inside_a_process(self, engine):
        resource = Resource(engine, capacity=1)
        claims = []

        def user():
            req = yield from resource.acquire()
            claims.append(weakref.ref(req))
            yield engine.timeout(1.0)
            resource.release(req)

        engine.process(user())
        engine.run()
        assert claims[0]() is None

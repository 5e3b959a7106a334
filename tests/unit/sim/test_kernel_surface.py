"""The compiled event types and their pure-Python mirror show one surface.

``Event`` and ``Process`` are C types on the compiled kernel and plain
``__slots__`` classes on the ``REPRO_PURE_PY=1`` one.  The kernel,
transport, resources, liveness and client code read their attributes
directly, so each attribute they read is pinned here on both kernels (the
``kernel`` fixture of this directory's ``conftest.py``): its value while
pending, once triggered and once processed; ``interrupt`` against every kind
of event a process can wait on; the escalation of an unwatched failure; and
that a finished process dies by reference count.
"""

import gc
import weakref

import pytest


@pytest.fixture
def engine(kernel):
    return kernel.Engine()


def _sleeper(engine, delay, value=None):
    yield engine.timeout(delay)
    return value


class TestEvent:
    def test_pending(self, engine, kernel):
        ev = engine.event()
        assert type(ev).__name__ == "Event"
        assert (ev.callbacks, ev._ok, ev._scheduled) == ([], None, False)
        assert ev._value is kernel._PENDING
        assert not ev.triggered and not ev.processed
        with pytest.raises(kernel.SimulationError, match="not been triggered"):
            ev.ok
        with pytest.raises(kernel.SimulationError, match="not yet available"):
            ev.value

    def test_succeeded_then_processed(self, engine):
        ev = engine.event()
        assert ev.succeed("v") is ev
        assert (ev._ok, ev._value, ev._scheduled, ev.ok, ev.value) == (
            True, "v", True, True, "v")
        assert ev.triggered and not ev.processed and ev.callbacks == []
        engine.run()
        assert ev.processed and ev.callbacks is None and ev.value == "v"

    def test_failed(self, engine):
        ev = engine.event()
        boom = ValueError("boom")
        ev.fail(boom)
        assert (ev._ok, ev._value, ev.ok, ev.value) == (False, boom, False, boom)
        engine.run()   # an Event's failure with nobody watching is silent
        assert ev.processed

    def test_trigger_misuse(self, engine, kernel):
        ev = engine.event()
        with pytest.raises(TypeError, match="needs an exception"):
            ev.fail("not an exception")
        ev.succeed(priority=kernel.PRIORITY_URGENT)
        with pytest.raises(kernel.SimulationError, match="already triggered"):
            ev.succeed()
        with pytest.raises(kernel.SimulationError, match="already triggered"):
            ev.fail(ValueError())

    def test_python_subclasses_keep_their_slots(self, engine, kernel):
        cond = engine.all_of([])
        assert (type(cond).__name__, cond.triggered, cond.value) == (
            "AllOf", True, {})
        assert isinstance(cond, kernel.Event) and cond.events == []
        assert not hasattr(cond, "__dict__")
        assert weakref.ref(cond)() is cond


class TestProcess:
    def test_pending(self, engine, kernel):
        gen = _sleeper(engine, 1.0)
        proc = engine.process(gen)
        assert type(proc).__name__ == "Process"
        assert isinstance(proc, kernel.Event)
        assert proc.generator is gen and proc.name == "_sleeper"
        assert proc.is_alive and not proc.triggered and not proc.processed
        assert (proc._ok, proc._scheduled, proc._interrupts, proc._defused) == (
            None, False, None, False)
        assert proc._value is kernel._PENDING
        assert proc._target.callbacks == [proc]   # the boot timeout
        with pytest.raises(kernel.SimulationError):
            proc.ok
        with pytest.raises(kernel.SimulationError):
            proc.value
        assert proc.callbacks == []

    def test_names(self, engine):
        assert engine.process(_sleeper(engine, 1.0), "named").name == "named"
        assert engine.process(_sleeper(engine, 1.0), "").name == "_sleeper"
        assert engine.process(iter(()), None).name == "process"

    def test_a_delayed_boot_sits_where_a_timeout_would(self, engine, kernel):
        """Booted after a ``delay``, a process starts where a
        ``Timeout(delay)`` made at the same moment fires, in push order."""
        started = []

        def mark(tag):
            started.append((tag, engine.now))
            return
            yield  # pragma: no cover - make this a generator function

        engine.timeout(0.25)
        engine.run()
        engine.event_log = []
        kernel.Process(engine, mark("delayed"), "delayed", 0.5)
        engine.timeout(0.5).callbacks.append(
            lambda ev: started.append(("timeout", engine.now)))
        kernel.Process(engine, mark("urgent"), "urgent")
        engine.run()
        assert started == [("urgent", 0.25), ("delayed", 0.75),
                           ("timeout", 0.75)]
        assert [(when, prio) for when, prio, *_ in engine.event_log] == [
            (0.25, 0), (0.75, 1), (0.75, 1)]
        with pytest.raises(ValueError, match="negative delay"):
            kernel.Process(engine, mark("never"), None, -1.0)

    def test_finished(self, engine):
        proc = engine.process(_sleeper(engine, 1.0, "done"))
        engine.run()
        assert not proc.is_alive and proc.triggered and proc.processed
        assert (proc._ok, proc._value, proc.ok, proc.value) == (
            True, "done", True, "done")
        assert proc.callbacks is None

    def test_a_process_is_its_own_callback(self, engine):
        child = engine.process(_sleeper(engine, 1.0, 1))

        def parent():
            return (yield child) + 1

        proc = engine.process(parent())
        engine.run(until=0.5)
        assert child.callbacks == [proc] and proc._target is child
        engine.run()
        assert proc.value == 2

    def test_yielding_a_non_event_is_a_kernel_error(self, engine, kernel):
        def bad():
            yield 42

        proc = engine.process(bad(), "bad")
        with pytest.raises(kernel.SimulationError,
                           match="'bad' yielded 42, not an Event"):
            engine.run()
        assert proc.is_alive


def _waits_on(engine, kind):
    """A target of ``kind`` for a process to wait on."""
    if kind == "timeout":
        return engine.timeout(10.0)
    if kind == "event":
        return engine.event()
    if kind == "process":
        return engine.process(_sleeper(engine, 10.0))
    return engine.all_of([engine.timeout(10.0), engine.event()])


@pytest.mark.parametrize("kind", ["timeout", "event", "process", "all_of"])
def test_interrupt_detaches_from_any_target(engine, kernel, kind):
    target = _waits_on(engine, kind)
    seen = []

    def waiter():
        try:
            yield target
            seen.append("woke")
        except kernel.Interrupt as intr:
            seen.append((intr.cause, engine.now))
        yield engine.timeout(20.0)
        return "after"

    proc = engine.process(waiter())
    engine.run(until=1.0)
    assert target.callbacks == [proc] and proc._target is target
    at = engine.now
    proc.interrupt("stop")
    assert proc not in target.callbacks and proc._target is not target
    if kind == "event":
        target.succeed("late")
    engine.run()
    assert seen == [("stop", at)] and proc.value == "after"
    assert proc._interrupts == []


class TestUnwatchedFailure:
    @staticmethod
    def _failing(engine):
        yield engine.timeout(1.0)
        raise ValueError("boom")

    def test_escalates(self, engine):
        engine.process(self._failing(engine))
        with pytest.raises(ValueError, match="boom"):
            engine.run()

    def test_defused_does_not(self, engine):
        proc = engine.process(self._failing(engine))
        proc._defused = True
        engine.run()
        assert proc._defused and not proc.ok
        assert isinstance(proc.value, ValueError)


@pytest.fixture
def collector_off():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.mark.usefixtures("collector_off")
@pytest.mark.parametrize("ending", ["returned", "failed", "interrupted"])
def test_an_ended_process_dies_by_reference_count(engine, ending):
    def worker():
        yield engine.timeout(100.0 if ending == "interrupted" else 1.0)
        if ending == "failed":
            raise ValueError("boom")

    proc = engine.process(worker())
    engine.defuse(proc)
    engine.run(until=0.5)
    if ending == "interrupted":
        proc.interrupt("crash")
    engine.run()
    assert not proc.is_alive and proc.ok == (ending == "returned")
    ref = weakref.ref(proc)
    del proc
    assert ref() is None

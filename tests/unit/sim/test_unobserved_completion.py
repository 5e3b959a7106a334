"""A process nobody waits on finishes without an event.

``Process._finish`` settles a successful process in place when nobody is
subscribed to it: no heap entry, no dispatch, and whoever yields it later
carries on at the same instant with its value.  These tests pin that rule
and the one exception to it (a failure is still scheduled, so dispatch can
escalate it) on both kernels: the session's own — the compiled heap and C
resume unless the session runs under ``REPRO_PURE_PY=1`` — and a private
copy of ``repro.sim.engine`` imported with the fallback forced.
"""

import importlib
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

_KERNEL_MODULES = ("repro.sim.simcore", "repro.sim.engine")


@pytest.fixture(scope="module", params=["session", "pure-py"])
def kernel(request):
    """The ``repro.sim.engine`` module under test."""
    import repro.sim.engine as session_kernel

    if request.param == "session":
        yield session_kernel
        return
    saved = {name: sys.modules.pop(name) for name in _KERNEL_MODULES}
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_PURE_PY", "1")
        try:
            private = importlib.import_module("repro.sim.engine")
        finally:
            sys.modules.update(saved)
    assert private is not session_kernel
    assert private._drain is private._py_drain
    yield private


@pytest.fixture
def engine(kernel):
    return kernel.Engine()


def _sleeper(engine, delay, value):
    yield engine.timeout(delay)
    return value


class TestFireAndForget:
    def test_finishing_schedules_nothing(self, engine):
        proc = engine.process(_sleeper(engine, 1.0, "done"))
        before = engine.events_scheduled       # boot + nothing else yet
        engine.run()
        # one Timeout inside the generator; the completion itself is free
        assert engine.events_scheduled == before + 1
        assert proc.triggered and proc.processed and not proc.is_alive
        assert proc.ok and proc.value == "done"

    def test_event_log_has_no_process_row(self, engine):
        engine.event_log = []
        engine.process(_sleeper(engine, 1.0, None), name="quiet")
        engine.run()
        assert [rec[3] for rec in engine.event_log] == ["Timeout", "Timeout"]

    def test_run_until_complete_returns_its_value(self, engine):
        assert engine.run_until_complete(_sleeper(engine, 2.0, 42)) == 42
        assert engine.now == 2.0

    def test_run_process_returns_its_value(self, engine):
        assert engine.run_process(_sleeper(engine, 2.0, 42)) == 42

    def test_interrupting_a_finished_one_is_an_error(self, engine, kernel):
        proc = engine.process(_sleeper(engine, 1.0, None))
        engine.run()
        with pytest.raises(kernel.SimulationError, match="finished"):
            proc.interrupt()


class TestWaitingAfterTheFact:
    def test_yield_resumes_at_the_same_instant(self, engine):
        child = engine.process(_sleeper(engine, 1.0, "early"))
        seen = []

        def late_waiter():
            yield engine.timeout(5.0)
            mark = engine.events_scheduled
            value = yield child
            seen.append((engine.now, value, engine.events_scheduled - mark))

        engine.process(late_waiter())
        engine.run()
        assert seen == [(5.0, "early", 0)]

    def test_all_of_over_finished_and_running(self, engine):
        early = engine.process(_sleeper(engine, 1.0, "a"))
        late = engine.process(_sleeper(engine, 9.0, "b"))

        def waiter():
            yield engine.timeout(5.0)
            got = yield engine.all_of([early, late])
            return engine.now, got[early], got[late]

        assert engine.run_process(waiter()) == (9.0, "a", "b")

    def test_all_of_over_only_finished_settles_at_once(self, engine):
        procs = [engine.process(_sleeper(engine, d, d)) for d in (1.0, 2.0)]

        def waiter():
            yield engine.timeout(5.0)
            got = yield engine.all_of(procs)
            return engine.now, [got[p] for p in procs]

        assert engine.run_process(waiter()) == (5.0, [1.0, 2.0])

    def test_any_of_takes_the_finished_one(self, engine):
        early = engine.process(_sleeper(engine, 1.0, "a"))
        late = engine.process(_sleeper(engine, 9.0, "b"))

        def waiter():
            yield engine.timeout(5.0)
            got = yield engine.any_of([late, early])
            return engine.now, dict(got)

        assert engine.run_process(waiter()) == (5.0, {early: "a"})


class TestObservedProcess:
    def test_a_waited_on_process_still_fires_its_event(self, engine):
        engine.event_log = []

        def parent():
            return (yield engine.process(_sleeper(engine, 1.0, 7),
                                         name="child")) + 1

        assert engine.run_process(parent()) == 8
        assert [(rec[0], rec[3], rec[4]) for rec in engine.event_log
                if rec[3] == "Process"] == [(1.0, "Process", "child")]

    def test_a_detached_subscription_counts_as_nobody(self, engine):
        """AnyOf took its callback back: the loser finishes unobserved."""
        winner = engine.process(_sleeper(engine, 1.0, "w"))
        loser = engine.process(_sleeper(engine, 2.0, "l"), name="loser")
        engine.event_log = []

        def waiter():
            yield engine.any_of([winner, loser])

        engine.process(waiter())
        engine.run()
        assert loser.processed and loser.value == "l"
        assert "loser" not in [rec[4] for rec in engine.event_log]


class TestFailureIsTheException:
    @staticmethod
    def _failing(engine):
        yield engine.timeout(1.0)
        raise ValueError("boom")

    def test_unobserved_failure_escalates_from_run(self, engine):
        proc = engine.process(self._failing(engine))
        with pytest.raises(ValueError, match="boom"):
            engine.run()
        assert proc.triggered and not proc.ok

    def test_defuse_still_silences_it(self, engine):
        proc = engine.process(self._failing(engine))
        engine.defuse(proc)
        engine.run()
        assert proc.processed and not proc.ok
        assert isinstance(proc.value, ValueError)

    def test_a_later_waiter_gets_the_exception(self, engine):
        child = engine.process(self._failing(engine))
        engine.defuse(child)

        def late_waiter():
            yield engine.timeout(5.0)
            try:
                yield child
            except ValueError as exc:
                return engine.now, str(exc)

        assert engine.run_process(late_waiter()) == (5.0, "boom")

    def test_run_until_complete_reraises(self, engine):
        with pytest.raises(ValueError, match="boom"):
            engine.run_until_complete(self._failing(engine))


# -- random process trees ------------------------------------------------------------

_DELAYS = st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0, 1.5])
#: How a parent treats a child: wait for it at once, wait for it after its
#: own remaining work, or never.
_MODES = st.sampled_from(["now", "later", "never"])
_TREES = st.recursive(
    st.tuples(_DELAYS, st.just(())),
    lambda sub: st.tuples(_DELAYS, st.lists(st.tuples(_MODES, sub),
                                            max_size=3).map(tuple)),
    max_leaves=12)


def _run_tree(kernel, tree, watched):
    """Run ``tree``; return {path: (finish instant, value)} per process.

    A node is ``(delay, ((mode, child), ...))``: it spawns each child in
    turn, sleeps ``delay`` and returns one plus the values of the children
    it waited for.  With ``watched`` every process of the tree also gets a
    watcher subscribed to it from its first instant, so each completion goes
    through the heap as a dispatched event.
    """
    engine = kernel.Engine()
    finished = {}

    def watcher(proc):
        yield proc

    def node(path, delay, children):
        total, later = 1, []
        for i, (mode, (child_delay, grandchildren)) in enumerate(children):
            proc = engine.process(node(path + (i,), child_delay, grandchildren))
            if watched:
                engine.process(watcher(proc))
            if mode == "now":
                total += yield proc
            elif mode == "later":
                later.append(proc)
        yield engine.timeout(delay)
        for proc in later:
            total += yield proc
        finished[path] = (engine.now, total)
        return total

    root = engine.process(node((), *tree))
    engine.run()
    assert root.processed and root.value == finished[()][1]
    return finished


@given(tree=_TREES)
@settings(max_examples=80, deadline=None)
def test_unobserved_processes_finish_when_watched_ones_do(kernel, tree):
    assert _run_tree(kernel, tree, False) == _run_tree(kernel, tree, True)

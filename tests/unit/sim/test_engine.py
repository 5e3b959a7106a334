"""Unit tests for the discrete-event kernel."""

import pytest

from repro.sim import (
    Engine,
    Interrupt,
    SimulationError,
)


@pytest.fixture
def engine():
    return Engine()


class TestClock:
    def test_starts_at_zero(self, engine):
        assert engine.now == 0.0

    def test_timeout_advances_clock(self, engine):
        engine.timeout(5.0)
        engine.run()
        assert engine.now == 5.0

    def test_run_until_stops_early(self, engine):
        engine.timeout(10.0)
        stopped = engine.run(until=3.0)
        assert stopped == 3.0
        assert engine.now == 3.0

    def test_run_until_past_raises(self, engine):
        engine.timeout(1.0)
        engine.run()
        with pytest.raises(ValueError):
            engine.run(until=0.5)

    def test_peek_empty_queue(self, engine):
        assert engine.peek() == float("inf")

    def test_step_empty_queue_raises(self, engine):
        with pytest.raises(SimulationError):
            engine.step()


class TestEvent:
    def test_succeed_delivers_value(self, engine):
        ev = engine.event()

        def proc():
            value = yield ev
            return value

        p = engine.process(proc())
        ev.succeed(42)
        engine.run()
        assert p.value == 42

    def test_double_trigger_raises(self, engine):
        ev = engine.event()
        ev.succeed(1)
        with pytest.raises(SimulationError):
            ev.succeed(2)

    def test_fail_raises_in_waiter(self, engine):
        ev = engine.event()

        def proc():
            try:
                yield ev
            except RuntimeError as exc:
                return f"caught {exc}"

        p = engine.process(proc())
        ev.fail(RuntimeError("boom"))
        engine.run()
        assert p.value == "caught boom"

    def test_fail_requires_exception(self, engine):
        ev = engine.event()
        with pytest.raises(TypeError):
            ev.fail("not an exception")

    def test_value_before_trigger_raises(self, engine):
        ev = engine.event()
        with pytest.raises(SimulationError):
            _ = ev.value

    def test_ok_before_trigger_raises(self, engine):
        ev = engine.event()
        with pytest.raises(SimulationError):
            _ = ev.ok

    def test_negative_timeout_raises(self, engine):
        with pytest.raises(ValueError):
            engine.timeout(-1.0)


class TestProcess:
    def test_return_value(self, engine):
        def proc():
            yield engine.timeout(1.0)
            return "done"

        assert engine.run_process(proc()) == "done"

    def test_sequential_timeouts(self, engine):
        times = []

        def proc():
            for d in (1.0, 2.0, 3.0):
                yield engine.timeout(d)
                times.append(engine.now)

        engine.run_process(proc())
        assert times == [1.0, 3.0, 6.0]

    def test_process_waits_on_process(self, engine):
        def child():
            yield engine.timeout(2.0)
            return "child-result"

        def parent():
            value = yield engine.process(child())
            return value

        assert engine.run_process(parent()) == "child-result"
        assert engine.now == 2.0

    def test_yield_non_event_raises(self, engine):
        def proc():
            yield "not an event"

        with pytest.raises(SimulationError):
            engine.run_process(proc())

    def test_unhandled_exception_escalates(self, engine):
        def proc():
            yield engine.timeout(1.0)
            raise ValueError("inside process")

        with pytest.raises(ValueError, match="inside process"):
            engine.run_process(proc())

    def test_unwatched_failed_process_escalates_at_dispatch(self, engine):
        def bad():
            yield engine.timeout(1.0)
            raise KeyError("orphan failure")

        engine.process(bad())
        with pytest.raises(KeyError):
            engine.run()

    def test_defused_failure_does_not_escalate(self, engine):
        def bad():
            yield engine.timeout(1.0)
            raise KeyError("defused")

        p = engine.process(bad())
        engine.defuse(p)
        engine.run()
        assert not p.ok

    def test_watched_failure_propagates_to_watcher_only(self, engine):
        def bad():
            yield engine.timeout(1.0)
            raise ValueError("for the watcher")

        def watcher():
            try:
                yield engine.process(bad())
            except ValueError:
                return "handled"

        assert engine.run_process(watcher()) == "handled"

    def test_deadline_miss_raises(self, engine):
        def slow():
            yield engine.timeout(100.0)

        with pytest.raises(SimulationError):
            engine.run_process(slow(), until=1.0)

    def test_is_alive(self, engine):
        def proc():
            yield engine.timeout(1.0)

        p = engine.process(proc())
        assert p.is_alive
        engine.run()
        assert not p.is_alive


class TestInterrupt:
    def test_interrupt_wakes_process(self, engine):
        def sleeper():
            try:
                yield engine.timeout(100.0)
                return "slept"
            except Interrupt as i:
                return f"interrupted:{i.cause}@{engine.now}"

        p = engine.process(sleeper())

        def interrupter():
            yield engine.timeout(1.0)
            p.interrupt("wake-up")

        engine.process(interrupter())
        engine.run()
        # the abandoned 100s timeout still drains, but the process resumed
        # at the interrupt time
        assert p.value == "interrupted:wake-up@1.0"

    def test_interrupt_finished_process_raises(self, engine):
        def quick():
            yield engine.timeout(0.5)

        p = engine.process(quick())
        engine.run()
        with pytest.raises(SimulationError):
            p.interrupt()


class TestConditions:
    def test_all_of_waits_for_all(self, engine):
        def proc():
            t1 = engine.timeout(1.0, "a")
            t2 = engine.timeout(3.0, "b")
            result = yield engine.all_of([t1, t2])
            return sorted(result.values())

        assert engine.run_process(proc()) == ["a", "b"]
        assert engine.now == 3.0

    def test_any_of_fires_on_first(self, engine):
        def proc():
            t1 = engine.timeout(1.0, "fast")
            t2 = engine.timeout(5.0, "slow")
            result = yield engine.any_of([t1, t2])
            return (list(result.values()), engine.now)

        values, fired_at = engine.run_process(proc())
        assert values == ["fast"]
        assert fired_at == 1.0

    def test_empty_all_of_immediate(self, engine):
        def proc():
            result = yield engine.all_of([])
            return result

        assert engine.run_process(proc()) == {}

    def test_all_of_propagates_failure(self, engine):
        def bad():
            yield engine.timeout(1.0)
            raise RuntimeError("child died")

        def proc():
            p = engine.process(bad())
            try:
                yield engine.all_of([p, engine.timeout(5.0)])
            except RuntimeError:
                return "saw failure"

        assert engine.run_process(proc()) == "saw failure"

    def test_any_of_detaches_from_losing_siblings(self, engine):
        """Once an AnyOf settles, its callback is removed from every
        still-pending sibling (regression: dead callbacks accumulated on
        long-lived events)."""
        def proc():
            fast = engine.timeout(1.0, "fast")
            slow = engine.timeout(5.0, "slow")
            cond = engine.any_of([fast, slow])
            result = yield cond
            assert slow.callbacks is not None  # slow has not fired yet
            assert cond._on_fire not in slow.callbacks
            return list(result.values())

        assert engine.run_process(proc()) == ["fast"]

    def test_late_failing_sibling_leaves_any_of_settled(self, engine):
        """A sibling that fails after the AnyOf already succeeded must not
        disturb the settled condition."""
        def bad():
            yield engine.timeout(2.0)
            raise RuntimeError("late loser")

        def proc():
            loser = engine.process(bad())
            cond = engine.any_of([engine.timeout(1.0, "winner"), loser])
            result = yield cond
            assert cond.ok and list(result.values()) == ["winner"]
            try:
                yield loser  # watch the loser so its failure isn't escalated
            except RuntimeError:
                pass
            assert cond.ok and list(cond.value.values()) == ["winner"]
            return "settled"

        assert engine.run_process(proc()) == "settled"

    def test_all_of_detaches_after_child_failure(self, engine):
        """An AllOf that fails early stops listening to the slow children."""
        def bad():
            yield engine.timeout(1.0)
            raise RuntimeError("child died")

        def proc():
            p = engine.process(bad())
            slow = engine.timeout(10.0)
            cond = engine.all_of([p, slow])
            try:
                yield cond
            except RuntimeError:
                pass
            assert slow.callbacks is not None
            assert cond._on_fire not in slow.callbacks
            return engine.now

        assert engine.run_process(proc()) == 1.0


class TestRunUntilComplete:
    def test_tolerates_perpetual_background_process(self, engine):
        """run_until_complete returns when *its* process finishes even while
        a heartbeat-style process keeps the queue non-empty forever."""
        def forever():
            while True:
                yield engine.timeout(1.0)

        def main():
            yield engine.timeout(3.5)
            return "done"

        engine.process(forever())
        assert engine.run_until_complete(main()) == "done"
        assert engine.now == 3.5

    def test_deadlock_raises(self, engine):
        def main():
            yield engine.event()  # nobody will ever trigger this

        with pytest.raises(SimulationError):
            engine.run_until_complete(main())

    def test_max_time_exceeded_raises(self, engine):
        def forever():
            while True:
                yield engine.timeout(1.0)

        def main():
            yield engine.event()

        engine.process(forever())
        with pytest.raises(SimulationError):
            engine.run_until_complete(main(), max_time=10.0)

    def test_failure_propagates_once(self, engine):
        def main():
            yield engine.timeout(1.0)
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            engine.run_until_complete(main())


class TestDeterminism:
    def test_fifo_at_equal_time(self, engine):
        order = []

        def proc(tag):
            yield engine.timeout(1.0)
            order.append(tag)

        for tag in "abc":
            engine.process(proc(tag))
        engine.run()
        assert order == ["a", "b", "c"]

    def test_identical_runs_identical_traces(self):
        def build():
            eng = Engine()
            log = []

            def worker(tag, delay):
                yield eng.timeout(delay)
                log.append((eng.now, tag))

            for i, tag in enumerate("abcde"):
                eng.process(worker(tag, 1.0 + (i % 3)))
            eng.run()
            return log

        assert build() == build()

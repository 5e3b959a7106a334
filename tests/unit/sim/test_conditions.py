"""AnyOf and AllOf on both kernels, case by case.

On the compiled kernel the conditions are ``_simcore`` types, each its own
callback on its children; on the ``REPRO_PURE_PY=1`` one they are the Python
classes of ``engine.py``, which subscribe a bound ``_on_fire``.  Every case
runs on both (the ``kernel`` fixture of this directory) and pins the value,
the callbacks left on the children and the dispatched event stream, so the
two must agree row for row.
"""

import pytest


@pytest.fixture
def engine(kernel):
    engine = kernel.Engine()
    engine.event_log = []
    return engine


def rows(engine):
    """The dispatched events as (instant, kind, name)."""
    return [(when, kind, name) for when, _prio, _seq, kind, name
            in engine.event_log]


def _returns(engine, delay, value):
    yield engine.timeout(delay)
    return value


@pytest.mark.parametrize("factory, kind", [("all_of", "AllOf"),
                                           ("any_of", "AnyOf")])
def test_an_empty_condition_is_true_at_once(engine, kernel, factory, kind):
    cond = getattr(engine, factory)([])
    assert type(cond).__name__ == kind and isinstance(cond, kernel.Event)
    assert (cond.triggered, cond.ok, cond.value, cond.events) == (
        True, True, {}, [])
    assert (cond._n_fired, cond._n_sub) == (0, 0) and not cond.processed
    engine.run()
    assert cond.processed and rows(engine) == [(0.0, kind, None)]


def test_a_processed_child_fires_at_subscription(engine):
    done = engine.timeout(1.0, "early")
    engine.run()
    late = engine.timeout(1.0, "late")
    both = engine.all_of([done, late])
    either = engine.any_of([done, late])
    # AnyOf settled on its first child and subscribed to no later one.
    assert either.triggered and either.value == {done: "early"}
    assert (either._n_sub, both._n_sub, both._n_fired) == (0, 1, 1)
    assert not both.triggered and late.callbacks == [both._on_fire]
    engine.run()
    assert both.value == {done: "early", late: "late"}
    assert rows(engine) == [(1.0, "Timeout", None), (1.0, "AnyOf", None),
                            (2.0, "Timeout", None), (2.0, "AllOf", None)]


def test_a_failing_child_fails_all_of_and_settles_any_of(engine):
    boom = ValueError("boom")
    bad, slow = engine.event(), engine.timeout(5.0)
    both = engine.all_of([bad, slow])
    either = engine.any_of([slow, bad])
    seen = []

    def waiter(cond, tag):
        try:
            yield cond
        except ValueError as exc:
            seen.append((tag, exc, engine.now))

    engine.process(waiter(both, "all"))
    engine.process(waiter(either, "any"))
    engine.run(until=1.0)
    bad.fail(boom)
    engine.run(until=2.0)
    assert seen == [("all", boom, 1.0), ("any", boom, 1.0)]
    assert (both.ok, both.value, either.ok, either.value) == (
        False, boom, False, boom)
    # Both took their callback back from the sibling still pending.
    assert slow.callbacks == [] and both._n_fired == 0
    engine.run()
    assert rows(engine) == [
        (0.0, "Timeout", None), (0.0, "Timeout", None), (1.0, "Event", None),
        (1.0, "AllOf", None), (1.0, "AnyOf", None), (5.0, "Timeout", None)]


def test_a_settled_condition_leaves_no_callback_on_pending_siblings(engine):
    fast, slow, never = engine.timeout(1.0, "f"), engine.timeout(5.0), \
        engine.event()
    first = engine.any_of([fast, slow, never])
    joined = engine.all_of([fast, never])
    watcher = engine.any_of([slow, never])
    assert never.callbacks == [first._on_fire, joined._on_fire,
                               watcher._on_fire]
    engine.run(until=2.0)
    assert first.processed and first.value == {fast: "f"}
    # Only the conditions still waiting keep their callbacks.
    assert slow.callbacks == [watcher._on_fire]
    assert never.callbacks == [joined._on_fire, watcher._on_fire]
    engine.run()
    assert watcher.value == {slow: None} and never.callbacks == [
        joined._on_fire]
    assert not joined.triggered and joined._n_fired == 1


def test_a_duplicate_child_is_counted_once_per_subscription(engine):
    tick = engine.timeout(1.0, "v")
    both = engine.all_of([tick, tick])
    assert tick.callbacks == [both._on_fire, both._on_fire]
    assert both._n_sub == 2
    engine.run()
    assert both.value == {tick: "v"} and both._n_fired == 2
    # Settling takes back one callback per subscription.
    twice, other = engine.event(), engine.timeout(1.0)
    either = engine.any_of([twice, twice, other])
    engine.run()
    assert either.value == {other: None} and twice.callbacks == []
    assert rows(engine) == [(1.0, "Timeout", None), (1.0, "AllOf", None),
                            (2.0, "Timeout", None), (2.0, "AnyOf", None)]


def test_an_interrupted_join_detaches(engine, kernel):
    """An interrupted waiter takes its callback back from the join, and the
    join's ``_detach`` takes the join's back from its children, as a
    fan-out's gather does."""
    reply, slow = engine.event(), engine.timeout(5.0)
    join = engine.all_of([reply, slow])
    seen = []

    def gather():
        try:
            yield join
        except kernel.Interrupt as intr:
            seen.append((intr.cause, engine.now))
            join._detach()

    proc = engine.process(gather(), "gather")
    engine.run(until=1.0)
    assert join.callbacks == [proc] and reply.callbacks == [join._on_fire]
    proc.interrupt("stop")
    engine.run(until=2.0)
    assert seen == [("stop", 1.0)]
    assert join.callbacks == [] and reply.callbacks == [] \
        and slow.callbacks == []
    reply.succeed("late")
    engine.run()
    assert not join.triggered and join._n_fired == 0
    assert rows(engine) == [(0.0, "Timeout", None), (1.0, "Timeout", None),
                            (2.0, "Event", None), (5.0, "Timeout", None)]


def test_a_joined_process_is_counted_down_when_it_finishes(engine):
    """A process whose only waiter is an AllOf settles it without an event
    of its own; under an AnyOf, or beside another waiter, it is
    dispatched."""
    kids = [engine.process(_returns(engine, delay, delay), f"kid{delay}")
            for delay in (1.0, 2.0)]
    got = []

    def parent():
        got.append((yield engine.all_of(kids)))

    engine.process(parent(), "parent")
    engine.run()
    assert got == [{kids[0]: 1.0, kids[1]: 2.0}]
    assert rows(engine) == [
        (0.0, "Timeout", None), (0.0, "Timeout", None),
        (0.0, "Timeout", None), (1.0, "Timeout", None),
        (2.0, "Timeout", None), (2.0, "AllOf", None)]
    engine.event_log = []
    racer = engine.process(_returns(engine, 1.0, "won"), "racer")
    first = engine.any_of([racer])
    engine.run()
    assert first.value == {racer: "won"}
    assert rows(engine) == [
        (2.0, "Timeout", None), (3.0, "Timeout", None),
        (3.0, "Process", "racer"), (3.0, "AnyOf", None)]

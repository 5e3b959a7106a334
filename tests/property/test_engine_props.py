"""Property-based tests for the discrete-event kernel."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Engine, Resource, Store


@given(st.lists(st.floats(min_value=0.0, max_value=1e6,
                          allow_nan=False, allow_infinity=False),
                min_size=1, max_size=40))
@settings(max_examples=60, deadline=None)
def test_events_fire_in_time_order(delays):
    engine = Engine()
    fired = []

    def waiter(d):
        yield engine.timeout(d)
        fired.append(engine.now)

    for d in delays:
        engine.process(waiter(d))
    engine.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)
    assert engine.now == max(delays)


@given(st.lists(st.floats(min_value=0.01, max_value=10.0,
                          allow_nan=False), min_size=1, max_size=20),
       st.integers(min_value=1, max_value=5))
@settings(max_examples=40, deadline=None)
def test_resource_never_exceeds_capacity_and_serves_all(durations, capacity):
    engine = Engine()
    res = Resource(engine, capacity=capacity)
    active = {"n": 0, "max": 0, "served": 0}

    def job(d):
        req = yield from res.acquire()
        active["n"] += 1
        active["max"] = max(active["max"], active["n"])
        yield engine.timeout(d)
        active["n"] -= 1
        active["served"] += 1
        res.release(req)

    for d in durations:
        engine.process(job(d))
    engine.run()
    assert active["max"] <= capacity
    assert active["served"] == len(durations)
    # work conservation: makespan >= total work / capacity
    assert engine.now >= sum(durations) / capacity - 1e-9


@given(st.lists(st.integers(), min_size=0, max_size=50))
@settings(max_examples=50, deadline=None)
def test_store_is_fifo(items):
    engine = Engine()
    store = Store(engine)
    received = []

    def consumer():
        for _ in items:
            value = yield store.get()
            received.append(value)

    engine.process(consumer())
    for item in items:
        store.put(item)
    engine.run()
    assert received == items


@given(st.integers(0, 2 ** 31), st.integers(min_value=2, max_value=30))
@settings(max_examples=30, deadline=None)
def test_run_is_deterministic(seed, n_procs):
    def execute():
        rng = np.random.default_rng(seed)
        engine = Engine()
        log = []

        def worker(tag, delays):
            for d in delays:
                yield engine.timeout(float(d))
                log.append((round(engine.now, 9), tag))

        for i in range(n_procs):
            engine.process(worker(i, rng.random(3)))
        engine.run()
        return log

    assert execute() == execute()

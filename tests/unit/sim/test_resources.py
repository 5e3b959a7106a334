"""Unit tests for Resource and Store."""

import pytest

from repro.sim import Engine, Resource, Store


@pytest.fixture
def engine():
    return Engine()


class TestResource:
    def test_capacity_validation(self, engine):
        with pytest.raises(ValueError):
            Resource(engine, capacity=0)

    def test_grants_up_to_capacity(self, engine):
        res = Resource(engine, capacity=2)
        r1, r2, r3 = res.request(), res.request(), res.request()
        assert r1.triggered and r2.triggered and not r3.triggered
        assert res.count == 2
        assert res.queue_length == 1

    def test_release_grants_next_fifo(self, engine):
        res = Resource(engine, capacity=1)
        r1 = res.request()
        r2 = res.request()
        r3 = res.request()
        res.release(r1)
        assert r2.triggered and not r3.triggered

    def test_release_cancels_queued(self, engine):
        res = Resource(engine, capacity=1)
        r1 = res.request()
        r2 = res.request()
        res.release(r2)        # cancel while queued
        assert res.queue_length == 0
        res.release(r1)
        assert res.count == 0

    def test_release_unknown_raises(self, engine):
        res = Resource(engine)
        other = Resource(engine)
        req = other.request()
        with pytest.raises(RuntimeError):
            res.release(req)

    def test_mutual_exclusion_timeline(self, engine):
        res = Resource(engine, capacity=1)
        spans = []

        def worker(tag, hold):
            req = yield from res.acquire()
            start = engine.now
            yield engine.timeout(hold)
            res.release(req)
            spans.append((tag, start, engine.now))

        for tag, hold in (("a", 2.0), ("b", 3.0), ("c", 1.0)):
            engine.process(worker(tag, hold))
        engine.run()
        assert spans == [("a", 0.0, 2.0), ("b", 2.0, 5.0), ("c", 5.0, 6.0)]

    def test_no_overlap_under_capacity_two(self, engine):
        res = Resource(engine, capacity=2)
        active = {"n": 0, "max": 0}

        def worker():
            req = yield from res.acquire()
            active["n"] += 1
            active["max"] = max(active["max"], active["n"])
            yield engine.timeout(1.0)
            active["n"] -= 1
            res.release(req)

        for _ in range(10):
            engine.process(worker())
        engine.run()
        assert active["max"] == 2


class TestStore:
    def test_put_then_get(self, engine):
        store = Store(engine)
        store.put("x")
        ev = store.get()
        assert ev.triggered and ev.value == "x"

    def test_get_blocks_until_put(self, engine):
        store = Store(engine)
        got = []

        def consumer():
            item = yield store.get()
            got.append((engine.now, item))

        def producer():
            yield engine.timeout(2.0)
            store.put("late")

        engine.process(consumer())
        engine.process(producer())
        engine.run()
        assert got == [(2.0, "late")]

    def test_fifo_order(self, engine):
        store = Store(engine)
        for i in range(5):
            store.put(i)
        assert [store.get().value for _ in range(5)] == list(range(5))

    def test_getters_served_fifo(self, engine):
        store = Store(engine)
        results = []

        def consumer(tag):
            item = yield store.get()
            results.append((tag, item))

        engine.process(consumer("first"))
        engine.process(consumer("second"))

        def producer():
            yield engine.timeout(1.0)
            store.put("A")
            store.put("B")

        engine.process(producer())
        engine.run()
        assert results == [("first", "A"), ("second", "B")]

    def test_try_get(self, engine):
        store = Store(engine)
        assert store.try_get() is None
        store.put(7)
        assert store.try_get() == 7
        assert len(store) == 0


"""Unit tests for the CoRI resource collector."""

import pytest

from repro.core import CoRI
from repro.core.scheduling import (
    EST_COMMTIME,
    EST_FREECPU,
    EST_FREEMEM,
    EST_NBJOBS,
    EST_SPEED,
    EST_TCOMP,
    EST_TIMESINCELASTSOLVE,
)
from repro.sim import Engine, Host, Link, Network


@pytest.fixture
def stack():
    engine = Engine()
    net = Network(engine)
    host = net.add_host(Host(engine, "sed", speed=2.4, cores=2,
                             properties={"memory_gib": 32.0}))
    net.add_host(Host(engine, "client"))
    net.connect("sed", "client", Link("l", 0.01, 1e6))
    return engine, net, host


def collect(engine, cori, **kwargs):
    def proc():
        est = yield from cori.collect("sed", kwargs.pop("n_jobs", 0), **kwargs)
        return est

    return engine.run_process(proc())


class TestCollect:
    def test_standard_tags(self, stack):
        engine, net, host = stack
        cori = CoRI(engine, host, net)
        est = collect(engine, cori, n_jobs=3)
        assert est.get(EST_SPEED) == 2.4
        assert est.get(EST_NBJOBS) == 3.0
        assert est.get(EST_FREECPU) == 1.0
        assert est.get(EST_FREEMEM) == 32.0

    def test_collection_takes_time(self, stack):
        engine, net, host = stack
        cori = CoRI(engine, host, net, collect_time=0.02)

        def proc():
            yield from cori.collect("sed", 0)
            return engine.now

        assert engine.run_process(proc()) == pytest.approx(0.02)

    def test_free_cpu_reflects_occupancy(self, stack):
        engine, net, host = stack
        cori = CoRI(engine, host, net)
        host.cpu.request()   # occupy 1 of 2 cores
        est = collect(engine, cori)
        assert est.get(EST_FREECPU) == pytest.approx(0.5)

    def test_commtime_prediction(self, stack):
        engine, net, host = stack
        cori = CoRI(engine, host, net)
        est = collect(engine, cori, client_host="client",
                      request_nbytes=1_000_000)
        assert est.get(EST_COMMTIME) == pytest.approx(0.01 + 1.0)

    def test_tcomp_absent_without_predictor(self, stack):
        engine, net, host = stack
        est = collect(engine, CoRI(engine, host, net))
        assert est.get(EST_TCOMP) == float("inf")

    def test_tcomp_present_with_prediction(self, stack):
        engine, net, host = stack
        est = collect(engine, CoRI(engine, host, net), predicted_tcomp=77.0)
        assert est.get(EST_TCOMP) == 77.0

    def test_time_since_last_solve(self, stack):
        engine, net, host = stack
        cori = CoRI(engine, host, net)

        def proc():
            yield engine.timeout(5.0)
            cori.note_solve_end()
            yield engine.timeout(3.0)
            est = yield from cori.collect("sed", 0)
            return est

        est = engine.run_process(proc())
        # 3s of idle + the collect_time itself
        assert est.get(EST_TIMESINCELASTSOLVE) == pytest.approx(
            3.0 + cori.collect_time)

"""Unit tests for the Server Daemon."""

import pytest

from repro.core import (
    BaseType,
    CommunicationError,
    DataHandle,
    DietError,
    EstimateRequest,
    PersistenceMode,
    ProfileDesc,
    SeD,
    SeDParams,
    SolveRequest,
    Tracer,
    TransportFabric,
    scalar_desc,
)
from repro.sim import Engine, Host, Link, Network


@pytest.fixture
def stack():
    engine = Engine()
    net = Network(engine)
    net.add_host(Host(engine, "client-host"))
    net.add_host(Host(engine, "sed-host", speed=2.0))
    net.connect("client-host", "sed-host", Link("l", 0.001, 1e9))
    fabric = TransportFabric(engine, net)
    return engine, net, fabric


def toy_desc():
    desc = ProfileDesc("square", 0, 0, 1)
    desc.set_arg(0, scalar_desc(BaseType.INT))
    desc.set_arg(1, scalar_desc(BaseType.INT))
    return desc


def solve_square(profile, ctx):
    x = profile.parameter(0).get()
    yield from ctx.execute(4.0)   # 2s on the 2.0-speed host
    profile.parameter(1).set(x * x)
    return 0


def make_sed(stack, **params):
    engine, net, fabric = stack
    sed = SeD(fabric, net.host("sed-host"), "sed1", tracer=Tracer(),
              params=SeDParams(**params) if params else None)
    sed.add_service(toy_desc(), solve_square)
    sed.launch()
    return sed


def client_endpoint(stack):
    _, _, fabric = stack
    ep = fabric.endpoint("cli", "client-host")
    ep.start()
    return ep


class TestLaunch:
    def test_empty_table_refuses_launch(self, stack):
        engine, net, fabric = stack
        sed = SeD(fabric, net.host("sed-host"), "empty-sed")
        with pytest.raises(DietError):
            sed.launch()


class TestEstimate:
    def test_estimate_returns_vector(self, stack):
        engine, _, fabric = stack
        sed = make_sed(stack)
        cli = client_endpoint(stack)

        def call():
            req = EstimateRequest(cli.fabric.new_request_id(), toy_desc(),
                                  "client-host", 100)
            result = yield from cli.rpc("sed1", "estimate", req)
            return result

        vectors = engine.run_process(call())
        assert len(vectors) == 1
        est = vectors[0]
        assert est.sed_name == "sed1"
        assert est.get("EST_SPEED") == 2.0
        assert est.get("EST_NBJOBS") == 0.0
        assert est.get("EST_COMMTIME") < 1.0

    def test_unsolvable_service_returns_empty(self, stack):
        engine, _, fabric = stack
        make_sed(stack)
        cli = client_endpoint(stack)

        def call():
            other = ProfileDesc("unknown-service", 0, 0, 0)
            req = EstimateRequest(cli.fabric.new_request_id(), other, "client-host", 0)
            result = yield from cli.rpc("sed1", "estimate", req)
            return result

        assert engine.run_process(call()) == []

    def test_predictor_fills_tcomp(self, stack):
        engine, net, fabric = stack
        sed = SeD(fabric, net.host("sed-host"), "sed-pred")
        sed.add_service(toy_desc(), solve_square,
                        predictor=lambda desc: 123.0)
        sed.launch()
        cli = client_endpoint(stack)

        def call():
            req = EstimateRequest(cli.fabric.new_request_id(), toy_desc(),
                                  "client-host", 0)
            result = yield from cli.rpc("sed-pred", "estimate", req)
            return result[0]

        assert engine.run_process(call()).get("EST_TCOMP") == 123.0


class TestSolve:
    def _solve_once(self, stack, sed, cli, value=6):
        engine = stack[0]
        profile = toy_desc().instantiate()
        profile.parameter(0).set(value)
        profile.parameter(1).set(None)

        def call():
            req = SolveRequest(cli.fabric.new_request_id(), profile, "cli")
            reply = yield from cli.rpc(sed.name, "solve", req,
                                       nbytes=profile.request_nbytes())
            return reply

        return engine.run_process(call())

    def test_solve_roundtrip(self, stack):
        sed = make_sed(stack)
        cli = client_endpoint(stack)
        reply = self._solve_once(stack, sed, cli, value=6)
        assert reply.status == 0
        assert reply.out_values[1] == 36
        assert reply.sed_name == "sed1"
        assert reply.solve_ended_at - reply.solve_started_at == pytest.approx(2.0)

    def test_solve_counts_and_history(self, stack):
        sed = make_sed(stack)
        cli = client_endpoint(stack)
        self._solve_once(stack, sed, cli)
        self._solve_once(stack, sed, cli)
        assert sed.solve_count == 2
        assert len(sed.solve_durations) == 2

    def test_service_init_time_charged(self, stack):
        sed = make_sed(stack, service_init_time=0.5)
        cli = client_endpoint(stack)
        reply = self._solve_once(stack, sed, cli)
        # solve_started is after data arrival + init; duration excludes init
        assert reply.solve_ended_at - reply.solve_started_at == pytest.approx(2.0)

    def test_application_error_becomes_status(self, stack):
        engine, net, fabric = stack

        def failing(profile, ctx):
            yield from ctx.execute(1.0)
            raise RuntimeError("simulation diverged")

        desc = ProfileDesc("crashy", 0, 0, 1)
        sed = SeD(fabric, net.host("sed-host"), "sed-crash")
        sed.add_service(desc, failing)
        sed.launch()
        cli = client_endpoint(stack)

        profile = desc.instantiate()
        profile.parameter(0).set(1)
        profile.parameter(1).set(None)

        def call():
            req = SolveRequest(cli.fabric.new_request_id(), profile, "cli")
            return (yield from cli.rpc("sed-crash", "solve", req))

        reply = engine.run_process(call())
        assert reply.status == 1
        assert "simulation diverged" in reply.error

    def test_one_job_at_a_time(self, stack):
        """§5.1: each server computes at most one simulation at a time."""
        engine, _, _ = stack
        sed = make_sed(stack)
        cli = client_endpoint(stack)
        replies = []

        def call(v):
            profile = toy_desc().instantiate()
            profile.parameter(0).set(v)
            profile.parameter(1).set(None)
            req = SolveRequest(cli.fabric.new_request_id(), profile, "cli")
            reply = yield from cli.rpc("sed1", "solve", req)
            replies.append(reply)

        engine.process(call(1))
        engine.process(call(2))
        engine.run()
        spans = sorted((r.solve_started_at, r.solve_ended_at) for r in replies)
        assert spans[1][0] >= spans[0][1]   # no overlap

    def test_n_jobs_probe(self, stack):
        engine, _, _ = stack
        sed = make_sed(stack)
        cli = client_endpoint(stack)
        samples = []

        def call(v):
            profile = toy_desc().instantiate()
            profile.parameter(0).set(v)
            profile.parameter(1).set(None)
            req = SolveRequest(cli.fabric.new_request_id(), profile, "cli")
            yield from cli.rpc("sed1", "solve", req)

        def probe():
            yield engine.timeout(1.0)   # while job 1 runs and job 2 queues
            samples.append(sed.n_jobs)

        engine.process(call(1))
        engine.process(call(2))
        engine.process(probe())
        engine.run()
        assert samples == [2]


class TestBarePairPersistentData:
    """Two SeDs built by hand (no ``build_hierarchy``): each is a data grid
    of one, so a peer's handle is fetched from the SeD the handle names."""

    @staticmethod
    def _produce_desc():
        desc = ProfileDesc("produce", 0, 0, 1)
        desc.set_arg(0, scalar_desc(BaseType.INT))
        desc.set_arg(1, scalar_desc(BaseType.INT, PersistenceMode.PERSISTENT))
        return desc

    @staticmethod
    def _consume_desc():
        desc = ProfileDesc("consume", 0, 0, 1)
        desc.set_arg(0, scalar_desc(BaseType.INT, PersistenceMode.PERSISTENT))
        desc.set_arg(1, scalar_desc(BaseType.INT))
        return desc

    def _pair(self, stack):
        engine, net, fabric = stack
        net.add_host(Host(engine, "sed-host-b"))
        net.connect("sed-host-b", "sed-host", Link("lb", 0.001, 1e9))

        def produce(profile, ctx):
            yield from ctx.execute(1.0)
            profile.parameter(1).set(profile.parameter(0).get() * 2)
            return 0

        def consume(profile, ctx):
            yield from ctx.execute(1.0)
            profile.parameter(1).set(profile.parameter(0).get() + 1)
            return 0

        seds = []
        for name, host in (("sedA", "sed-host"), ("sedB", "sed-host-b")):
            sed = SeD(fabric, net.host(host), name)
            sed.add_service(self._produce_desc(), produce)
            sed.add_service(self._consume_desc(), consume)
            sed.launch()
            seds.append(sed)
        assert seds[0].data_manager.grid is not seds[1].data_manager.grid
        return seds

    def _solve(self, stack, cli, sed, desc, value):
        profile = desc.instantiate()
        profile.parameter(0).set(value)
        profile.parameter(1).set(None)

        def call():
            req = SolveRequest(cli.fabric.new_request_id(), profile, "cli")
            return (yield from cli.rpc(sed.name, "solve", req))

        return stack[0].run_process(call())

    def test_handle_resolves_peer_to_peer(self, stack):
        sed_a, sed_b = self._pair(stack)
        cli = client_endpoint(stack)
        produced = self._solve(stack, cli, sed_a, self._produce_desc(), 21)
        handle = produced.out_values[1]
        assert isinstance(handle, DataHandle) and handle.sed_name == "sedA"
        consumed = self._solve(stack, cli, sed_b, self._consume_desc(), handle)
        assert (consumed.status, consumed.out_values[1]) == (0, 43)
        # One dm_fetch from the owner; the pulled copy stays on sedB.
        assert sed_b.data_manager.stats.bytes_moved == handle.nbytes
        assert handle.data_id in sed_b.data_manager.store

    def test_stale_handle_is_a_data_error_status(self, stack):
        sed_a, sed_b = self._pair(stack)
        cli = client_endpoint(stack)
        for owner in ("sedA", "sedB"):  # a dead peer's id, then our own
            stale = DataHandle("gone", owner, 8)
            reply = self._solve(stack, cli, sed_b, self._consume_desc(), stale)
            assert reply.status == 1
            assert reply.error.startswith("DataError")

    def test_the_one_peer_fetch_op_is_dm_fetch(self, stack):
        engine = stack[0]
        sed_a, _ = self._pair(stack)
        cli = client_endpoint(stack)
        sed_a.data_manager.put("d", 5, 8, PersistenceMode.PERSISTENT)
        assert engine.run_process(cli.rpc("sedA", "dm_fetch", "d")) == 5
        with pytest.raises(CommunicationError, match="no handler"):
            engine.run_process(cli.rpc("sedA", "fetch_data", "d"))

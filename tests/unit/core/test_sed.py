"""Unit tests for the Server Daemon."""

from types import SimpleNamespace

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
            req = EstimateRequest(cli.fabric.new_request_id(), toy_desc())
            result = yield from cli.rpc("sed1", "estimate", req)
            return result

        vectors = engine.run_process(call())
        assert len(vectors) == 1
        est = vectors[0]
        assert est.sed_name == "sed1"
        assert est.host == "sed-host"
        assert est.speed == 2.0
        assert est.n_jobs == 0

    def test_vector_reads_the_host(self, stack):
        est = make_sed(stack)._estimate(3)
        assert (est.sed_name, est.host, est.n_jobs, est.speed) == (
            "sed1", "sed-host", 3, 2.0)
        assert not hasattr(est, "__dict__")  # a slotted record, no tag table
        with pytest.raises(AttributeError):
            est.comm_time = 1.0

    def test_tcomp_is_inf_without_predictor(self, stack):
        assert make_sed(stack)._estimate(0).tcomp == float("inf")

    def test_tcomp_present_with_prediction(self, stack):
        assert make_sed(stack)._estimate(0, 77.0).tcomp == 77.0

    def test_unsolvable_service_returns_empty(self, stack):
        engine, _, fabric = stack
        make_sed(stack)
        cli = client_endpoint(stack)

        def call():
            other = ProfileDesc("unknown-service", 0, 0, 0)
            req = EstimateRequest(cli.fabric.new_request_id(), other)
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
            req = EstimateRequest(cli.fabric.new_request_id(), toy_desc())
            result = yield from cli.rpc("sed-pred", "estimate", req)
            return result[0]

        assert engine.run_process(call()).tcomp == 123.0

    def test_probe_costs_estimate_collect_time(self, stack):
        engine = stack[0]
        sed = make_sed(stack, estimate_collect_time=0.02)
        msg = SimpleNamespace(payload=EstimateRequest(0, toy_desc()))
        vectors, nbytes = engine.run_process(sed._handle_estimate(msg))
        assert engine.now == pytest.approx(0.02)
        assert len(vectors) == 1 and nbytes == 512

    def test_pull_snapshots_n_jobs_before_the_probe(self, stack):
        # A job that lands during the probe delay is not in the answer:
        # pull mode reads the queue when the request arrives.
        engine = stack[0]
        sed = make_sed(stack)
        msg = SimpleNamespace(payload=EstimateRequest(0, toy_desc()))
        answer = engine.process(sed._handle_estimate(msg))

        def occupy():
            yield engine.timeout(sed.params.estimate_collect_time / 2)
            sed.job_slots.request()

        engine.process(occupy())
        engine.run()
        (est,), _ = answer.value
        assert est.n_jobs == 0
        assert sed.n_jobs == 1


class TestSolve:
    def _solve_once(self, stack, sed, cli, value=6):
        engine = stack[0]
        profile = toy_desc().instantiate()
        profile.parameter(0).set(value)
        profile.parameter(1).set(None)

        def call():
            req = SolveRequest(cli.fabric.new_request_id(), profile)
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
        trace = sed.tracer.trace(reply.request_id)
        assert trace.solve_duration == pytest.approx(2.0)

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
        trace = sed.tracer.trace(reply.request_id)
        assert trace.solve_duration == pytest.approx(2.0)
        assert trace.initiation_time == pytest.approx(0.5)

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
            req = SolveRequest(cli.fabric.new_request_id(), profile)
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
            req = SolveRequest(cli.fabric.new_request_id(), profile)
            reply = yield from cli.rpc("sed1", "solve", req)
            replies.append(reply)

        engine.process(call(1))
        engine.process(call(2))
        engine.run()
        spans = sorted((t.solve_started_at, t.solve_ended_at)
                       for t in sed.tracer.all_traces())
        assert len(spans) == len(replies) == 2
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
            req = SolveRequest(cli.fabric.new_request_id(), profile)
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
            req = SolveRequest(cli.fabric.new_request_id(), profile)
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

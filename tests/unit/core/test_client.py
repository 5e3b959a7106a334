"""Unit tests for the DIET client (sessions, sync/async calls)."""

import pytest

from repro.core import (
    BaseType,
    NotCompletedError,
    NotInitializedError,
    ProfileDesc,
    deploy_paper_hierarchy,
    scalar_desc,
)
from repro.core.exceptions import InvalidSessionError
from repro.platform import build_grid5000
from repro.sim import Engine


def toy_desc():
    desc = ProfileDesc("toy", 0, 0, 1)
    desc.set_arg(0, scalar_desc(BaseType.INT))
    desc.set_arg(1, scalar_desc(BaseType.INT))
    return desc


def solve_toy(profile, ctx):
    x = profile.parameter(0).get()
    yield from ctx.execute(1.0 * ctx.host.speed)
    profile.parameter(1).set(x + 1)
    return 0


@pytest.fixture
def deployment():
    engine = Engine()
    platform = build_grid5000(engine)
    dep = deploy_paper_hierarchy(platform)
    for sed in dep.seds:
        sed.add_service(toy_desc(), solve_toy)
    dep.launch_all()
    return dep


def fresh_profile(value):
    profile = toy_desc().instantiate()
    profile.parameter(0).set(value)
    profile.parameter(1).set(None)
    return profile


class TestSession:
    def test_call_before_initialize_raises(self, deployment):
        client = deployment.client

        def run():
            yield from client.call(fresh_profile(1))

        with pytest.raises(NotInitializedError):
            deployment.engine.run_process(run())

    def test_initialize_requires_ma_name(self, deployment):
        with pytest.raises(NotInitializedError):
            deployment.client.initialize({})

    def test_initialize_validates_ma_exists(self, deployment):
        with pytest.raises(Exception):
            deployment.client.initialize({"MA_name": "no-such-agent"})

    def test_finalize_closes_session(self, deployment):
        client = deployment.client
        client.initialize({"MA_name": "MA"})
        client.finalize()
        with pytest.raises(NotInitializedError):
            client.function_handle("toy")

    def test_out_data_survives_finalize(self, deployment):
        """§4.3.1: finalize does not free OUT data brought back."""
        client = deployment.client
        engine = deployment.engine
        profile = fresh_profile(10)

        def run():
            client.initialize({"MA_name": "MA"})
            yield from client.call(profile)
            client.finalize()

        engine.run_process(run())
        assert profile.parameter(1).get() == 11


class TestSyncCall:
    def test_call_fills_out_args(self, deployment):
        client, engine = deployment.client, deployment.engine

        def run():
            client.initialize({"MA_name": "MA"})
            status = yield from client.call(fresh_profile(5))
            return status

        assert engine.run_process(run()) == 0

    def test_handle_bound_to_server(self, deployment):
        client, engine = deployment.client, deployment.engine

        def run():
            client.initialize({"MA_name": "MA"})
            handle = client.function_handle("toy")
            yield from client.call(fresh_profile(1), handle)
            return handle.server

        server = engine.run_process(run())
        assert server in {s.name for s in deployment.seds}

    def test_failed_solve_reports_the_sed_side_error(self, deployment):
        """A raising solve function is a status-1 *result*; the handle says
        which request failed where and why instead of dropping the reason."""

        def solve_boom(profile, ctx):
            raise ValueError("scratch volume full")
            yield  # pragma: no cover - generator marker

        desc = ProfileDesc("boom", 0, 0, 1)
        desc.set_arg(0, scalar_desc(BaseType.INT))
        desc.set_arg(1, scalar_desc(BaseType.INT))
        engine = Engine()
        dep = deploy_paper_hierarchy(build_grid5000(engine))
        for sed in dep.seds:
            sed.add_service(desc, solve_boom)
        dep.launch_all()
        client = dep.client

        def profile():
            p = desc.instantiate()
            p.parameter(0).set(1)
            p.parameter(1).set(None)
            return p

        def run():
            client.initialize({"MA_name": "MA"})
            handle = client.function_handle("boom")
            status = yield from client.call(profile(), handle)
            request = client.call_async(profile())
            yield from request.wait()
            return status, handle, request

        status, handle, request = engine.run_process(run())
        assert status == 1 and request.status() == 1
        for h in (handle, request.handle):
            assert h.error == "ValueError: scratch volume full"
            assert h.server in [s.name for s in dep.seds]
        assert (handle.request_id, request.handle.request_id) == (1, 2)

    def test_unset_in_arg_rejected_before_submit(self, deployment):
        client, engine = deployment.client, deployment.engine
        profile = toy_desc().instantiate()   # nothing set
        from repro.core import ProfileError

        def run():
            client.initialize({"MA_name": "MA"})
            yield from client.call(profile)

        with pytest.raises(ProfileError):
            engine.run_process(run())

    def test_trace_lifecycle_recorded(self, deployment):
        client, engine = deployment.client, deployment.engine

        def run():
            client.initialize({"MA_name": "MA"})
            yield from client.call(fresh_profile(1))

        engine.run_process(run())
        (trace,) = deployment.tracer.all_traces("toy")
        assert trace.submitted_at == 0.0
        assert trace.finding_time > 0
        assert trace.latency > 0
        assert trace.solve_duration > 0
        assert trace.completed_at > trace.solve_ended_at


class TestAsyncCalls:
    def test_wait_all_collects_statuses(self, deployment):
        client, engine = deployment.client, deployment.engine
        profiles = [fresh_profile(i) for i in range(5)]

        def run():
            client.initialize({"MA_name": "MA"})
            for p in profiles:
                client.call_async(p)
            statuses = yield from client.wait_all()
            return statuses

        statuses = engine.run_process(run())
        assert list(statuses.values()) == [0] * 5
        assert all(p.parameter(1).get() == i + 1
                   for i, p in enumerate(profiles))

    def test_probe_not_completed(self, deployment):
        client, engine = deployment.client, deployment.engine

        def run():
            client.initialize({"MA_name": "MA"})
            req = client.call_async(fresh_profile(1))
            try:
                client.probe(req.request_id)
            except NotCompletedError:
                probed_early = True
            else:
                probed_early = False
            yield from client.wait_all()
            return probed_early, client.probe(req.request_id)

        early, late = engine.run_process(run())
        assert early is True and late == 0

    def test_probe_unknown_session(self, deployment):
        client = deployment.client
        client.initialize({"MA_name": "MA"})
        with pytest.raises(InvalidSessionError):
            client.probe(999)

    def test_wait_any_returns_first(self, deployment):
        client, engine = deployment.client, deployment.engine

        def run():
            client.initialize({"MA_name": "MA"})
            client.call_async(fresh_profile(1))
            client.call_async(fresh_profile(2))
            sid = yield from client.wait_any()
            return sid

        sid = engine.run_process(run())
        assert sid in (1, 2)

    def test_async_request_wait_helper(self, deployment):
        client, engine = deployment.client, deployment.engine

        def run():
            client.initialize({"MA_name": "MA"})
            req = client.call_async(fresh_profile(7))
            status = yield from req.wait()
            return status, req.done

        status, done = engine.run_process(run())
        assert status == 0 and done
